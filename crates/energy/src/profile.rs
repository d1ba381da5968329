//! Per-slot energy coefficients: the α/β/PUE series consumed by the LP.

use crate::pue::PueModel;
use crate::pv::PvModel;
use crate::windturbine::Turbine;
use greencloud_climate::profiles::WeatherProfile;
use greencloud_climate::weather::Tmy;

/// α, β, and PUE per time slot, with slot weights.
///
/// Built either from a representative-day [`WeatherProfile`] (for the siting
/// optimization) or from a full hourly TMY (for GreenNebula emulation, where
/// every weight is one hour).
#[derive(Debug, Clone)]
pub struct EnergyProfile {
    /// Solar production fraction per slot.
    pub alpha: Vec<f64>,
    /// Wind production fraction per slot.
    pub beta: Vec<f64>,
    /// PUE per slot.
    pub pue: Vec<f64>,
    /// Hours of the year each slot represents.
    pub weight_hours: Vec<f64>,
    /// Slots per contiguous dispatch block (battery cyclic boundary);
    /// 24 for representative days, the full year for hourly profiles.
    pub block_len: usize,
}

impl EnergyProfile {
    /// Converts a representative-day weather profile with explicit models.
    pub fn from_weather(
        weather: &WeatherProfile,
        pv: &PvModel,
        turbine: &Turbine,
        pue: &PueModel,
    ) -> Self {
        let slots = weather.slots();
        let mut p = EnergyProfile {
            alpha: Vec::with_capacity(slots.len()),
            beta: Vec::with_capacity(slots.len()),
            pue: Vec::with_capacity(slots.len()),
            weight_hours: Vec::with_capacity(slots.len()),
            block_len: 24,
        };
        for s in slots {
            p.alpha.push(pv.alpha(s.ghi_wm2, s.temp_c));
            p.beta
                .push(turbine.beta(s.wind_ms, s.pressure_kpa, s.temp_c));
            p.pue.push(pue.pue(s.temp_c));
            p.weight_hours.push(s.weight_hours);
        }
        p
    }

    /// Converts a representative-day weather profile with default models.
    pub fn from_weather_default(weather: &WeatherProfile) -> Self {
        Self::from_weather(
            weather,
            &PvModel::default(),
            &Turbine::default(),
            &PueModel::new(),
        )
    }

    /// Full-resolution hourly profile over a TMY year (weights all 1 h).
    pub fn from_tmy_hourly(tmy: &Tmy, pv: &PvModel, turbine: &Turbine, pue: &PueModel) -> Self {
        let n = tmy.len();
        let mut p = EnergyProfile {
            alpha: Vec::with_capacity(n),
            beta: Vec::with_capacity(n),
            pue: Vec::with_capacity(n),
            weight_hours: vec![1.0; n],
            block_len: n,
        };
        for h in 0..n {
            p.alpha.push(pv.alpha(tmy.ghi_wm2[h], tmy.temp_c[h]));
            p.beta
                .push(turbine.beta(tmy.wind_ms[h], tmy.pressure_kpa[h], tmy.temp_c[h]));
            p.pue.push(pue.pue(tmy.temp_c[h]));
        }
        p
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Number of dispatch blocks (battery cycles independently per block).
    pub fn num_blocks(&self) -> usize {
        self.len().div_ceil(self.block_len)
    }

    /// The dispatch block a slot belongs to.
    pub fn block_of(&self, slot: usize) -> usize {
        slot / self.block_len
    }

    /// Total hours represented.
    pub fn total_hours(&self) -> f64 {
        self.weight_hours.iter().sum()
    }

    /// Weight-averaged solar capacity factor of the profile.
    pub fn solar_cf(&self) -> f64 {
        self.weighted_mean(&self.alpha)
    }

    /// Weight-averaged wind capacity factor of the profile.
    pub fn wind_cf(&self) -> f64 {
        self.weighted_mean(&self.beta)
    }

    /// Weight-averaged PUE of the profile.
    pub fn mean_pue(&self) -> f64 {
        self.weighted_mean(&self.pue)
    }

    /// Maximum PUE across slots.
    pub fn max_pue(&self) -> f64 {
        self.pue.iter().copied().fold(1.0, f64::max)
    }

    fn weighted_mean(&self, series: &[f64]) -> f64 {
        let total = self.total_hours();
        if total == 0.0 {
            return 0.0;
        }
        series
            .iter()
            .zip(&self.weight_hours)
            .map(|(v, w)| v * w)
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;

    fn build() -> EnergyProfile {
        let w = WorldCatalog::anchors_only(6);
        let loc = w.find("Burke").unwrap();
        let tmy = w.tmy(loc.id);
        let wp = WeatherProfile::from_tmy(&tmy, &ProfileConfig::default());
        EnergyProfile::from_weather_default(&wp)
    }

    #[test]
    fn slot_counts_and_blocks() {
        let p = build();
        assert_eq!(p.len(), 192);
        assert_eq!(p.num_blocks(), 8);
        assert_eq!(p.block_of(0), 0);
        assert_eq!(p.block_of(47), 1);
        assert!((p.total_hours() - 8760.0).abs() < 1e-6);
    }

    #[test]
    fn series_within_bounds() {
        let p = build();
        for i in 0..p.len() {
            assert!((0.0..=1.15).contains(&p.alpha[i]));
            assert!((0.0..=1.0).contains(&p.beta[i]));
            assert!(p.pue[i] >= 1.05 && p.pue[i] <= 1.5);
        }
    }

    #[test]
    fn hourly_profile_spans_year() {
        let w = WorldCatalog::anchors_only(6);
        let loc = w.find("Nairobi").unwrap();
        let tmy = w.tmy(loc.id);
        let p = EnergyProfile::from_tmy_hourly(
            &tmy,
            &PvModel::default(),
            &Turbine::default(),
            &PueModel::new(),
        );
        assert_eq!(p.len(), 8760);
        assert_eq!(p.num_blocks(), 1);
        assert!((p.total_hours() - 8760.0).abs() < 1e-9);
        // Profile CF equals the annual aggregation on the same data.
        let cf = crate::capacity_factor::CapacityFactors::with_default_models(&tmy);
        assert!((p.solar_cf() - cf.solar).abs() < 1e-9);
        assert!((p.wind_cf() - cf.wind).abs() < 1e-9);
    }

    #[test]
    fn profile_cf_close_to_annual_cf() {
        // Representative days are a sample; CFs should be within a third of
        // the annual value for a temperate site.
        let w = WorldCatalog::anchors_only(6);
        let loc = w.find("Burke").unwrap();
        let tmy = w.tmy(loc.id);
        let annual = crate::capacity_factor::CapacityFactors::with_default_models(&tmy);
        let p = build();
        assert!(
            (p.wind_cf() - annual.wind).abs() / annual.wind < 0.5,
            "profile {} vs annual {}",
            p.wind_cf(),
            annual.wind
        );
        assert!(
            (p.solar_cf() - annual.solar).abs() / annual.solar < 0.5,
            "profile {} vs annual {}",
            p.solar_cf(),
            annual.solar
        );
    }
}
