//! Annual capacity factors and PUE statistics for a location.

use crate::pue::PueModel;
use crate::pv::PvModel;
use crate::windturbine::Turbine;
use greencloud_climate::weather::Tmy;

/// Aggregated annual statistics of a location's energy characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityFactors {
    /// Solar capacity factor: annual mean of α(d,t).
    pub solar: f64,
    /// Wind capacity factor: annual mean of β(d,t).
    pub wind: f64,
    /// Annual mean PUE.
    pub mean_pue: f64,
    /// Annual maximum PUE (sizes the cooling/electrical plant).
    pub max_pue: f64,
}

impl CapacityFactors {
    /// Computes the factors over a full TMY year with explicit models.
    pub fn from_tmy(tmy: &Tmy, pv: &PvModel, turbine: &Turbine, pue: &PueModel) -> Self {
        let n = tmy.len();
        assert!(n > 0, "empty TMY");
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        let mut sum_p = 0.0;
        let mut max_p = f64::NEG_INFINITY;
        for h in 0..n {
            sum_a += pv.alpha(tmy.ghi_wm2[h], tmy.temp_c[h]);
            sum_b += turbine.beta(tmy.wind_ms[h], tmy.pressure_kpa[h], tmy.temp_c[h]);
            let p = pue.pue(tmy.temp_c[h]);
            sum_p += p;
            max_p = max_p.max(p);
        }
        CapacityFactors {
            solar: sum_a / n as f64,
            wind: sum_b / n as f64,
            // The accumulated sum can round a hair above n·max when every
            // slot has the same PUE (constant-climate sites); clamp so
            // `mean_pue ≤ max_pue` holds exactly.
            mean_pue: (sum_p / n as f64).min(max_p),
            max_pue: max_p,
        }
    }

    /// Computes the factors with the paper-default models (15%-class PV,
    /// E-126 turbine, Fig. 4 PUE).
    pub fn with_default_models(tmy: &Tmy) -> Self {
        Self::from_tmy(
            tmy,
            &PvModel::default(),
            &Turbine::default(),
            &PueModel::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_climate::catalog::WorldCatalog;

    #[test]
    fn anchor_capacity_factors_match_paper_bands() {
        let w = WorldCatalog::anchors_only(4);

        let mw = w.find("Mount Washington").unwrap();
        let cf = CapacityFactors::with_default_models(&w.tmy(mw.id));
        assert!(
            (0.42..=0.68).contains(&cf.wind),
            "Mount Washington wind CF {} (paper: 55.6%)",
            cf.wind
        );
        assert!(cf.mean_pue < 1.07, "cold summit PUE {}", cf.mean_pue);

        let harare = w.find("Harare").unwrap();
        let cf = CapacityFactors::with_default_models(&w.tmy(harare.id));
        assert!(
            (0.17..=0.27).contains(&cf.solar),
            "Harare solar CF {} (paper: 22.4%)",
            cf.solar
        );

        let nairobi = w.find("Nairobi").unwrap();
        let cf = CapacityFactors::with_default_models(&w.tmy(nairobi.id));
        assert!(
            (0.16..=0.26).contains(&cf.solar),
            "Nairobi solar CF {} (paper: 20.9%)",
            cf.solar
        );

        let burke = w.find("Burke").unwrap();
        let cf = CapacityFactors::with_default_models(&w.tmy(burke.id));
        assert!(
            (0.14..=0.30).contains(&cf.wind),
            "Burke wind CF {} (paper: 20.9%)",
            cf.wind
        );
    }

    #[test]
    fn factors_within_physical_bounds() {
        let w = WorldCatalog::synthetic(40, 7);
        for loc in w.iter() {
            let cf = CapacityFactors::with_default_models(&w.tmy(loc.id));
            assert!(
                (0.0..=0.45).contains(&cf.solar),
                "{}: solar {}",
                loc.name,
                cf.solar
            );
            assert!(
                (0.0..=0.85).contains(&cf.wind),
                "{}: wind {}",
                loc.name,
                cf.wind
            );
            assert!(cf.mean_pue >= 1.05 && cf.mean_pue <= 1.30, "{}", loc.name);
            assert!(cf.max_pue >= cf.mean_pue && cf.max_pue <= 1.5);
        }
    }

    #[test]
    fn paper_fig5_shape_high_wind_sites_run_cool() {
        // Fig. 5: the windiest locations have low PUE. Check the correlation
        // across a synthetic world sample.
        let w = WorldCatalog::synthetic(120, 12);
        let mut windy_pue = Vec::new();
        let mut calm_pue = Vec::new();
        for loc in w.iter() {
            let cf = CapacityFactors::with_default_models(&w.tmy(loc.id));
            if cf.wind > 0.30 {
                windy_pue.push(cf.mean_pue);
            } else if cf.wind < 0.10 {
                calm_pue.push(cf.mean_pue);
            }
        }
        assert!(!windy_pue.is_empty() && !calm_pue.is_empty());
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&windy_pue) <= avg(&calm_pue) + 0.01,
            "windy {} vs calm {}",
            avg(&windy_pue),
            avg(&calm_pue)
        );
    }
}
