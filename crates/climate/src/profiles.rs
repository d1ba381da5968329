//! Representative-day compression of a TMY year.
//!
//! The paper's optimization covers a whole year of hourly weather, which
//! makes the LP huge. Standard capacity-expansion practice — and our
//! documented substitution — is to optimize over a handful of
//! *representative days*: each season contributes `days_per_season` sampled
//! calendar days, and every hour-slot carries a weight (hours of the real
//! year it stands for). Battery dispatch is treated as cyclic within each
//! representative day by the formulation layer.
//!
//! The selected calendar days depend only on [`ProfileConfig`], **not** on
//! the location, so every location in a network problem shares the same
//! slot clock — a requirement for the coupling constraints.

use crate::weather::Tmy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hours represented by one slot must total the full year.
pub const YEAR_HOURS: f64 = 8760.0;

/// Season boundaries in calendar days (quarters of the 365-day year).
const SEASON_BOUNDS: [(usize, usize); 4] = [(0, 91), (91, 182), (182, 273), (273, 365)];

/// Configuration of representative-day selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileConfig {
    /// Representative days sampled per season (1 = fastest, 2–3 typical).
    pub days_per_season: usize,
    /// Seed for the (deterministic) day sampling.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            days_per_season: 2,
            seed: 0x5EED,
        }
    }
}

impl ProfileConfig {
    /// A minimal single-day-per-season profile (96 slots) for fast tests.
    pub fn coarse() -> Self {
        Self {
            days_per_season: 1,
            ..Self::default()
        }
    }

    /// The calendar days (0-based) selected by this configuration, in
    /// chronological order. Identical for every location.
    pub fn days(&self) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut days = Vec::with_capacity(4 * self.days_per_season);
        for (lo, hi) in SEASON_BOUNDS {
            let mut chosen = Vec::with_capacity(self.days_per_season);
            while chosen.len() < self.days_per_season {
                let d = rng.gen_range(lo..hi);
                if !chosen.contains(&d) {
                    chosen.push(d);
                }
            }
            chosen.sort_unstable();
            days.extend(chosen);
        }
        days
    }

    /// Number of hour slots this configuration produces.
    pub fn num_slots(&self) -> usize {
        4 * self.days_per_season * 24
    }
}

/// One weighted hour of weather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSlot {
    /// Dry-bulb temperature, °C.
    pub temp_c: f64,
    /// Global horizontal irradiance, W/m².
    pub ghi_wm2: f64,
    /// Wind speed, m/s.
    pub wind_ms: f64,
    /// Air pressure, kPa.
    pub pressure_kpa: f64,
    /// Hours of the real year this slot represents.
    pub weight_hours: f64,
}

/// A location's weather compressed onto the shared slot clock.
#[derive(Debug, Clone)]
pub struct WeatherProfile {
    slots: Vec<WeatherSlot>,
}

impl WeatherProfile {
    /// Extracts the representative-day slots of `config` from a TMY year.
    pub fn from_tmy(tmy: &Tmy, config: &ProfileConfig) -> Self {
        let days = config.days();
        let mut slots = Vec::with_capacity(days.len() * 24);
        for (i, &day) in days.iter().enumerate() {
            let season = i / config.days_per_season;
            let (lo, hi) = SEASON_BOUNDS[season];
            let weight = (hi - lo) as f64 / config.days_per_season as f64;
            for h in 0..24 {
                let idx = day * 24 + h;
                slots.push(WeatherSlot {
                    temp_c: tmy.temp_c[idx],
                    ghi_wm2: tmy.ghi_wm2[idx],
                    wind_ms: tmy.wind_ms[idx],
                    pressure_kpa: tmy.pressure_kpa[idx],
                    weight_hours: weight,
                });
            }
        }
        WeatherProfile { slots }
    }

    /// The slots in chronological order.
    pub fn slots(&self) -> &[WeatherSlot] {
        &self.slots
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of representative days (each day is 24 consecutive slots).
    pub fn num_days(&self) -> usize {
        self.slots.len() / 24
    }

    /// The representative day a slot belongs to.
    pub fn day_of_slot(&self, slot: usize) -> usize {
        slot / 24
    }

    /// Total hours represented (should equal the year).
    pub fn total_weight_hours(&self) -> f64 {
        self.slots.iter().map(|s| s.weight_hours).sum()
    }

    /// Weighted annual mean of a per-slot quantity.
    pub fn weighted_mean<F: Fn(&WeatherSlot) -> f64>(&self, f: F) -> f64 {
        let total = self.total_weight_hours();
        if total == 0.0 {
            return 0.0;
        }
        self.slots
            .iter()
            .map(|s| f(s) * s.weight_hours)
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::LatLon;
    use crate::weather::ClimateParams;

    fn tmy() -> Tmy {
        Tmy::synthesize(&ClimateParams::default(), LatLon::new(40.0, -75.0), 42)
    }

    #[test]
    fn weights_cover_the_year() {
        for dps in 1..=3 {
            let cfg = ProfileConfig {
                days_per_season: dps,
                seed: 1,
            };
            let p = WeatherProfile::from_tmy(&tmy(), &cfg);
            assert_eq!(p.len(), cfg.num_slots());
            assert!(
                (p.total_weight_hours() - YEAR_HOURS).abs() < 1e-6,
                "dps {dps}: {}",
                p.total_weight_hours()
            );
        }
    }

    #[test]
    fn day_selection_is_deterministic_and_seasonal() {
        let cfg = ProfileConfig::default();
        let d1 = cfg.days();
        let d2 = cfg.days();
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 8);
        // Two days per quarter.
        for (i, (lo, hi)) in SEASON_BOUNDS.iter().enumerate() {
            for k in 0..2 {
                let d = d1[i * 2 + k];
                assert!(d >= *lo && d < *hi, "day {d} outside season {i}");
            }
        }
    }

    #[test]
    fn different_seeds_pick_different_days() {
        let a = ProfileConfig {
            days_per_season: 2,
            seed: 1,
        }
        .days();
        let b = ProfileConfig {
            days_per_season: 2,
            seed: 2,
        }
        .days();
        assert_ne!(a, b);
    }

    #[test]
    fn profile_copies_tmy_hours_verbatim() {
        let cfg = ProfileConfig::coarse();
        let t = tmy();
        let p = WeatherProfile::from_tmy(&t, &cfg);
        let days = cfg.days();
        for (i, &day) in days.iter().enumerate() {
            for h in 0..24 {
                let s = &p.slots()[i * 24 + h];
                assert_eq!(s.ghi_wm2, t.ghi_wm2[day * 24 + h]);
                assert_eq!(s.wind_ms, t.wind_ms[day * 24 + h]);
            }
        }
    }

    #[test]
    fn weighted_mean_approximates_annual_mean() {
        // With several sampled days the profile mean should be in the same
        // ballpark as the full-year mean (it is a statistical sample).
        let cfg = ProfileConfig {
            days_per_season: 3,
            seed: 9,
        };
        let t = tmy();
        let p = WeatherProfile::from_tmy(&t, &cfg);
        let annual = t.mean_ghi_wm2();
        let sampled = p.weighted_mean(|s| s.ghi_wm2);
        assert!(
            (sampled - annual).abs() / annual < 0.35,
            "annual {annual}, sampled {sampled}"
        );
    }

    #[test]
    fn day_of_slot_blocks() {
        let cfg = ProfileConfig::default();
        let p = WeatherProfile::from_tmy(&tmy(), &cfg);
        assert_eq!(p.num_days(), 8);
        assert_eq!(p.day_of_slot(0), 0);
        assert_eq!(p.day_of_slot(23), 0);
        assert_eq!(p.day_of_slot(24), 1);
        assert_eq!(p.day_of_slot(191), 7);
    }
}
