//! Photovoltaic production model.
//!
//! Installed capacity is rated at Standard Test Conditions (1000 W/m², cell
//! temperature 25 °C), so the per-slot production fraction α is the plane-of-
//! array irradiance relative to 1000 W/m², corrected for cell temperature
//! and the fixed system losses the paper folds into α (inverter, wiring,
//! soiling). The 15% panel efficiency the paper cites is already captured by
//! the STC rating; it determines *land area per kW* (Table I's `areaSolar`),
//! not α.

/// PV array model producing the paper's α(d,t).
#[derive(Debug, Clone, PartialEq)]
pub struct PvModel {
    /// Fixed DC→AC system derate (inverter, wiring, soiling).
    pub system_derate: f64,
    /// Relative power loss per °C of cell temperature above 25 °C.
    pub temp_coeff_per_c: f64,
    /// Cell-temperature rise per W/m² of irradiance (NOCT model).
    pub cell_temp_rise_per_wm2: f64,
}

impl Default for PvModel {
    fn default() -> Self {
        Self {
            // Typical 2011-era multi-crystalline system losses (~15%).
            system_derate: 0.85,
            temp_coeff_per_c: 0.004,
            // NOCT 47 °C: (47-20)/800 ≈ 0.034 °C per W/m².
            cell_temp_rise_per_wm2: 0.034,
        }
    }
}

impl PvModel {
    /// Production as a fraction of installed (STC) capacity for a slot with
    /// global irradiance `ghi_wm2` and ambient temperature `ambient_c`.
    ///
    /// Always in `[0, ~1.05]` (cold clear days can slightly exceed STC).
    pub fn alpha(&self, ghi_wm2: f64, ambient_c: f64) -> f64 {
        if ghi_wm2 <= 0.0 {
            return 0.0;
        }
        let cell_c = ambient_c + self.cell_temp_rise_per_wm2 * ghi_wm2;
        let temp_factor = 1.0 - self.temp_coeff_per_c * (cell_c - 25.0);
        (ghi_wm2 / 1000.0 * self.system_derate * temp_factor).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dark_means_zero() {
        let pv = PvModel::default();
        assert_eq!(pv.alpha(0.0, 20.0), 0.0);
        assert_eq!(pv.alpha(-5.0, 20.0), 0.0);
    }

    #[test]
    fn stc_reference_point() {
        let pv = PvModel::default();
        // At 1000 W/m² the cell runs hot, so output is below the derate.
        let a = pv.alpha(1000.0, 25.0 - 34.0); // ambient chosen so cell = 25 °C
        assert!((a - 0.85).abs() < 1e-9, "alpha {a}");
    }

    #[test]
    fn hot_cells_lose_power() {
        let pv = PvModel::default();
        let cool = pv.alpha(800.0, 5.0);
        let hot = pv.alpha(800.0, 40.0);
        assert!(cool > hot);
        // 35 °C ambient delta → 14% relative difference.
        assert!(
            (cool / hot - 1.0 - 0.004 * 35.0 / (1.0 - 0.004 * (40.0 + 27.2 - 25.0))).abs() < 0.05
        );
    }

    #[test]
    fn alpha_is_monotone_in_irradiance_at_fixed_temp() {
        let pv = PvModel::default();
        let mut prev = 0.0;
        for g in (0..=10).map(|i| i as f64 * 100.0) {
            let a = pv.alpha(g, 15.0);
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn bounded_output() {
        let pv = PvModel::default();
        for g in [100.0, 400.0, 700.0, 1000.0, 1098.0] {
            for t in [-30.0, 0.0, 25.0, 45.0] {
                let a = pv.alpha(g, t);
                assert!((0.0..=1.15).contains(&a), "alpha({g},{t}) = {a}");
            }
        }
    }
}
