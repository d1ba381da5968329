//! Wind turbine production model (Enercon E-126, the paper's reference).
//!
//! β(d,t) is the fraction of installed (rated) capacity produced at the
//! slot's wind speed, using the published E-126 power curve with linear
//! interpolation, an air-density correction in the sub-rated region, and
//! the storm-control ramp-down Enercon fits above 28 m/s.

/// Published E-126 power curve `(wind speed m/s, output kW)` at standard
/// air density (1.225 kg/m³).
const E126_CURVE: &[(f64, f64)] = &[
    (3.0, 55.0),
    (4.0, 175.0),
    (5.0, 410.0),
    (6.0, 760.0),
    (7.0, 1250.0),
    (8.0, 1900.0),
    (9.0, 2700.0),
    (10.0, 3750.0),
    (11.0, 4850.0),
    (12.0, 5750.0),
    (13.0, 6500.0),
    (14.0, 7000.0),
    (15.0, 7350.0),
    (16.0, 7500.0),
    (17.0, 7580.0),
];

/// Reference air density, kg/m³.
pub const RHO_0: f64 = 1.225;
/// Specific gas constant of dry air, J/(kg·K).
const R_AIR: f64 = 287.05;

/// A wind turbine model producing the paper's β(d,t).
#[derive(Debug, Clone, PartialEq)]
pub struct Turbine {
    /// Rated electrical output, kW.
    pub rated_kw: f64,
    /// Cut-in wind speed, m/s.
    pub cut_in_ms: f64,
    /// Start of the storm-control ramp-down, m/s.
    pub storm_start_ms: f64,
    /// Full shutdown speed, m/s.
    pub cut_out_ms: f64,
    /// Electrical conversion/collection losses applied on top of the curve.
    pub conversion_loss: f64,
}

impl Default for Turbine {
    /// The Enercon E-126 (7.58 MW), as used by the paper.
    fn default() -> Self {
        Self {
            rated_kw: 7580.0,
            cut_in_ms: 3.0,
            storm_start_ms: 28.0,
            cut_out_ms: 34.0,
            conversion_loss: 0.03,
        }
    }
}

impl Turbine {
    /// Air density from station pressure (kPa) and temperature (°C).
    pub fn air_density(pressure_kpa: f64, temp_c: f64) -> f64 {
        pressure_kpa * 1000.0 / (R_AIR * (temp_c + 273.15))
    }

    /// Electrical output in kW at `wind_ms`, `pressure_kpa`, `temp_c`.
    pub fn power_kw(&self, wind_ms: f64, pressure_kpa: f64, temp_c: f64) -> f64 {
        if wind_ms < self.cut_in_ms || wind_ms >= self.cut_out_ms {
            return 0.0;
        }
        let rho = Self::air_density(pressure_kpa, temp_c);
        let density_factor = (rho / RHO_0).clamp(0.5, 1.3);
        let base = if wind_ms >= self.storm_start_ms {
            // Storm control: linear ramp from rated to zero.
            let f = 1.0 - (wind_ms - self.storm_start_ms) / (self.cut_out_ms - self.storm_start_ms);
            self.rated_kw * f
        } else {
            let curve = interpolate(E126_CURVE, wind_ms);
            // Density scales aerodynamic power but can never exceed rated.
            (curve * density_factor).min(self.rated_kw)
        };
        base * (1.0 - self.conversion_loss)
    }

    /// Production as a fraction of installed capacity (the paper's β).
    pub fn beta(&self, wind_ms: f64, pressure_kpa: f64, temp_c: f64) -> f64 {
        self.power_kw(wind_ms, pressure_kpa, temp_c) / self.rated_kw
    }
}

/// Piecewise-linear interpolation with zero below and saturation above the
/// table (the region above the last point is rated output).
fn interpolate(curve: &[(f64, f64)], x: f64) -> f64 {
    if x <= curve[0].0 {
        return if x == curve[0].0 { curve[0].1 } else { 0.0 };
    }
    if x >= curve[curve.len() - 1].0 {
        return curve[curve.len() - 1].1;
    }
    let i = curve.partition_point(|&(v, _)| v <= x) - 1;
    let (x0, y0) = curve[i];
    let (x1, y1) = curve[i + 1];
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: f64 = 101.325;
    const T0: f64 = 15.0;

    #[test]
    fn below_cut_in_is_zero() {
        let t = Turbine::default();
        assert_eq!(t.power_kw(0.0, P0, T0), 0.0);
        assert_eq!(t.power_kw(2.9, P0, T0), 0.0);
    }

    #[test]
    fn beyond_cut_out_is_zero() {
        let t = Turbine::default();
        assert_eq!(t.power_kw(34.0, P0, T0), 0.0);
        assert_eq!(t.power_kw(50.0, P0, T0), 0.0);
    }

    #[test]
    fn rated_region_reaches_rated_minus_losses() {
        let t = Turbine::default();
        let p = t.power_kw(20.0, P0, T0);
        assert!((p - 7580.0 * 0.97).abs() < 1.0, "power {p}");
        assert!((t.beta(20.0, P0, T0) - 0.97).abs() < 1e-6);
    }

    #[test]
    fn curve_interpolation_between_points() {
        let t = Turbine::default();
        // Midway between 8 m/s (1900 kW) and 9 m/s (2700 kW) at std density.
        let p = t.power_kw(8.5, P0, T0);
        let rho = Turbine::air_density(P0, T0);
        let expected = 2300.0 * (rho / RHO_0) * 0.97;
        assert!((p - expected).abs() < 1.0, "power {p} expected {expected}");
    }

    #[test]
    fn storm_control_ramps_down() {
        let t = Turbine::default();
        let a = t.beta(28.0, P0, T0);
        let b = t.beta(31.0, P0, T0);
        let c = t.beta(33.9, P0, T0);
        assert!(a > b && b > c, "{a} {b} {c}");
        assert!((a - 0.97).abs() < 1e-6);
        assert!(c < 0.05);
    }

    #[test]
    fn thin_air_reduces_output() {
        let t = Turbine::default();
        // Mexico City altitude ~2240 m → ~78 kPa.
        let sea = t.power_kw(10.0, 101.3, 15.0);
        let alto = t.power_kw(10.0, 78.0, 15.0);
        assert!(alto < sea * 0.85, "sea {sea} alto {alto}");
    }

    #[test]
    fn cold_air_increases_output_sub_rated() {
        let t = Turbine::default();
        let warm = t.power_kw(10.0, P0, 30.0);
        let cold = t.power_kw(10.0, P0, -10.0);
        assert!(cold > warm);
    }

    #[test]
    fn beta_bounded_unit() {
        let t = Turbine::default();
        for v in 0..40 {
            let b = t.beta(v as f64, P0, T0);
            assert!((0.0..=1.0).contains(&b), "beta({v}) = {b}");
        }
    }

    #[test]
    fn monotone_up_to_rated() {
        let t = Turbine::default();
        let mut prev = -1.0;
        for v in 0..=17 {
            let b = t.beta(v as f64, P0, T0);
            assert!(b >= prev, "beta({v})={b} < {prev}");
            prev = b;
        }
    }
}
