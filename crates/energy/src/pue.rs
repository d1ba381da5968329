//! Power Usage Effectiveness as a function of outside temperature.
//!
//! Reproduces the paper's Fig. 4: a free-cooled micro-datacenter (air-side
//! economizer + direct-expansion air conditioner) holds PUE ≈ 1.05 while
//! outside air is cool enough, then the compressor takes over and PUE climbs
//! to ≈ 1.4 at 45 °C. We fit a piecewise-linear curve through the figure's
//! knee points.

/// `(outside °C, PUE)` knots of the paper's Fig. 4 curve.
const FIG4_KNOTS: &[(f64, f64)] = &[
    (15.0, 1.050),
    (20.0, 1.060),
    (25.0, 1.080),
    (30.0, 1.130),
    (35.0, 1.200),
    (40.0, 1.300),
    (45.0, 1.400),
];

/// PUE model (Fig. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PueModel;

impl PueModel {
    /// Creates the Fig. 4 model.
    pub fn new() -> Self {
        Self
    }

    /// PUE at the given outside air temperature.
    ///
    /// Below 15 °C free cooling pins PUE at 1.05; above 45 °C the slope of
    /// the last segment continues, capped at 1.5.
    pub fn pue(&self, outside_c: f64) -> f64 {
        let knots = FIG4_KNOTS;
        if outside_c <= knots[0].0 {
            return knots[0].1;
        }
        let last = knots[knots.len() - 1];
        if outside_c >= last.0 {
            let prev = knots[knots.len() - 2];
            let slope = (last.1 - prev.1) / (last.0 - prev.0);
            return (last.1 + slope * (outside_c - last.0)).min(1.5);
        }
        let i = knots.partition_point(|&(t, _)| t <= outside_c) - 1;
        let (x0, y0) = knots[i];
        let (x1, y1) = knots[i + 1];
        y0 + (y1 - y0) * (outside_c - x0) / (x1 - x0)
    }

    /// Mean PUE over a temperature series.
    pub fn mean_pue(&self, temps_c: &[f64]) -> f64 {
        if temps_c.is_empty() {
            return self.pue(15.0);
        }
        temps_c.iter().map(|&t| self.pue(t)).sum::<f64>() / temps_c.len() as f64
    }

    /// Maximum PUE over a temperature series (the paper's `maxPUE(d)`,
    /// which sizes the datacenter's electrical/cooling plant).
    pub fn max_pue(&self, temps_c: &[f64]) -> f64 {
        temps_c
            .iter()
            .map(|&t| self.pue(t))
            .fold(self.pue(f64::NEG_INFINITY), f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_knee_points() {
        let m = PueModel::new();
        for &(t, p) in FIG4_KNOTS {
            assert!((m.pue(t) - p).abs() < 1e-12, "pue({t})");
        }
    }

    #[test]
    fn free_cooling_floor() {
        let m = PueModel::new();
        assert_eq!(m.pue(-20.0), 1.05);
        assert_eq!(m.pue(0.0), 1.05);
        assert_eq!(m.pue(15.0), 1.05);
    }

    #[test]
    fn extrapolation_is_capped() {
        let m = PueModel::new();
        assert!(m.pue(50.0) <= 1.5);
        assert!(m.pue(100.0) <= 1.5);
        assert!(m.pue(47.0) > 1.4);
    }

    #[test]
    fn monotone_nondecreasing() {
        let m = PueModel::new();
        let mut prev = 0.0;
        for i in -30..60 {
            let p = m.pue(i as f64);
            assert!(p >= prev, "pue({i}) = {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn paper_range_of_average_pues() {
        // The paper reports average PUEs between 1.06 and 1.13 across its
        // locations; synthetic temperate series should land inside.
        let m = PueModel::new();
        let cool: Vec<f64> = (0..8760)
            .map(|h| 5.0 + 10.0 * ((h % 24) as f64 / 24.0))
            .collect();
        let warm: Vec<f64> = (0..8760)
            .map(|h| 18.0 + 12.0 * ((h % 24) as f64 / 24.0))
            .collect();
        let a = m.mean_pue(&cool);
        let b = m.mean_pue(&warm);
        assert!((1.05..1.08).contains(&a), "cool mean {a}");
        assert!(b > a && b < 1.2, "warm mean {b}");
    }

    #[test]
    fn max_pue_tracks_hottest_hour() {
        let m = PueModel::new();
        let temps = [10.0, 22.0, 38.0, 16.0];
        assert!((m.max_pue(&temps) - m.pue(38.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_series_defaults_to_floor() {
        let m = PueModel::new();
        assert_eq!(m.mean_pue(&[]), 1.05);
    }
}
