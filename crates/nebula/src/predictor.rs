//! Green-energy prediction over the scheduler's 48-hour window.
//!
//! The paper's scheduler predicts production 48 hours ahead using the
//! methods of GreenSlot/GreenHadoop and reports that "this production can
//! be predicted with high accuracy"; its validation assumes perfect
//! prediction. We provide both a perfect oracle over the hourly profile
//! and a noisy variant for sensitivity experiments.

use greencloud_energy::profile::EnergyProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Prediction quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictionMode {
    /// Exact future values (the paper's validation setting).
    Perfect,
    /// Multiplicative Gaussian noise with the given relative std-dev,
    /// growing with lead time (hour h gets `σ·(1 + h/24)`).
    Noisy {
        /// Relative standard deviation at lead time zero.
        sigma: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// Predicts per-hour green production fractions (α, β) for a site.
#[derive(Debug, Clone)]
pub struct GreenPredictor {
    mode: PredictionMode,
}

impl GreenPredictor {
    /// Creates a predictor.
    pub fn new(mode: PredictionMode) -> Self {
        Self { mode }
    }

    /// A perfect-oracle predictor.
    pub fn perfect() -> Self {
        Self::new(PredictionMode::Perfect)
    }

    /// Predicted `(alpha, beta)` series for `window` hours starting at
    /// absolute hour `start` (wraps around the profile year).
    pub fn forecast(
        &self,
        profile: &EnergyProfile,
        start: usize,
        window: usize,
    ) -> Vec<(f64, f64)> {
        let n = profile.len();
        assert!(n > 0, "empty profile");
        let mut out = Vec::with_capacity(window);
        match self.mode {
            PredictionMode::Perfect => {
                for h in 0..window {
                    let idx = (start + h) % n;
                    out.push((profile.alpha[idx], profile.beta[idx]));
                }
            }
            PredictionMode::Noisy { sigma, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ start as u64);
                for h in 0..window {
                    let idx = (start + h) % n;
                    let s = sigma * (1.0 + h as f64 / 24.0);
                    let mut f = |v: f64| {
                        if v <= 0.0 {
                            0.0
                        } else {
                            (v * (1.0 + s * gauss(&mut rng))).clamp(0.0, 1.1)
                        }
                    };
                    let a = f(profile.alpha[idx]);
                    let b = f(profile.beta[idx]);
                    out.push((a, b));
                }
            }
        }
        out
    }
}

fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::LocationId;
    use greencloud_energy::pue::PueModel;
    use greencloud_energy::pv::PvModel;
    use greencloud_energy::windturbine::Turbine;

    fn profile() -> EnergyProfile {
        let w = WorldCatalog::anchors_only(8);
        let tmy = w.tmy(LocationId(1)); // Harare
        EnergyProfile::from_tmy_hourly(
            &tmy,
            &PvModel::default(),
            &Turbine::default(),
            &PueModel::new(),
        )
    }

    #[test]
    fn perfect_matches_profile() {
        let p = profile();
        let f = GreenPredictor::perfect().forecast(&p, 100, 48);
        assert_eq!(f.len(), 48);
        for (h, &(alpha, beta)) in f.iter().enumerate() {
            assert_eq!(alpha, p.alpha[100 + h]);
            assert_eq!(beta, p.beta[100 + h]);
        }
    }

    #[test]
    fn forecast_wraps_around_the_year() {
        let p = profile();
        let n = p.len();
        let f = GreenPredictor::perfect().forecast(&p, n - 2, 5);
        assert_eq!(f[0].0, p.alpha[n - 2]);
        assert_eq!(f[2].0, p.alpha[0]);
    }

    #[test]
    fn noise_preserves_night_zeros_and_bounds() {
        let p = profile();
        let f = GreenPredictor::new(PredictionMode::Noisy {
            sigma: 0.3,
            seed: 9,
        })
        .forecast(&p, 48, 48);
        for (h, &(a, b)) in f.iter().enumerate() {
            let idx = 48 + h;
            if p.alpha[idx] == 0.0 {
                assert_eq!(a, 0.0, "night stays dark under noise");
            }
            assert!((0.0..=1.1).contains(&a));
            assert!((0.0..=1.1).contains(&b));
        }
    }

    #[test]
    fn noisy_forecast_is_deterministic_per_seed() {
        let p = profile();
        let m = PredictionMode::Noisy {
            sigma: 0.2,
            seed: 4,
        };
        let a = GreenPredictor::new(m).forecast(&p, 10, 24);
        let b = GreenPredictor::new(m).forecast(&p, 10, 24);
        assert_eq!(a, b);
    }
}
