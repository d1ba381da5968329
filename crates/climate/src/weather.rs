//! Stochastic synthesis of a Typical Meteorological Year.
//!
//! A [`Tmy`] is one year of hourly weather — temperature, global horizontal
//! irradiance, wind speed, and air pressure — generated deterministically
//! from a seed and a set of [`ClimateParams`]. The processes mirror the
//! structure real TMY data exhibits:
//!
//! * temperature = seasonal cycle (hemisphere-aware) + diurnal cycle
//!   (peaking mid-afternoon solar time) + AR(1) noise;
//! * irradiance = Haurwitz clear-sky modulated by an AR(1) cloud process
//!   through the Kasten–Czeplak attenuation;
//! * wind = Weibull marginal with AR(1) temporal correlation (multi-day
//!   lulls and storms) and a winter-peaking seasonal factor;
//! * pressure = barometric formula at the site elevation.
//!
//! All series are indexed by **UTC hour of the year**, so different
//! locations in one simulation share a clock; local solar time is derived
//! from longitude internally.

use crate::geo::LatLon;
use crate::solar;
use crate::HOURS_PER_YEAR;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Climate description of a location, the input to TMY synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimateParams {
    /// Annual mean temperature, °C.
    pub t_mean_c: f64,
    /// Half peak-to-trough seasonal temperature swing, °C.
    pub t_seasonal_amp_c: f64,
    /// Half peak-to-trough diurnal temperature swing, °C.
    pub t_diurnal_amp_c: f64,
    /// Standard deviation of the AR(1) temperature noise, °C.
    pub t_noise_c: f64,
    /// Mean cloud fraction (0 = always clear, 1 = overcast).
    pub cloud_mean: f64,
    /// Amplitude of cloud fluctuation around the mean (0..~0.5).
    pub cloud_variability: f64,
    /// Weibull scale of hourly wind speed, m/s.
    pub wind_scale_ms: f64,
    /// Weibull shape of hourly wind speed (≈2 for most sites).
    pub wind_shape: f64,
    /// Relative winter-over-summer wind strengthening (0..~0.4).
    pub wind_seasonal: f64,
    /// Site elevation above sea level, metres.
    pub elevation_m: f64,
}

impl Default for ClimateParams {
    fn default() -> Self {
        Self {
            t_mean_c: 12.0,
            t_seasonal_amp_c: 9.0,
            t_diurnal_amp_c: 4.5,
            t_noise_c: 2.0,
            cloud_mean: 0.45,
            cloud_variability: 0.30,
            wind_scale_ms: 5.5,
            wind_shape: 2.0,
            wind_seasonal: 0.15,
            elevation_m: 120.0,
        }
    }
}

/// One synthetic Typical Meteorological Year of hourly data (UTC-indexed).
#[derive(Debug, Clone)]
pub struct Tmy {
    /// Dry-bulb temperature, °C.
    pub temp_c: Vec<f64>,
    /// Global horizontal irradiance, W/m².
    pub ghi_wm2: Vec<f64>,
    /// Wind speed at hub height, m/s.
    pub wind_ms: Vec<f64>,
    /// Station air pressure, kPa.
    pub pressure_kpa: Vec<f64>,
}

/// Hourly AR(1) persistence of the temperature noise.
const TEMP_RHO: f64 = 0.95;
/// Hourly AR(1) persistence of the cloud process.
const CLOUD_RHO: f64 = 0.93;
/// Hourly AR(1) persistence of wind (lulls last days).
const WIND_RHO: f64 = 0.985;
/// Day of year of peak warmth in the northern hemisphere.
const NORTH_PEAK_DOY: f64 = 197.0;

impl Tmy {
    /// Synthesizes a year of weather for a site.
    ///
    /// Deterministic: the same `(params, position, seed)` triple always
    /// produces the same year.
    pub fn synthesize(params: &ClimateParams, position: LatLon, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = HOURS_PER_YEAR;
        let mut temp_c = Vec::with_capacity(n);
        let mut ghi_wm2 = Vec::with_capacity(n);
        let mut wind_ms = Vec::with_capacity(n);
        let mut pressure_kpa = Vec::with_capacity(n);

        let solar_offset = position.solar_offset_hours();
        let peak_doy = if position.is_southern() {
            (NORTH_PEAK_DOY + 182.5) % 365.0
        } else {
            NORTH_PEAK_DOY
        };

        // AR(1) states (stationary start).
        let mut z_temp = rng.gen_range(-1.0..1.0);
        let mut z_cloud = rng.gen_range(-1.0..1.0);
        let mut z_wind = rng.gen_range(-1.0..1.0);
        let t_innov = (1.0 - TEMP_RHO * TEMP_RHO).sqrt();
        let c_innov = (1.0 - CLOUD_RHO * CLOUD_RHO).sqrt();
        let w_innov = (1.0 - WIND_RHO * WIND_RHO).sqrt();

        let base_pressure = 101.325 * (1.0 - 2.25577e-5 * params.elevation_m).powf(5.25588);

        for h in 0..n {
            let tt = h as f64 + solar_offset;
            let doy = (tt / 24.0).rem_euclid(365.0) + 1.0;
            let solar_h = tt.rem_euclid(24.0);

            z_temp = TEMP_RHO * z_temp + t_innov * gauss(&mut rng);
            z_cloud = CLOUD_RHO * z_cloud + c_innov * gauss(&mut rng);
            z_wind = WIND_RHO * z_wind + w_innov * gauss(&mut rng);

            // Temperature.
            let seasonal =
                params.t_seasonal_amp_c * (std::f64::consts::TAU * (doy - peak_doy) / 365.0).cos();
            let diurnal =
                params.t_diurnal_amp_c * (std::f64::consts::TAU * (solar_h - 14.5) / 24.0).cos();
            temp_c.push(params.t_mean_c + seasonal + diurnal + params.t_noise_c * z_temp);

            // Irradiance.
            let cloud = (params.cloud_mean + params.cloud_variability * z_cloud).clamp(0.0, 1.0);
            let cz = solar::cos_zenith(position.lat, doy, solar_h);
            ghi_wm2.push(solar::clear_sky_ghi(cz) * solar::cloud_attenuation(cloud));

            // Wind: Gaussian AR state → uniform → Weibull quantile, with a
            // winter-peaking seasonal factor.
            let u = phi_approx(z_wind).clamp(1e-9, 1.0 - 1e-9);
            let weibull = params.wind_scale_ms * (-(1.0 - u).ln()).powf(1.0 / params.wind_shape);
            let winter = -(std::f64::consts::TAU * (doy - peak_doy) / 365.0).cos();
            wind_ms.push((weibull * (1.0 + params.wind_seasonal * winter)).max(0.0));

            pressure_kpa.push(base_pressure + 0.2 * z_temp);
        }

        Tmy {
            temp_c,
            ghi_wm2,
            wind_ms,
            pressure_kpa,
        }
    }

    /// Number of hours in the year.
    pub fn len(&self) -> usize {
        self.temp_c.len()
    }

    /// `true` when the series is empty (never for synthesized years).
    pub fn is_empty(&self) -> bool {
        self.temp_c.is_empty()
    }

    /// Annual mean temperature, °C.
    pub fn mean_temp_c(&self) -> f64 {
        mean(&self.temp_c)
    }

    /// Annual mean global horizontal irradiance, W/m².
    pub fn mean_ghi_wm2(&self) -> f64 {
        mean(&self.ghi_wm2)
    }

    /// Annual mean wind speed, m/s.
    pub fn mean_wind_ms(&self) -> f64 {
        mean(&self.wind_ms)
    }

    /// Mean of `series` over calendar day `day` (0-based, UTC).
    pub fn daily_mean(series: &[f64], day: usize) -> f64 {
        let lo = day * 24;
        let hi = (lo + 24).min(series.len());
        mean(&series[lo..hi])
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Standard normal sample via Box–Muller.
fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Logistic approximation of the standard normal CDF (max error ~0.01).
fn phi_approx(x: f64) -> f64 {
    1.0 / (1.0 + (-1.702 * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Tmy {
        Tmy::synthesize(&ClimateParams::default(), LatLon::new(45.0, 10.0), seed)
    }

    #[test]
    fn deterministic_by_seed() {
        let a = sample(7);
        let b = sample(7);
        assert_eq!(a.temp_c, b.temp_c);
        assert_eq!(a.wind_ms, b.wind_ms);
        let c = sample(8);
        assert_ne!(a.temp_c, c.temp_c);
    }

    #[test]
    fn full_year_of_hours() {
        let t = sample(1);
        assert_eq!(t.len(), HOURS_PER_YEAR);
        assert!(!t.is_empty());
    }

    #[test]
    fn physical_bounds() {
        let t = sample(2);
        for h in 0..t.len() {
            assert!(t.ghi_wm2[h] >= 0.0 && t.ghi_wm2[h] < 1100.0, "ghi {h}");
            assert!(t.wind_ms[h] >= 0.0 && t.wind_ms[h] < 80.0, "wind {h}");
            assert!(t.temp_c[h] > -60.0 && t.temp_c[h] < 60.0, "temp {h}");
            assert!(t.pressure_kpa[h] > 50.0 && t.pressure_kpa[h] < 110.0);
        }
    }

    #[test]
    fn night_is_dark() {
        let t = sample(3);
        // At lon 10°E, UTC midnight ≈ 00:40 solar: always dark at lat 45.
        for day in 0..365 {
            assert_eq!(t.ghi_wm2[day * 24], 0.0, "day {day}");
        }
    }

    #[test]
    fn northern_summer_is_warmer() {
        let t = sample(4);
        let january = Tmy::daily_mean(&t.temp_c, 10);
        let july: f64 = (185..195)
            .map(|d| Tmy::daily_mean(&t.temp_c, d))
            .sum::<f64>()
            / 10.0;
        assert!(july > january + 5.0, "july {july} january {january}");
    }

    #[test]
    fn southern_seasons_flip() {
        let p = ClimateParams::default();
        let t = Tmy::synthesize(&p, LatLon::new(-35.0, 150.0), 5);
        let january = Tmy::daily_mean(&t.temp_c, 10);
        let july: f64 = (185..195)
            .map(|d| Tmy::daily_mean(&t.temp_c, d))
            .sum::<f64>()
            / 10.0;
        assert!(january > july + 5.0, "january {january} july {july}");
    }

    #[test]
    fn wind_mean_tracks_weibull_scale() {
        // Weibull(k=2) mean = scale·Γ(1.5) ≈ 0.886·scale.
        let mut p = ClimateParams {
            wind_seasonal: 0.0,
            ..ClimateParams::default()
        };
        p.wind_scale_ms = 8.0;
        let t = Tmy::synthesize(&p, LatLon::new(45.0, 10.0), 6);
        let m = t.mean_wind_ms();
        assert!((m - 0.886 * 8.0).abs() < 0.6, "mean wind {m}");
    }

    #[test]
    fn wind_is_autocorrelated() {
        let t = sample(7);
        // Lag-1 autocorrelation of hourly wind should be clearly positive.
        let w = &t.wind_ms;
        let m = t.mean_wind_ms();
        let var: f64 = w.iter().map(|x| (x - m).powi(2)).sum();
        let cov: f64 = w.windows(2).map(|p| (p[0] - m) * (p[1] - m)).sum();
        let rho = cov / var;
        assert!(rho > 0.8, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn cloudier_params_reduce_irradiance() {
        let clear = ClimateParams {
            cloud_mean: 0.1,
            ..ClimateParams::default()
        };
        let cloudy = ClimateParams {
            cloud_mean: 0.8,
            ..ClimateParams::default()
        };
        let pos = LatLon::new(40.0, 0.0);
        let a = Tmy::synthesize(&clear, pos, 8).mean_ghi_wm2();
        let b = Tmy::synthesize(&cloudy, pos, 8).mean_ghi_wm2();
        assert!(a > b * 1.3, "clear {a} cloudy {b}");
    }

    #[test]
    fn elevation_lowers_pressure() {
        let low = ClimateParams {
            elevation_m: 0.0,
            ..ClimateParams::default()
        };
        let high = ClimateParams {
            elevation_m: 1900.0,
            ..ClimateParams::default()
        };
        let pos = LatLon::new(19.4, -99.1);
        let a = Tmy::synthesize(&low, pos, 9);
        let b = Tmy::synthesize(&high, pos, 9);
        assert!(mean(&a.pressure_kpa) - mean(&b.pressure_kpa) > 15.0);
    }
}
