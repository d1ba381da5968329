//! Per-location economic attributes.
//!
//! The paper gathers land prices from real-estate portals, grid prices from
//! government portals, and distances to the nearest ≥100 MW power plant and
//! IPv6 backbone point from public maps. This module synthesizes the same
//! attributes with matching ranges (land $5–$1000/m², electricity averaging
//! ~$90/MWh, line distances up to a few hundred km).

use rand::Rng;

/// Economic attributes of a candidate location.
#[derive(Debug, Clone, PartialEq)]
pub struct Economics {
    /// Industrial land price, $/m².
    pub land_usd_per_m2: f64,
    /// Grid ("brown") electricity price, $/kWh.
    pub elec_usd_per_kwh: f64,
    /// Distance to the nearest transmission line / brown power plant, km.
    pub dist_power_km: f64,
    /// Distance to the nearest network backbone connection point, km.
    pub dist_network_km: f64,
    /// Capacity of the nearest brown power plant, kW.
    pub near_plant_cap_kw: f64,
}

impl Economics {
    /// Synthesizes economics for a generic location.
    ///
    /// `development` in `[0, 1]` raises land price and plant/backbone
    /// proximity (developed areas are expensive but well connected).
    pub fn synthesize<R: Rng>(rng: &mut R, development: f64) -> Self {
        let d = development.clamp(0.0, 1.0);
        // Land: log-scale from ~$8 (rural) to ~$900+ (metro).
        let land = (8.0f64.ln() + 3.4 * d + rng.gen_range(-0.5..0.5)).exp();
        // Electricity: $30–$250 per MWh, mean near $90.
        let elec_mwh = 30.0 + 120.0 * rng.gen_range(0.0..1.0f64).powf(1.6) + 30.0 * d;
        // Developed regions are closer to grid and backbone.
        let reach = 1.0 - 0.75 * d;
        let dist_power = (1.0 + sample_exp(rng, 140.0) * reach).min(800.0);
        let dist_network = (1.0 + sample_exp(rng, 90.0) * reach).min(800.0);
        let plant_mw = [100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0];
        let near_plant_cap_kw = plant_mw[rng.gen_range(0..plant_mw.len())] * 1000.0;
        Economics {
            land_usd_per_m2: land,
            elec_usd_per_kwh: elec_mwh / 1000.0,
            dist_power_km: dist_power,
            dist_network_km: dist_network,
            near_plant_cap_kw,
        }
    }
}

fn sample_exp<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ranges_are_sane() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for i in 0..500 {
            let d = (i % 11) as f64 / 10.0;
            let e = Economics::synthesize(&mut rng, d);
            assert!(e.land_usd_per_m2 > 3.0 && e.land_usd_per_m2 < 1500.0);
            assert!(e.elec_usd_per_kwh >= 0.03 && e.elec_usd_per_kwh <= 0.25);
            assert!(e.dist_power_km >= 1.0 && e.dist_power_km <= 800.0);
            assert!(e.dist_network_km >= 1.0 && e.dist_network_km <= 800.0);
            assert!(e.near_plant_cap_kw >= 100_000.0);
        }
    }

    #[test]
    fn development_raises_land_price() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let rural: f64 = (0..200)
            .map(|_| Economics::synthesize(&mut rng, 0.1).land_usd_per_m2)
            .sum::<f64>()
            / 200.0;
        let metro: f64 = (0..200)
            .map(|_| Economics::synthesize(&mut rng, 0.9).land_usd_per_m2)
            .sum::<f64>()
            / 200.0;
        assert!(metro > rural * 4.0, "metro {metro} rural {rural}");
    }

    #[test]
    fn mean_electricity_near_90_per_mwh() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mean: f64 = (0..2000)
            .map(|i| Economics::synthesize(&mut rng, (i % 10) as f64 / 10.0).elec_usd_per_kwh)
            .sum::<f64>()
            / 2000.0;
        assert!((0.07..0.11).contains(&mean), "mean {mean}");
    }
}
