//! The world location catalog.
//!
//! [`WorldCatalog::synthetic`] reproduces the scale of the paper's dataset:
//! 1373 candidate locations world-wide, each with a climate description and
//! economic attributes. The catalog always contains the paper's named
//! *anchor* locations first — the sites of Table II and Table III — with
//! their published attributes (land price, electricity price, distances)
//! and climates tuned to land near their published capacity factors, so the
//! case studies can find them.

use crate::economics::Economics;
use crate::geo::LatLon;
use crate::weather::{ClimateParams, Tmy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stable identifier of a location inside one catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocationId(pub usize);

impl LocationId {
    /// Zero-based catalog index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A candidate datacenter location.
#[derive(Debug, Clone)]
pub struct Location {
    /// Catalog identifier.
    pub id: LocationId,
    /// Human-readable name ("Nairobi, Kenya" or "Site #0042").
    pub name: String,
    /// Geographic position.
    pub position: LatLon,
    /// Climate description used to synthesize weather.
    pub climate: ClimateParams,
    /// Economic attributes.
    pub econ: Economics,
    /// `true` for the paper's named Table II/III sites.
    pub anchor: bool,
}

/// The set of candidate locations for siting.
#[derive(Debug, Clone)]
pub struct WorldCatalog {
    locations: Vec<Location>,
    seed: u64,
}

/// Number of locations in the paper's dataset (and our default).
pub const PAPER_LOCATION_COUNT: usize = 1373;

impl WorldCatalog {
    /// Builds a synthetic world with `n` locations (anchors included and
    /// counted), deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the number of anchor locations.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let anchors = anchor_specs();
        assert!(
            n >= anchors.len(),
            "catalog needs at least {} locations",
            anchors.len()
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut locations = Vec::with_capacity(n);
        for spec in anchors {
            let id = LocationId(locations.len());
            locations.push(spec.into_location(id));
        }
        while locations.len() < n {
            let id = LocationId(locations.len());
            locations.push(generic_location(&mut rng, id));
        }
        WorldCatalog { locations, seed }
    }

    /// The paper-sized world: [`PAPER_LOCATION_COUNT`] locations.
    pub fn paper_scale(seed: u64) -> Self {
        Self::synthetic(PAPER_LOCATION_COUNT, seed)
    }

    /// A catalog holding only the named anchor locations (fast tests).
    pub fn anchors_only(seed: u64) -> Self {
        Self::synthetic(anchor_specs().len(), seed)
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Iterates over all locations.
    pub fn iter(&self) -> impl Iterator<Item = &Location> {
        self.locations.iter()
    }

    /// Looks a location up by id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this catalog.
    pub fn get(&self, id: LocationId) -> &Location {
        &self.locations[id.index()]
    }

    /// Finds a location by (case-insensitive) name substring.
    pub fn find(&self, name: &str) -> Option<&Location> {
        let needle = name.to_lowercase();
        self.locations
            .iter()
            .find(|l| l.name.to_lowercase().contains(&needle))
    }

    /// Synthesizes the typical meteorological year for a location.
    ///
    /// Deterministic per `(catalog seed, location id)`.
    pub fn tmy(&self, id: LocationId) -> Tmy {
        let loc = self.get(id);
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.index() as u64 + 1);
        Tmy::synthesize(&loc.climate, loc.position, seed)
    }

    /// The catalog seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

struct AnchorSpec {
    name: &'static str,
    lat: f64,
    lon: f64,
    climate: ClimateParams,
    econ: Economics,
}

impl AnchorSpec {
    fn into_location(self, id: LocationId) -> Location {
        Location {
            id,
            name: self.name.to_string(),
            position: LatLon::new(self.lat, self.lon),
            climate: self.climate,
            econ: self.econ,
            anchor: true,
        }
    }
}

fn econ(land: f64, elec_mwh: f64, d_pow: f64, d_net: f64, plant_mw: f64) -> Economics {
    Economics {
        land_usd_per_m2: land,
        elec_usd_per_kwh: elec_mwh / 1000.0,
        dist_power_km: d_pow,
        dist_network_km: d_net,
        near_plant_cap_kw: plant_mw * 1000.0,
    }
}

/// The paper's named locations (Table II and Table III) with published
/// economics and climates tuned toward the published capacity factors.
fn anchor_specs() -> Vec<AnchorSpec> {
    vec![
        AnchorSpec {
            // Table II "Brown" anchor: cheap grid power, close to
            // infrastructure, modest renewables.
            name: "Kiev, Ukraine",
            lat: 50.45,
            lon: 30.52,
            climate: ClimateParams {
                t_mean_c: 8.4,
                t_seasonal_amp_c: 12.5,
                t_diurnal_amp_c: 4.0,
                t_noise_c: 2.2,
                cloud_mean: 0.62,
                cloud_variability: 0.28,
                wind_scale_ms: 4.4,
                wind_shape: 2.0,
                wind_seasonal: 0.20,
                elevation_m: 179.0,
            },
            econ: econ(22.0, 30.0, 22.0, 7.0, 2200.0),
        },
        AnchorSpec {
            // Table II "Solar" anchor, 22.4% solar CF, cheap land.
            name: "Harare, Zimbabwe",
            lat: -17.83,
            lon: 31.05,
            climate: ClimateParams {
                t_mean_c: 18.0,
                t_seasonal_amp_c: 4.5,
                t_diurnal_amp_c: 7.0,
                t_noise_c: 1.8,
                cloud_mean: 0.26,
                cloud_variability: 0.25,
                wind_scale_ms: 3.4,
                wind_shape: 2.1,
                wind_seasonal: 0.08,
                elevation_m: 1490.0,
            },
            econ: econ(14.7, 98.0, 400.0, 390.0, 500.0),
        },
        AnchorSpec {
            // Table II "Solar" anchor, 20.9% solar CF, well connected.
            name: "Nairobi, Kenya",
            lat: -1.29,
            lon: 36.82,
            climate: ClimateParams {
                t_mean_c: 17.6,
                t_seasonal_amp_c: 1.8,
                t_diurnal_amp_c: 6.5,
                t_noise_c: 1.6,
                cloud_mean: 0.36,
                cloud_variability: 0.26,
                wind_scale_ms: 3.9,
                wind_shape: 2.0,
                wind_seasonal: 0.05,
                elevation_m: 1795.0,
            },
            econ: econ(14.7, 70.0, 30.0, 25.0, 500.0),
        },
        AnchorSpec {
            // Table II "Wind" anchor, 55.6% wind CF, cold summit, pricey
            // land, far from the grid.
            name: "Mount Washington, NH, USA",
            lat: 44.27,
            lon: -71.30,
            climate: ClimateParams {
                t_mean_c: -2.5,
                t_seasonal_amp_c: 12.0,
                t_diurnal_amp_c: 3.0,
                t_noise_c: 2.5,
                cloud_mean: 0.58,
                cloud_variability: 0.28,
                wind_scale_ms: 14.2,
                wind_shape: 1.9,
                wind_seasonal: 0.22,
                elevation_m: 1916.0,
            },
            econ: econ(947.0, 126.0, 345.0, 71.0, 1000.0),
        },
        AnchorSpec {
            // Table II "Wind" anchor, 20.9% wind CF, lakefront, backbone
            // 3 km away.
            name: "Burke Lakefront, OH, USA",
            lat: 41.52,
            lon: -81.68,
            climate: ClimateParams {
                t_mean_c: 10.4,
                t_seasonal_amp_c: 12.5,
                t_diurnal_amp_c: 4.5,
                t_noise_c: 2.2,
                cloud_mean: 0.55,
                cloud_variability: 0.28,
                wind_scale_ms: 7.1,
                wind_shape: 2.0,
                wind_seasonal: 0.18,
                elevation_m: 178.0,
            },
            econ: econ(329.0, 58.0, 409.0, 3.0, 1000.0),
        },
        AnchorSpec {
            // Table III site (100% green, no storage).
            name: "Mexico City, Mexico",
            lat: 19.43,
            lon: -99.13,
            climate: ClimateParams {
                t_mean_c: 16.5,
                t_seasonal_amp_c: 3.0,
                t_diurnal_amp_c: 6.0,
                t_noise_c: 1.8,
                cloud_mean: 0.38,
                cloud_variability: 0.26,
                wind_scale_ms: 3.2,
                wind_shape: 2.0,
                wind_seasonal: 0.06,
                elevation_m: 2240.0,
            },
            econ: econ(95.0, 90.0, 45.0, 20.0, 1000.0),
        },
        AnchorSpec {
            // Table III site: tropical Pacific, steady trade winds.
            name: "Andersen, Guam",
            lat: 13.58,
            lon: 144.93,
            climate: ClimateParams {
                t_mean_c: 27.0,
                t_seasonal_amp_c: 1.5,
                t_diurnal_amp_c: 3.5,
                t_noise_c: 1.2,
                cloud_mean: 0.45,
                cloud_variability: 0.26,
                wind_scale_ms: 6.4,
                wind_shape: 2.2,
                wind_seasonal: 0.05,
                elevation_m: 185.0,
            },
            econ: econ(60.0, 120.0, 30.0, 40.0, 250.0),
        },
        AnchorSpec {
            // Fig. 7 case-study companion site (Grissom, Indiana): decent
            // wind, cheap midwest grid power.
            name: "Grissom, IN, USA",
            lat: 40.65,
            lon: -86.15,
            climate: ClimateParams {
                t_mean_c: 10.0,
                t_seasonal_amp_c: 13.0,
                t_diurnal_amp_c: 5.0,
                t_noise_c: 2.2,
                cloud_mean: 0.52,
                cloud_variability: 0.28,
                wind_scale_ms: 6.3,
                wind_shape: 2.0,
                wind_seasonal: 0.18,
                elevation_m: 247.0,
            },
            econ: econ(150.0, 60.0, 100.0, 30.0, 2000.0),
        },
    ]
}

/// Synthesizes a generic (non-anchor) location.
fn generic_location<R: Rng>(rng: &mut R, id: LocationId) -> Location {
    // Latitude concentrated where the paper's dataset is dense (North
    // America, Europe, Asia) but covering the whole habitable range.
    let lat: f64 = if rng.gen_bool(0.7) {
        let base: f64 = rng.gen_range(20.0..60.0);
        if rng.gen_bool(0.85) {
            base
        } else {
            -base
        }
    } else {
        rng.gen_range(-55.0..65.0)
    };
    let lon = rng.gen_range(-180.0..180.0);
    let position = LatLon::new(lat, lon);

    // Mountain/ridge/coastal sites are rarer but windier and cooler.
    let windy_site = rng.gen_bool(0.08);
    let elevation_m: f64 = if windy_site {
        rng.gen_range(300.0..2500.0)
    } else {
        250.0 * -(1.0 - rng.gen_range(0.0..1.0f64)).ln()
    }
    .min(3000.0);

    let t_mean_c = 27.0 - 0.50 * lat.abs() - 6.5 * elevation_m / 1000.0 + rng.gen_range(-2.5..2.5);
    let dryness: f64 = rng.gen_range(0.0..1.0);
    let cloud_mean = (0.18 + 0.5 * (1.0 - dryness) + 0.0025 * lat.abs()).clamp(0.1, 0.85);
    let wind_scale_ms = {
        let base = (4.6f64.ln() + rng.gen_range(-0.4..0.4)).exp() * (1.0 + 0.004 * lat.abs());
        if windy_site {
            base * rng.gen_range(1.6..2.6)
        } else {
            base
        }
    };

    let climate = ClimateParams {
        t_mean_c,
        t_seasonal_amp_c: (2.0 + 0.28 * lat.abs() * rng.gen_range(0.7..1.3)).min(22.0),
        t_diurnal_amp_c: rng.gen_range(3.0..8.0) * (0.6 + 0.6 * dryness),
        t_noise_c: rng.gen_range(1.2..2.8),
        cloud_mean,
        cloud_variability: rng.gen_range(0.20..0.32),
        wind_scale_ms,
        wind_shape: rng.gen_range(1.8..2.3),
        wind_seasonal: rng.gen_range(0.05..0.25),
        elevation_m,
    };

    // Development index: mid-latitudes more developed, correlates with land
    // price and infrastructure proximity. Windy ridge/coastal sites are
    // remote: far from transmission lines and backbones (the paper's best
    // wind site is 345 km from the grid), which is what keeps green
    // networks a net cost rather than free money.
    let development = ((0.75 - (lat.abs() - 40.0).abs() / 60.0) + rng.gen_range(-0.25..0.25))
        .clamp(0.02, 1.0)
        * if windy_site { 0.25 } else { 1.0 };
    let mut econ = Economics::synthesize(rng, development);
    if windy_site {
        econ.dist_power_km = (econ.dist_power_km * rng.gen_range(1.5..3.0)).min(800.0);
        econ.dist_network_km = (econ.dist_network_km * rng.gen_range(1.5..3.0)).min(800.0);
    }

    Location {
        id,
        name: format!("Site #{:04}", id.index()),
        position,
        climate,
        econ,
        anchor: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_has_1373_locations() {
        let w = WorldCatalog::paper_scale(11);
        assert_eq!(w.len(), PAPER_LOCATION_COUNT);
        assert!(!w.is_empty());
    }

    #[test]
    fn anchors_come_first_and_are_findable() {
        let w = WorldCatalog::synthetic(50, 3);
        assert!(w.get(LocationId(0)).anchor);
        for name in [
            "Kiev",
            "Harare",
            "Nairobi",
            "Mount Washington",
            "Burke",
            "Mexico City",
            "Guam",
            "Grissom",
        ] {
            assert!(w.find(name).is_some(), "missing anchor {name}");
        }
        assert!(w.find("Atlantis").is_none());
    }

    #[test]
    fn deterministic_catalogs() {
        let a = WorldCatalog::synthetic(100, 5);
        let b = WorldCatalog::synthetic(100, 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.econ, y.econ);
        }
        let c = WorldCatalog::synthetic(100, 6);
        let moved = a
            .iter()
            .zip(c.iter())
            .filter(|(x, y)| x.position != y.position)
            .count();
        assert!(moved > 50, "different seeds should move generic sites");
    }

    #[test]
    fn tmy_is_deterministic_per_location() {
        let w = WorldCatalog::anchors_only(9);
        let t1 = w.tmy(LocationId(1));
        let t2 = w.tmy(LocationId(1));
        assert_eq!(t1.temp_c, t2.temp_c);
        let t3 = w.tmy(LocationId(2));
        assert_ne!(t1.temp_c, t3.temp_c);
    }

    #[test]
    fn mount_washington_is_cold_and_windy() {
        let w = WorldCatalog::anchors_only(4);
        let mw = w.find("Mount Washington").unwrap();
        let tmy = w.tmy(mw.id);
        assert!(tmy.mean_temp_c() < 3.0, "mean temp {}", tmy.mean_temp_c());
        assert!(
            tmy.mean_wind_ms() > 10.0,
            "mean wind {}",
            tmy.mean_wind_ms()
        );
    }

    #[test]
    fn harare_is_sunny() {
        let w = WorldCatalog::anchors_only(4);
        let h = w.find("Harare").unwrap();
        let tmy = w.tmy(h.id);
        assert!(
            tmy.mean_ghi_wm2() > 220.0,
            "mean ghi {}",
            tmy.mean_ghi_wm2()
        );
    }

    #[test]
    fn generic_sites_have_plausible_climates() {
        let w = WorldCatalog::synthetic(300, 8);
        for loc in w.iter().filter(|l| !l.anchor) {
            let c = &loc.climate;
            assert!(c.t_mean_c > -30.0 && c.t_mean_c < 40.0, "{}", loc.name);
            assert!(c.wind_scale_ms > 1.0 && c.wind_scale_ms < 30.0);
            assert!((0.05..=0.9).contains(&c.cloud_mean));
        }
    }

    #[test]
    #[should_panic(expected = "catalog needs at least")]
    fn too_small_catalog_panics() {
        WorldCatalog::synthetic(2, 0);
    }
}
