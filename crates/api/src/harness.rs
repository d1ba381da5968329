//! Shared fixtures for reproduction runs, perfbench, and the timing
//! experiment (kept here so the engine and the harness agree on seeds and
//! worlds).

use crate::spec::SearchSpec;
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;

/// The workspace-wide deterministic seed for reproduction runs.
pub const REPRO_SEED: u64 = 20140701;

/// Builds the standard reproduction world.
pub fn world(locations: usize) -> WorldCatalog {
    WorldCatalog::synthetic(locations.max(8), REPRO_SEED)
}

/// Standard search tuning for reproduction runs (coarse but
/// deterministic); `fast` shrinks the search for smoke tests.
pub fn repro_search(fast: bool) -> SearchSpec {
    SearchSpec {
        profile: if fast {
            ProfileConfig::coarse()
        } else {
            ProfileConfig::default()
        },
        filter_keep: if fast { 7 } else { 14 },
        iterations: if fast { 18 } else { 60 },
        chains: if fast { 2 } else { 4 },
        patience: if fast { 14 } else { 45 },
        seed: REPRO_SEED,
        ..SearchSpec::default()
    }
}

/// One Table III site's hourly energy profile plus its plant/IT sizes:
/// `(profile, solar_mw, wind_mw, capacity_mw)`.
pub type SiteProfile = (greencloud_energy::profile::EnergyProfile, f64, f64, f64);

/// Hourly energy profiles of the Table III network in `catalog`, for the
/// timing experiment and perfbench's `operate` workload. `None` when the
/// catalog lacks one of the anchor sites.
pub fn table3_profiles(catalog: &WorldCatalog) -> Option<Vec<SiteProfile>> {
    let cfg = greencloud_nebula::emulation::EmulationConfig::default();
    cfg.sites
        .iter()
        .map(|site| {
            let loc = catalog.find(&site.location_name)?;
            let tmy = catalog.tmy(loc.id);
            let p = greencloud_energy::profile::EnergyProfile::from_tmy_hourly(
                &tmy,
                &Default::default(),
                &Default::default(),
                &greencloud_energy::pue::PueModel::new(),
            );
            Some((p, site.solar_mw, site.wind_mw, site.capacity_mw))
        })
        .collect()
}

/// The scheduler inputs for one rolling round: a `window`-hour forecast
/// slice starting at absolute hour `t`, with the given current loads.
pub fn rolling_states(
    profiles: &[SiteProfile],
    t: usize,
    window: usize,
    loads: &[f64],
) -> Vec<greencloud_nebula::scheduler::SiteState> {
    profiles
        .iter()
        .enumerate()
        .map(
            |(i, (p, solar, wind, capacity))| greencloud_nebula::scheduler::SiteState {
                green_forecast_mw: (0..window)
                    .map(|k| {
                        let idx = (t + k) % p.len();
                        p.alpha[idx] * solar + p.beta[idx] * wind
                    })
                    .collect(),
                pue_forecast: (0..window).map(|k| p.pue[(t + k) % p.len()]).collect(),
                current_load_mw: loads[i],
                capacity_mw: *capacity,
            },
        )
        .collect()
}
