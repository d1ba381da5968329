//! Per-location precomputation shared by every solver path.

use greencloud_climate::catalog::{Location, LocationId, WorldCatalog};
use greencloud_climate::economics::Economics;
use greencloud_climate::geo::LatLon;
use greencloud_climate::profiles::{ProfileConfig, WeatherProfile};
use greencloud_energy::capacity_factor::CapacityFactors;
use greencloud_energy::profile::EnergyProfile;

/// A candidate location with everything the optimizer needs: economics,
/// slot-level energy coefficients, and annual statistics.
///
/// Building a candidate synthesizes and aggregates the location's TMY year,
/// which costs a few milliseconds; candidates are therefore built once and
/// shared across the thousands of LP evaluations of the heuristic search.
#[derive(Debug, Clone)]
pub struct CandidateSite {
    /// Catalog identity.
    pub id: LocationId,
    /// Human-readable name.
    pub name: String,
    /// Geographic position.
    pub position: LatLon,
    /// Economic attributes.
    pub econ: Economics,
    /// α/β/PUE on the shared representative-day slot clock.
    pub profile: EnergyProfile,
    /// Annual capacity factors and PUE statistics over the full TMY year.
    pub annual: CapacityFactors,
}

impl CandidateSite {
    /// Builds the candidate for `id` using the shared profile configuration.
    pub fn build(catalog: &WorldCatalog, id: LocationId, config: &ProfileConfig) -> Self {
        let loc: &Location = catalog.get(id);
        let tmy = catalog.tmy(id);
        let weather = WeatherProfile::from_tmy(&tmy, config);
        let profile = EnergyProfile::from_weather_default(&weather);
        let annual = CapacityFactors::with_default_models(&tmy);
        CandidateSite {
            id,
            name: loc.name.clone(),
            position: loc.position,
            econ: loc.econ.clone(),
            profile,
            annual,
        }
    }

    /// Builds candidates for every location in the catalog.
    pub fn build_all(catalog: &WorldCatalog, config: &ProfileConfig) -> Vec<Self> {
        catalog
            .iter()
            .map(|l| Self::build(catalog, l.id, config))
            .collect()
    }

    /// Builds candidates for every location, fanned out over `threads`
    /// scoped threads (each candidate synthesizes a full TMY year, so large
    /// catalogs parallelize near-linearly). `threads == 1` or a small
    /// catalog falls back to the serial path; the result is identical
    /// either way (catalog order).
    pub fn build_all_threaded(
        catalog: &WorldCatalog,
        config: &ProfileConfig,
        threads: usize,
    ) -> Vec<Self> {
        let ids: Vec<LocationId> = catalog.iter().map(|l| l.id).collect();
        let threads = threads.max(1);
        if threads == 1 || ids.len() < 8 {
            return Self::build_all(catalog, config);
        }
        let chunk = ids.len().div_ceil(threads);
        let mut slots: Vec<Option<CandidateSite>> = vec![None; ids.len()];
        std::thread::scope(|scope| {
            for (slot_chunk, id_chunk) in slots.chunks_mut(chunk).zip(ids.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, id) in slot_chunk.iter_mut().zip(id_chunk) {
                        *slot = Some(CandidateSite::build(catalog, *id, config));
                    }
                });
            }
        });
        slots.into_iter().map(|c| c.expect("built")).collect()
    }

    /// The max-PUE used to size the electrical/cooling plant.
    pub fn max_pue(&self) -> f64 {
        self.annual.max_pue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_climate::catalog::WorldCatalog;

    #[test]
    fn build_produces_consistent_slots() {
        let w = WorldCatalog::anchors_only(3);
        let cfg = ProfileConfig::coarse();
        let c = CandidateSite::build(&w, LocationId(0), &cfg);
        assert_eq!(c.profile.len(), cfg.num_slots());
        assert!(c.max_pue() >= 1.05);
        assert_eq!(c.name, "Kiev, Ukraine");
    }

    #[test]
    fn build_all_covers_catalog() {
        let w = WorldCatalog::anchors_only(3);
        let all = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        assert_eq!(all.len(), w.len());
        // Shared slot clock: all candidates have identical slot counts and
        // weights.
        for c in &all {
            assert_eq!(c.profile.len(), all[0].profile.len());
            assert_eq!(c.profile.weight_hours, all[0].profile.weight_hours);
        }
    }
}
