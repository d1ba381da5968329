//! The reported siting, provisioning, and cost result.

use crate::anneal::SearchStats;
use crate::candidate::CandidateSite;
use crate::formulation::NetworkDispatch;
use crate::framework::SizeClass;
use greencloud_climate::catalog::LocationId;
use greencloud_climate::geo::LatLon;
use greencloud_cost::breakdown::{CostBreakdown, Provisioning};
use greencloud_cost::params::CostParams;

/// One datacenter in the final solution.
#[derive(Debug, Clone)]
pub struct SitedDatacenter {
    /// The catalog location.
    pub location: LocationId,
    /// Location name.
    pub name: String,
    /// Coordinates.
    pub position: LatLon,
    /// Construction size class.
    pub size_class: SizeClass,
    /// IT compute capacity, MW.
    pub capacity_mw: f64,
    /// Installed solar, MW.
    pub solar_mw: f64,
    /// Installed wind, MW.
    pub wind_mw: f64,
    /// Battery bank, MWh.
    pub batt_mwh: f64,
    /// Itemized monthly cost (Table I components + dispatch energy).
    pub breakdown: CostBreakdown,
    /// Green fraction of this site's own consumption.
    pub green_fraction: f64,
    /// Annual brown energy purchased, MWh.
    pub brown_mwh_yr: f64,
    /// Annual electrical demand, MWh.
    pub demand_mwh_yr: f64,
}

/// A complete siting/provisioning solution for a placement input.
#[derive(Debug, Clone)]
pub struct PlacementSolution {
    /// The sited datacenters.
    pub datacenters: Vec<SitedDatacenter>,
    /// Total monthly cost, $ (the optimization objective).
    pub monthly_cost: f64,
    /// Network-wide component totals.
    pub network_breakdown: CostBreakdown,
    /// Network green-energy fraction achieved.
    pub green_fraction: f64,
    /// Total provisioned compute capacity, MW.
    pub total_capacity_mw: f64,
    /// Number of LP evaluations the search spent.
    pub evaluations: usize,
    /// Cache and warm-start accounting, when the solution came from the
    /// annealing search (`None` for single-LP solves).
    pub search_stats: Option<SearchStats>,
}

impl PlacementSolution {
    /// Assembles the user-facing solution from an LP dispatch.
    pub fn from_dispatch(
        params: &CostParams,
        candidates: &[CandidateSite],
        siting: &[(usize, SizeClass)],
        dispatch: &NetworkDispatch,
        evaluations: usize,
    ) -> Self {
        let mut datacenters = Vec::with_capacity(siting.len());
        let mut network = CostBreakdown::default();
        for (k, &(ci, class)) in siting.iter().enumerate() {
            let site = &candidates[ci];
            let d = &dispatch.sites[k];
            let prov = Provisioning {
                capacity_kw: d.capacity_mw * 1000.0,
                max_pue: site.max_pue(),
                solar_kw: d.solar_mw * 1000.0,
                wind_kw: d.wind_mw * 1000.0,
                batt_kwh: d.batt_mwh * 1000.0,
            };
            let breakdown =
                CostBreakdown::capex(params, &site.econ, &prov).with_energy(d.energy_cost_month);
            network = network.combined(&breakdown);
            datacenters.push(SitedDatacenter {
                location: site.id,
                name: site.name.clone(),
                position: site.position,
                size_class: class,
                capacity_mw: d.capacity_mw,
                solar_mw: d.solar_mw,
                wind_mw: d.wind_mw,
                batt_mwh: d.batt_mwh,
                breakdown,
                green_fraction: if d.demand_mwh_yr > 0.0 {
                    d.green_mwh_yr / d.demand_mwh_yr
                } else {
                    1.0
                },
                brown_mwh_yr: d.brown_mwh_yr,
                demand_mwh_yr: d.demand_mwh_yr,
            });
        }
        PlacementSolution {
            datacenters,
            monthly_cost: dispatch.monthly_cost,
            network_breakdown: network,
            green_fraction: dispatch.green_fraction,
            total_capacity_mw: dispatch.total_capacity_mw,
            evaluations,
            search_stats: None,
        }
    }

    /// Attaches the search's cache/warm-start counters (builder style).
    pub fn with_search_stats(mut self, stats: SearchStats) -> Self {
        self.search_stats = Some(stats);
        self
    }

    /// Renders a short human-readable summary (one line per datacenter).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "total ${:.2}M/month, {:.1}% green, {:.1} MW provisioned, {} datacenter(s)",
            self.monthly_cost / 1e6,
            self.green_fraction * 100.0,
            self.total_capacity_mw,
            self.datacenters.len()
        );
        for dc in &self.datacenters {
            let _ = writeln!(
                out,
                "  {:<28} {:>6.1} MW IT | solar {:>7.1} MW | wind {:>7.1} MW | batt {:>7.1} MWh | ${:.2}M/mo",
                dc.name, dc.capacity_mw, dc.solar_mw, dc.wind_mw, dc.batt_mwh,
                dc.breakdown.total() / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::build_network_lp;
    use crate::framework::{PlacementInput, StorageMode, TechMix};
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;

    #[test]
    fn breakdown_totals_match_lp_objective() {
        // The per-site Table I breakdown recomputed from the sizes must agree
        // with the LP's own objective (they share the same unit costs).
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.5,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        };
        let siting = vec![(3usize, SizeClass::Large), (4usize, SizeClass::Large)];
        let sites: Vec<_> = siting.iter().map(|&(i, c)| (&cands[i], c)).collect();
        let lp = build_network_lp(&CostParams::default(), &input, &sites);
        let dispatch = lp.solve().expect("solvable");
        let sol =
            PlacementSolution::from_dispatch(&CostParams::default(), &cands, &siting, &dispatch, 1);
        let rebuilt = sol.network_breakdown.total();
        let lp_cost = dispatch.monthly_cost;
        assert!(
            (rebuilt - lp_cost).abs() / lp_cost < 0.01,
            "breakdown ${rebuilt:.0} vs LP ${lp_cost:.0}"
        );
        assert_eq!(sol.datacenters.len(), 2);
        assert!(sol.summary().contains("datacenter"));
    }
}
