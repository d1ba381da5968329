//! The structured result of every experiment, with a stable JSON schema.
//!
//! A [`Report`] is what [`crate::Engine::run`] returns: typed
//! per-experiment results plus uniform solver rollups
//! ([`SolverRollup`], distilled from `SolveStats`/`SearchStats`/
//! `RollingStats`). [`Report::to_json_string`] serializes it under the
//! versioned [`REPORT_SCHEMA`]; the byte layout is pinned by a golden-file
//! test, so downstream consumers (dashboards, cross-PR diffing) can rely on
//! it. Wall-clock fields (`wall_ms`, `pricing_ms`, per-record timings) are
//! the only non-deterministic content; [`Report::normalized`] zeroes them
//! so two runs of the same spec compare equal.

use crate::json::Json;
use greencloud_core::anneal::SearchStats;
use greencloud_core::candidate::CandidateSite;
use greencloud_core::formulation::NetworkDispatch;
use greencloud_core::framework::SizeClass;
use greencloud_cost::breakdown::{CostBreakdown, Provisioning};
use greencloud_cost::params::CostParams;
use greencloud_nebula::emulation::{EmulationReport, TraceRow};
use greencloud_nebula::faults::ResilienceReport;
use greencloud_nebula::scheduler::RollingStats;
use greencloud_nebula::sweep::ScenarioResult;

/// Schema identifier written to serialized reports.
pub const REPORT_SCHEMA: &str = "greencloud-report/1";

/// Schema identifier of the embedded resilience body (present on annual
/// reports whose spec injected faults).
pub const RESILIENCE_SCHEMA: &str = "greencloud-resilience/1";

/// The result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The experiment kind tag (matches [`crate::ExperimentSpec::kind`]).
    pub experiment: String,
    /// End-to-end wall time of the run, milliseconds (non-deterministic;
    /// zeroed by [`Report::normalized`]).
    pub wall_ms: f64,
    /// The experiment-specific payload.
    pub body: ReportBody,
}

/// Experiment-specific report payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportBody {
    /// Heuristic or exact siting result.
    Siting(SitingReport),
    /// Operational emulation result.
    Annual(AnnualReport),
    /// Scenario sweep result.
    Sweep(SweepReport),
    /// Timing measurements.
    Timing(TimingReport),
}

/// Uniform LP-solver accounting: one shape regardless of whether the
/// numbers came from the siting search (`SearchStats`), the rolling
/// scheduler (`RollingStats`), or a single solve (`SolveStats`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverRollup {
    /// LP solves performed (search evaluations / scheduler rounds).
    pub solves: usize,
    /// Simplex iterations across all solves.
    pub iterations: usize,
    /// Basis refactorizations.
    pub refactorizations: usize,
    /// FTRAN solves.
    pub ftrans: usize,
    /// BTRAN solves.
    pub btrans: usize,
    /// Warm-start success rate, in `[0, 1]`.
    pub warm_rate: f64,
    /// Wall time of pricing and the pivot-row work around it
    /// ([`greencloud_lp::SolveStats::pricing_ns`]), milliseconds (zeroed by
    /// [`Report::normalized`]).
    pub pricing_ms: f64,
}

impl From<&SearchStats> for SolverRollup {
    fn from(s: &SearchStats) -> Self {
        Self {
            solves: s.evaluations,
            iterations: s.simplex_iterations,
            refactorizations: s.refactorizations,
            ftrans: s.ftrans,
            btrans: s.btrans,
            warm_rate: s.warm_rate(),
            pricing_ms: s.pricing_ms(),
        }
    }
}

impl From<&RollingStats> for SolverRollup {
    fn from(s: &RollingStats) -> Self {
        Self {
            solves: s.rounds,
            iterations: s.iterations,
            refactorizations: s.refactorizations,
            ftrans: s.ftrans,
            btrans: s.btrans,
            warm_rate: s.warm_rate(),
            pricing_ms: s.pricing_ms(),
        }
    }
}

/// One sited datacenter with its itemized monthly cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReport {
    /// Location name.
    pub name: String,
    /// `"small"` or `"large"`.
    pub size_class: String,
    /// IT compute capacity, MW.
    pub capacity_mw: f64,
    /// Installed solar, MW.
    pub solar_mw: f64,
    /// Installed wind, MW.
    pub wind_mw: f64,
    /// Battery bank, MWh.
    pub batt_mwh: f64,
    /// Site monthly cost, USD.
    pub monthly_cost_usd: f64,
    /// Green fraction of the site's own consumption.
    pub green_fraction: f64,
    /// Itemized monthly cost components, USD (Table I order).
    pub breakdown: BreakdownReport,
}

/// The Table I cost components of one site, USD/month.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BreakdownReport {
    /// Datacenter construction.
    pub building_dc: f64,
    /// Servers and switches.
    pub it_equipment: f64,
    /// Land financing.
    pub land: f64,
    /// Solar + wind plant construction.
    pub plants: f64,
    /// Battery banks.
    pub batteries: f64,
    /// Power/network line layout.
    pub connections: f64,
    /// External bandwidth.
    pub bandwidth: f64,
    /// Net grid energy after settlement.
    pub energy: f64,
}

/// Result of a siting experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SitingReport {
    /// Total monthly cost, USD (the optimization objective).
    pub monthly_cost_usd: f64,
    /// Network green-energy fraction achieved.
    pub green_fraction: f64,
    /// Total provisioned compute capacity, MW.
    pub total_capacity_mw: f64,
    /// LP evaluations the search spent (0 for the exact path).
    pub evaluations: usize,
    /// The sited datacenters.
    pub sites: Vec<SiteReport>,
    /// Search solver rollup (absent for single-LP/exact solves).
    pub solver: Option<SolverRollup>,
}

impl SitingReport {
    /// Reports the LP optimum `dispatch` of `siting` (catalog indices into
    /// `candidates`, in the LP's site order). Each site's Table I breakdown
    /// is recomputed from its sizes; `stats` is the annealing search's
    /// accounting, absent on the exact path.
    pub(crate) fn from_dispatch(
        params: &CostParams,
        candidates: &[CandidateSite],
        siting: &[(usize, SizeClass)],
        dispatch: &NetworkDispatch,
        stats: Option<&SearchStats>,
    ) -> Self {
        let sites = siting
            .iter()
            .zip(&dispatch.sites)
            .map(|(&(ci, class), d)| {
                let site = &candidates[ci];
                let prov = Provisioning {
                    capacity_kw: d.capacity_mw * 1000.0,
                    max_pue: site.max_pue(),
                    solar_kw: d.solar_mw * 1000.0,
                    wind_kw: d.wind_mw * 1000.0,
                    batt_kwh: d.batt_mwh * 1000.0,
                };
                let b = CostBreakdown::capex(params, &site.econ, &prov)
                    .with_energy(d.energy_cost_month);
                SiteReport {
                    name: site.name.clone(),
                    size_class: match class {
                        SizeClass::Small => "small".to_string(),
                        SizeClass::Large => "large".to_string(),
                    },
                    capacity_mw: d.capacity_mw,
                    solar_mw: d.solar_mw,
                    wind_mw: d.wind_mw,
                    batt_mwh: d.batt_mwh,
                    monthly_cost_usd: b.total(),
                    green_fraction: if d.demand_mwh_yr > 0.0 {
                        d.green_mwh_yr / d.demand_mwh_yr
                    } else {
                        1.0
                    },
                    breakdown: BreakdownReport {
                        building_dc: b.building_dc,
                        it_equipment: b.it_equipment,
                        land: b.land,
                        plants: b.building_solar + b.building_wind,
                        batteries: b.batteries,
                        connections: b.connections,
                        bandwidth: b.bandwidth,
                        energy: b.energy,
                    },
                }
            })
            .collect();
        Self {
            monthly_cost_usd: dispatch.monthly_cost,
            green_fraction: dispatch.green_fraction,
            total_capacity_mw: dispatch.total_capacity_mw,
            evaluations: stats.map_or(0, |s| s.evaluations),
            sites,
            solver: stats.map(SolverRollup::from),
        }
    }
}

/// One datacenter-hour of the optional emulation trace (mirror of
/// [`TraceRow`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRowReport {
    /// Hour since the start of the run.
    pub hour: usize,
    /// Site index.
    pub dc: usize,
    /// Green power available, MW.
    pub green_available_mw: f64,
    /// IT load hosted, MW.
    pub load_mw: f64,
    /// Cooling/power overhead, MW.
    pub pue_overhead_mw: f64,
    /// Migration energy overhead, MW.
    pub migration_mw: f64,
    /// Brown power drawn, MW.
    pub brown_mw: f64,
}

impl From<&TraceRow> for TraceRowReport {
    fn from(r: &TraceRow) -> Self {
        Self {
            hour: r.hour,
            dc: r.dc,
            green_available_mw: r.green_available_mw,
            load_mw: r.load_mw,
            pue_overhead_mw: r.pue_overhead_mw,
            migration_mw: r.migration_mw,
            brown_mw: r.brown_mw,
        }
    }
}

/// Result of an operational emulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnualReport {
    /// Hours emulated.
    pub hours: usize,
    /// Datacenter-hour rows produced (hours × sites).
    pub trace_rows: usize,
    /// Fraction of demand served green.
    pub green_fraction: f64,
    /// Total brown energy, MWh.
    pub brown_mwh: f64,
    /// Total demand, MWh.
    pub demand_mwh: f64,
    /// VM migrations executed.
    pub migrations: usize,
    /// Total migration payload shipped, GB.
    pub migrated_gb: f64,
    /// Mean live-migration duration, hours.
    pub mean_migration_hours: f64,
    /// Peak concurrently in-flight migrations.
    pub peak_inflight_migrations: usize,
    /// GDFS blocks re-replicated in the background.
    pub rereplicated_blocks: usize,
    /// Green energy consumed charging batteries, MWh.
    pub battery_in_mwh: f64,
    /// Battery energy delivered to loads, MWh.
    pub battery_out_mwh: f64,
    /// Green energy pushed into net-metering banks, MWh.
    pub net_pushed_mwh: f64,
    /// Banked energy drawn back, MWh.
    pub net_drawn_mwh: f64,
    /// Annual grid true-up, USD.
    pub energy_settlement_usd: f64,
    /// Persistent-model rebuilds (1 = the model lived the whole run).
    pub rebuilds: usize,
    /// Rolling-scheduler solver rollup.
    pub solver: SolverRollup,
    /// Resilience accounting under [`RESILIENCE_SCHEMA`], present iff the
    /// spec injected faults (deterministic — not zeroed by
    /// [`Report::normalized`]). Boxed: the body is large and usually
    /// absent, and it should not bloat every [`ReportBody`].
    pub resilience: Option<Box<ResilienceReport>>,
    /// The per-datacenter-hour trace, when the spec asked for it.
    pub trace: Vec<TraceRowReport>,
}

impl AnnualReport {
    /// Distills an [`EmulationReport`]; `include_trace` copies the hourly
    /// rows.
    pub fn from_emulation(hours: usize, r: &EmulationReport, include_trace: bool) -> Self {
        Self {
            hours,
            trace_rows: r.rows.len(),
            green_fraction: r.green_fraction,
            brown_mwh: r.total_brown_mwh,
            demand_mwh: r.total_demand_mwh,
            migrations: r.migrations,
            migrated_gb: r.migrated_gb,
            mean_migration_hours: r.mean_migration_hours,
            peak_inflight_migrations: r.peak_inflight_migrations,
            rereplicated_blocks: r.rereplicated_blocks,
            battery_in_mwh: r.battery_in_mwh,
            battery_out_mwh: r.battery_out_mwh,
            net_pushed_mwh: r.net_pushed_mwh,
            net_drawn_mwh: r.net_drawn_mwh,
            energy_settlement_usd: r.energy_settlement_usd,
            rebuilds: r.scheduler_stats.rebuilds,
            solver: SolverRollup::from(&r.scheduler_stats),
            resilience: r.resilience.clone().map(Box::new),
            trace: if include_trace {
                r.rows.iter().map(TraceRowReport::from).collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// One scenario row of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Scenario label.
    pub name: String,
    /// Hours emulated.
    pub hours: usize,
    /// Fraction of demand served green.
    pub green_fraction: f64,
    /// Total brown energy, MWh.
    pub brown_mwh: f64,
    /// Total demand, MWh.
    pub demand_mwh: f64,
    /// VM migrations executed.
    pub migrations: usize,
    /// Battery energy delivered, MWh.
    pub battery_out_mwh: f64,
    /// Banked energy drawn back, MWh.
    pub net_drawn_mwh: f64,
    /// Rolling-scheduler warm-start rate.
    pub warm_rate: f64,
    /// Simplex iterations spent.
    pub lp_iterations: usize,
    /// Fraction of requested VM-hours served (1.0 when fault-free).
    pub slo_attainment: f64,
    /// VM-hours lost to outages (0.0 when fault-free).
    pub vm_downtime_hours: f64,
}

impl From<&ScenarioResult> for SweepRow {
    fn from(r: &ScenarioResult) -> Self {
        Self {
            name: r.name.clone(),
            hours: r.hours,
            green_fraction: r.green_fraction,
            brown_mwh: r.brown_mwh,
            demand_mwh: r.demand_mwh,
            migrations: r.migrations,
            battery_out_mwh: r.battery_out_mwh,
            net_drawn_mwh: r.net_drawn_mwh,
            warm_rate: r.warm_rate,
            lp_iterations: r.lp_iterations,
            slo_attainment: r.slo_attainment,
            vm_downtime_hours: r.vm_downtime_hours,
        }
    }
}

/// Result of a sweep experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// One row per scenario, in spec order.
    pub rows: Vec<SweepRow>,
}

/// One named timing measurement (LP pricing suite, rolling re-solves).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingRecord {
    /// Record name, e.g. `"single_site_cold/devex"`.
    pub name: String,
    /// Wall time, milliseconds (zeroed by [`Report::normalized`]).
    pub wall_ms: f64,
    /// Simplex iterations (0 when not applicable).
    pub iterations: usize,
    /// Warm-start rate (0 when not applicable).
    pub warm_rate: f64,
}

/// The warm-vs-cold hourly re-solve comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmVsCold {
    /// Rounds compared.
    pub rounds: usize,
    /// Total warm (rolling) time, milliseconds.
    pub warm_ms: f64,
    /// Total cold (rebuild) time, milliseconds.
    pub cold_ms: f64,
    /// Warm-start rate of the rolling path.
    pub warm_rate: f64,
}

/// Result of a timing experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingReport {
    /// §V-C schedule computation times: `(label, ms per 48-h schedule)`.
    pub schedule_ms: Vec<(String, f64)>,
    /// LP-substrate benchmark records.
    pub records: Vec<TimingRecord>,
    /// Warm-vs-cold comparison, when requested.
    pub warm_vs_cold: Option<WarmVsCold>,
}

impl Report {
    /// A copy with every wall-clock field zeroed: two runs of the same
    /// deterministic spec produce equal normalized reports.
    pub fn normalized(&self) -> Report {
        let mut r = self.clone();
        r.wall_ms = 0.0;
        match &mut r.body {
            ReportBody::Siting(s) => {
                if let Some(solver) = &mut s.solver {
                    solver.pricing_ms = 0.0;
                }
            }
            ReportBody::Annual(a) => a.solver.pricing_ms = 0.0,
            ReportBody::Sweep(_) => {}
            ReportBody::Timing(t) => {
                for (_, ms) in &mut t.schedule_ms {
                    *ms = 0.0;
                }
                for rec in &mut t.records {
                    rec.wall_ms = 0.0;
                }
                if let Some(wc) = &mut t.warm_vs_cold {
                    wc.warm_ms = 0.0;
                    wc.cold_ms = 0.0;
                }
            }
        }
        r
    }

    /// Serializes the report under [`REPORT_SCHEMA`]. The field order and
    /// layout are stable (golden-file tested).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    fn to_json(&self) -> Json {
        let body = match &self.body {
            ReportBody::Siting(s) => ("siting", siting_to_json(s)),
            ReportBody::Annual(a) => ("annual", annual_to_json(a)),
            ReportBody::Sweep(s) => ("sweep", sweep_to_json(s)),
            ReportBody::Timing(t) => ("timing", timing_to_json(t)),
        };
        Json::obj([
            ("schema", Json::from(REPORT_SCHEMA)),
            ("experiment", Json::from(self.experiment.as_str())),
            ("wall_ms", Json::from(self.wall_ms)),
            (body.0, body.1),
        ])
    }

    /// Renders a human-readable summary (what `repro` prints).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.body {
            ReportBody::Siting(s) => {
                let _ = writeln!(
                    out,
                    "total ${:.2}M/month, {:.1}% green, {:.1} MW provisioned, {} datacenter(s), {} LP evaluations",
                    s.monthly_cost_usd / 1e6,
                    s.green_fraction * 100.0,
                    s.total_capacity_mw,
                    s.sites.len(),
                    s.evaluations
                );
                for dc in &s.sites {
                    let _ = writeln!(
                        out,
                        "  {:<28} {:>6.1} MW IT ({}) | solar {:>7.1} MW | wind {:>7.1} MW | batt {:>7.1} MWh | ${:.2}M/mo",
                        dc.name, dc.capacity_mw, dc.size_class, dc.solar_mw, dc.wind_mw, dc.batt_mwh,
                        dc.monthly_cost_usd / 1e6
                    );
                }
                if let Some(st) = &s.solver {
                    let _ = writeln!(
                        out,
                        "solver: {} LP solves, {} simplex iterations, {} refactorizations, {} ftrans, {} btrans, warm {:.0}%, {:.0} ms pricing",
                        st.solves,
                        st.iterations,
                        st.refactorizations,
                        st.ftrans,
                        st.btrans,
                        st.warm_rate * 100.0,
                        st.pricing_ms
                    );
                }
            }
            ReportBody::Annual(a) => {
                let _ = writeln!(
                    out,
                    "{} h emulated: green fraction {:.1}%, brown {:.0} MWh of {:.0} MWh demand, \
                     {} migrations ({:.1} GB shipped, mean {:.2} h, peak {} in flight)",
                    a.hours,
                    a.green_fraction * 100.0,
                    a.brown_mwh,
                    a.demand_mwh,
                    a.migrations,
                    a.migrated_gb,
                    a.mean_migration_hours,
                    a.peak_inflight_migrations
                );
                let _ = writeln!(
                    out,
                    "storage: battery {:.0} MWh in / {:.0} MWh out, net meter {:.0} MWh pushed / {:.0} MWh drawn, grid settlement ${:.2}M",
                    a.battery_in_mwh, a.battery_out_mwh, a.net_pushed_mwh, a.net_drawn_mwh,
                    a.energy_settlement_usd / 1e6
                );
                let st = &a.solver;
                let _ = writeln!(
                    out,
                    "scheduler: {} rounds, warm rate {:.0}%, {} simplex iterations, {} rebuilds, {} refactorizations, {} ftrans, {} btrans, {:.0} ms pricing",
                    st.solves,
                    st.warm_rate * 100.0,
                    st.iterations,
                    a.rebuilds,
                    st.refactorizations,
                    st.ftrans,
                    st.btrans,
                    st.pricing_ms
                );
                if let Some(res) = &a.resilience {
                    let _ = writeln!(
                        out,
                        "resilience: SLO {:.3}%, {} fault events ({} site / {} grid / {} wan outages, {} shocks), \
                         {:.1} VM-h down, {} evacuations ({:.1} GB), mean recovery {:.2} h, \
                         incidents cost {:.1} MWh brown / ${:.0}",
                        res.slo_attainment * 100.0,
                        res.fault_events,
                        res.site_outages,
                        res.grid_outages,
                        res.wan_outages,
                        res.forecast_shocks,
                        res.vm_downtime_hours,
                        res.evacuations,
                        res.evacuated_gb,
                        res.mean_recovery_hours,
                        res.incident_brown_mwh,
                        res.incident_cost_usd
                    );
                }
            }
            ReportBody::Sweep(s) => {
                let _ = writeln!(
                    out,
                    "{:<30} {:>7} {:>10} {:>6} {:>9} {:>9} {:>6} {:>7}",
                    "scenario",
                    "green%",
                    "brown MWh",
                    "migs",
                    "batt MWh",
                    "net MWh",
                    "warm%",
                    "slo%"
                );
                for r in &s.rows {
                    let _ = writeln!(
                        out,
                        "{:<30} {:>6.1}% {:>10.1} {:>6} {:>9.1} {:>9.1} {:>5.0}% {:>6.2}%",
                        r.name,
                        r.green_fraction * 100.0,
                        r.brown_mwh,
                        r.migrations,
                        r.battery_out_mwh,
                        r.net_drawn_mwh,
                        r.warm_rate * 100.0,
                        r.slo_attainment * 100.0
                    );
                }
            }
            ReportBody::Timing(t) => {
                for (label, ms) in &t.schedule_ms {
                    let _ = writeln!(
                        out,
                        "{label:>8}: {ms:>8.1} ms per 48-h schedule (paper: 240–780 ms on 2 GHz hardware)"
                    );
                }
                for r in &t.records {
                    let _ = writeln!(
                        out,
                        "{:<34} {:>9.1} ms  {:>7} iters  warm {:>4.0}%",
                        r.name,
                        r.wall_ms,
                        r.iterations,
                        r.warm_rate * 100.0
                    );
                }
                if let Some(wc) = &t.warm_vs_cold {
                    let _ = writeln!(
                        out,
                        "hourly re-solve ({} rounds): warm {:.1} ms vs cold {:.1} ms → {:.1}x speedup ({:.0}% warm-started)",
                        wc.rounds,
                        wc.warm_ms,
                        wc.cold_ms,
                        if wc.warm_ms > 0.0 { wc.cold_ms / wc.warm_ms } else { 0.0 },
                        wc.warm_rate * 100.0
                    );
                }
            }
        }
        out
    }
}

fn rollup_to_json(s: &SolverRollup) -> Json {
    Json::obj([
        ("solves", Json::from(s.solves)),
        ("iterations", Json::from(s.iterations)),
        ("refactorizations", Json::from(s.refactorizations)),
        ("ftrans", Json::from(s.ftrans)),
        ("btrans", Json::from(s.btrans)),
        ("warm_rate", Json::from(s.warm_rate)),
        ("pricing_ms", Json::from(s.pricing_ms)),
    ])
}

fn siting_to_json(s: &SitingReport) -> Json {
    Json::obj([
        ("monthly_cost_usd", Json::from(s.monthly_cost_usd)),
        ("green_fraction", Json::from(s.green_fraction)),
        ("total_capacity_mw", Json::from(s.total_capacity_mw)),
        ("evaluations", Json::from(s.evaluations)),
        (
            "sites",
            Json::Array(
                s.sites
                    .iter()
                    .map(|dc| {
                        Json::obj([
                            ("name", Json::from(dc.name.as_str())),
                            ("size_class", Json::from(dc.size_class.as_str())),
                            ("capacity_mw", Json::from(dc.capacity_mw)),
                            ("solar_mw", Json::from(dc.solar_mw)),
                            ("wind_mw", Json::from(dc.wind_mw)),
                            ("batt_mwh", Json::from(dc.batt_mwh)),
                            ("monthly_cost_usd", Json::from(dc.monthly_cost_usd)),
                            ("green_fraction", Json::from(dc.green_fraction)),
                            (
                                "breakdown",
                                Json::obj([
                                    ("building_dc", Json::from(dc.breakdown.building_dc)),
                                    ("it_equipment", Json::from(dc.breakdown.it_equipment)),
                                    ("land", Json::from(dc.breakdown.land)),
                                    ("plants", Json::from(dc.breakdown.plants)),
                                    ("batteries", Json::from(dc.breakdown.batteries)),
                                    ("connections", Json::from(dc.breakdown.connections)),
                                    ("bandwidth", Json::from(dc.breakdown.bandwidth)),
                                    ("energy", Json::from(dc.breakdown.energy)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "solver",
            match &s.solver {
                Some(st) => rollup_to_json(st),
                None => Json::Null,
            },
        ),
    ])
}

fn annual_to_json(a: &AnnualReport) -> Json {
    Json::obj([
        ("hours", Json::from(a.hours)),
        ("trace_rows", Json::from(a.trace_rows)),
        ("green_fraction", Json::from(a.green_fraction)),
        ("brown_mwh", Json::from(a.brown_mwh)),
        ("demand_mwh", Json::from(a.demand_mwh)),
        ("migrations", Json::from(a.migrations)),
        ("migrated_gb", Json::from(a.migrated_gb)),
        ("mean_migration_hours", Json::from(a.mean_migration_hours)),
        (
            "peak_inflight_migrations",
            Json::from(a.peak_inflight_migrations),
        ),
        ("rereplicated_blocks", Json::from(a.rereplicated_blocks)),
        ("battery_in_mwh", Json::from(a.battery_in_mwh)),
        ("battery_out_mwh", Json::from(a.battery_out_mwh)),
        ("net_pushed_mwh", Json::from(a.net_pushed_mwh)),
        ("net_drawn_mwh", Json::from(a.net_drawn_mwh)),
        ("energy_settlement_usd", Json::from(a.energy_settlement_usd)),
        ("rebuilds", Json::from(a.rebuilds)),
        ("solver", rollup_to_json(&a.solver)),
        (
            "resilience",
            match &a.resilience {
                Some(res) => resilience_to_json(res),
                None => Json::Null,
            },
        ),
        (
            "trace",
            Json::Array(
                a.trace
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("hour", Json::from(r.hour)),
                            ("dc", Json::from(r.dc)),
                            ("green_available_mw", Json::from(r.green_available_mw)),
                            ("load_mw", Json::from(r.load_mw)),
                            ("pue_overhead_mw", Json::from(r.pue_overhead_mw)),
                            ("migration_mw", Json::from(r.migration_mw)),
                            ("brown_mw", Json::from(r.brown_mw)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn resilience_to_json(r: &ResilienceReport) -> Json {
    Json::obj([
        ("schema", Json::from(RESILIENCE_SCHEMA)),
        ("fault_events", Json::from(r.fault_events)),
        ("site_outages", Json::from(r.site_outages)),
        ("grid_outages", Json::from(r.grid_outages)),
        ("wan_outages", Json::from(r.wan_outages)),
        ("forecast_shocks", Json::from(r.forecast_shocks)),
        ("site_down_hours", Json::from(r.site_down_hours)),
        ("vm_downtime_hours", Json::from(r.vm_downtime_hours)),
        ("shed_vm_hours", Json::from(r.shed_vm_hours)),
        ("evacuations", Json::from(r.evacuations)),
        ("evacuated_gb", Json::from(r.evacuated_gb)),
        ("recoveries", Json::from(r.recoveries)),
        ("mean_recovery_hours", Json::from(r.mean_recovery_hours)),
        ("slo_attainment", Json::from(r.slo_attainment)),
        ("unserved_mwh", Json::from(r.unserved_mwh)),
        ("incident_brown_mwh", Json::from(r.incident_brown_mwh)),
        ("incident_cost_usd", Json::from(r.incident_cost_usd)),
    ])
}

fn sweep_to_json(s: &SweepReport) -> Json {
    Json::obj([(
        "rows",
        Json::Array(
            s.rows
                .iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::from(r.name.as_str())),
                        ("hours", Json::from(r.hours)),
                        ("green_fraction", Json::from(r.green_fraction)),
                        ("brown_mwh", Json::from(r.brown_mwh)),
                        ("demand_mwh", Json::from(r.demand_mwh)),
                        ("migrations", Json::from(r.migrations)),
                        ("battery_out_mwh", Json::from(r.battery_out_mwh)),
                        ("net_drawn_mwh", Json::from(r.net_drawn_mwh)),
                        ("warm_rate", Json::from(r.warm_rate)),
                        ("lp_iterations", Json::from(r.lp_iterations)),
                        ("slo_attainment", Json::from(r.slo_attainment)),
                        ("vm_downtime_hours", Json::from(r.vm_downtime_hours)),
                    ])
                })
                .collect(),
        ),
    )])
}

fn timing_to_json(t: &TimingReport) -> Json {
    Json::obj([
        (
            "schedule_ms",
            Json::Array(
                t.schedule_ms
                    .iter()
                    .map(|(label, ms)| {
                        Json::obj([
                            ("label", Json::from(label.as_str())),
                            ("ms", Json::from(*ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "records",
            Json::Array(
                t.records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::from(r.name.as_str())),
                            ("wall_ms", Json::from(r.wall_ms)),
                            ("iterations", Json::from(r.iterations)),
                            ("warm_rate", Json::from(r.warm_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "warm_vs_cold",
            match &t.warm_vs_cold {
                Some(wc) => Json::obj([
                    ("rounds", Json::from(wc.rounds)),
                    ("warm_ms", Json::from(wc.warm_ms)),
                    ("cold_ms", Json::from(wc.cold_ms)),
                    ("warm_rate", Json::from(wc.warm_rate)),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;
    use greencloud_core::formulation::build_network_lp;
    use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};

    #[test]
    fn breakdown_totals_match_lp_objective() {
        // The per-site Table I breakdowns recomputed from the sizes must
        // agree with the LP's own objective (they share the same unit costs).
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.5,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        };
        let params = CostParams::default();
        let siting = [(3, SizeClass::Large), (4, SizeClass::Large)];
        let sites: Vec<_> = siting.iter().map(|&(i, c)| (&cands[i], c)).collect();
        let dispatch = build_network_lp(&params, &input, &sites)
            .solve()
            .expect("solvable");
        let report = SitingReport::from_dispatch(&params, &cands, &siting, &dispatch, None);
        let rebuilt: f64 = report.sites.iter().map(|s| s.monthly_cost_usd).sum();
        let lp_cost = report.monthly_cost_usd;
        assert!(
            (rebuilt - lp_cost).abs() / lp_cost < 0.01,
            "breakdown ${rebuilt:.0} vs LP ${lp_cost:.0}"
        );
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.evaluations, 0);
        assert!(report.solver.is_none());
    }
}
