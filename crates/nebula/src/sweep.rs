//! Parallel scenario sweeps over the operational emulation.
//!
//! Year-scale questions — how much storage is worth installing, how robust
//! is follow-the-renewables to forecast noise, what does a thin WAN cost —
//! are answered by running many independent [`EmulationConfig`]s and
//! comparing annual statistics. Scenarios are embarrassingly parallel, so
//! the sweep fans them out over `std::thread::scope` threads (the same pattern
//! the siting search uses for its annealing chains) and returns results in
//! input order regardless of completion order. Fault-injecting scenarios
//! compose transparently: their resilience aggregates ride along in the
//! per-scenario row.

use crate::emulation::{self, EmulationConfig, EmulationReport};
use crate::error::NebulaError;
use greencloud_climate::catalog::WorldCatalog;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One named sweep entry.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label carried into the result (e.g. "winter, 20 MWh, noisy σ=0.2").
    pub name: String,
    /// The full emulation configuration to run.
    pub config: EmulationConfig,
}

impl Scenario {
    /// Creates a named scenario.
    pub fn new(name: impl Into<String>, config: EmulationConfig) -> Self {
        Self {
            name: name.into(),
            config,
        }
    }
}

/// Outcome of one scenario: the aggregate statistics an annual comparison
/// needs, without the per-hour trace (a year of [`crate::TraceRow`]s per
/// scenario would dominate memory on wide sweeps).
#[derive(Debug, Clone)]
pub struct ScenarioResult {
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
    /// Total migration payload shipped, GB.
    pub migrated_gb: f64,
    /// Battery energy delivered to loads, MWh.
    pub battery_out_mwh: f64,
    /// Banked net-meter energy drawn back, MWh.
    pub net_drawn_mwh: f64,
    /// Warm-start rate of the rolling scheduler, in `[0, 1]`.
    pub warm_rate: f64,
    /// Total simplex iterations spent on hourly re-solves.
    pub lp_iterations: usize,
    /// Fraction of requested VM-hours actually served (1.0 for fault-free
    /// scenarios).
    pub slo_attainment: f64,
    /// VM-hours lost to outages (0.0 for fault-free scenarios).
    pub vm_downtime_hours: f64,
}

impl ScenarioResult {
    fn from_report(name: String, hours: usize, r: &EmulationReport) -> Self {
        Self {
            name,
            hours,
            green_fraction: r.green_fraction,
            brown_mwh: r.total_brown_mwh,
            demand_mwh: r.total_demand_mwh,
            migrations: r.migrations,
            migrated_gb: r.migrated_gb,
            battery_out_mwh: r.battery_out_mwh,
            net_drawn_mwh: r.net_drawn_mwh,
            warm_rate: r.scheduler_stats.warm_rate(),
            lp_iterations: r.scheduler_stats.iterations,
            slo_attainment: r
                .resilience
                .as_ref()
                .map(|res| res.slo_attainment)
                .unwrap_or(1.0),
            vm_downtime_hours: r
                .resilience
                .as_ref()
                .map(|res| res.vm_downtime_hours)
                .unwrap_or(0.0),
        }
    }
}

/// Runs every scenario against `catalog`, at most `threads` at a time
/// (at least one), and returns results in scenario order. Each scenario
/// gets its own [`crate::RollingScheduler`], GDFS master, and storage
/// ledgers, so runs never share mutable state.
///
/// # Errors
///
/// Returns the first scenario error in input order (later scenarios still
/// run to completion before the sweep returns).
pub fn run_sweep(
    catalog: &WorldCatalog,
    scenarios: &[Scenario],
    threads: usize,
) -> Result<Vec<ScenarioResult>, NebulaError> {
    run_sweep_observed(catalog, scenarios, threads, &AtomicBool::new(false), None)
}

/// Per-scenario progress observer: called with `(done, total)` from
/// whichever worker finishes a scenario, so it must be `Sync`.
pub type ScenarioObserver<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// [`run_sweep`] with cooperative cancellation and an optional completion
/// observer. The flag propagates into every scenario's emulation (polled
/// hourly) and also stops workers from claiming further scenarios. The
/// observer fires `(0, total)` before any scenario runs, then
/// `(done, total)` as each scenario finishes (in completion order, not
/// input order).
pub fn run_sweep_observed(
    catalog: &WorldCatalog,
    scenarios: &[Scenario],
    threads: usize,
    cancel: &AtomicBool,
    progress: Option<ScenarioObserver<'_>>,
) -> Result<Vec<ScenarioResult>, NebulaError> {
    let threads = threads.max(1).min(scenarios.len().max(1));
    if let Some(observe) = progress {
        observe(0, scenarios.len());
    }
    let slots: Mutex<Vec<Option<Result<ScenarioResult, NebulaError>>>> =
        Mutex::new(scenarios.iter().map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = scenarios.get(k) else {
                    break;
                };
                let out = if cancel.load(Ordering::Relaxed) {
                    Err(NebulaError::Cancelled)
                } else {
                    emulation::run_observed(catalog, &s.config, cancel, None)
                        .map(|r| ScenarioResult::from_report(s.name.clone(), s.config.hours, &r))
                };
                // Tolerate a poisoned lock: a sibling panicking between
                // scenarios must not take this worker's result with it.
                let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(slot) = slots.get_mut(k) {
                    *slot = Some(out);
                }
                drop(slots);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(observe) = progress {
                    observe(finished, scenarios.len());
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(NebulaError::Config(
                    "a scenario was claimed but never finished".into(),
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::predictor::PredictionMode;
    use crate::scheduler::SchedulerConfig;

    fn tiny(hours: usize) -> EmulationConfig {
        EmulationConfig {
            vm_count: 8,
            hours,
            scheduler: SchedulerConfig {
                window_hours: 6,
                ..SchedulerConfig::default()
            },
            ..EmulationConfig::default()
        }
    }

    #[test]
    fn sweep_preserves_scenario_order_and_matches_serial_runs() {
        let w = WorldCatalog::anchors_only(4);
        let scenarios = vec![
            Scenario::new("plain", tiny(12)),
            Scenario::new("storage", tiny(12).with_batteries(5_000.0)),
            Scenario::new(
                "noisy",
                EmulationConfig {
                    prediction: PredictionMode::Noisy {
                        sigma: 0.2,
                        seed: 7,
                    },
                    ..tiny(12)
                },
            ),
            Scenario::new("long", tiny(30)),
        ];
        let parallel = run_sweep(&w, &scenarios, 4).expect("sweep");
        assert_eq!(
            parallel.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["plain", "storage", "noisy", "long"],
        );
        // Parallel execution must not perturb the per-scenario physics.
        for (got, s) in parallel.iter().zip(&scenarios) {
            let serial = emulation::run(&w, &s.config).expect("serial");
            assert_eq!(got.brown_mwh, serial.total_brown_mwh, "{}", s.name);
            assert_eq!(got.migrations, serial.migrations, "{}", s.name);
            assert_eq!(got.slo_attainment, 1.0, "{}", s.name);
        }
        assert_eq!(parallel[3].hours, 30);
    }

    #[test]
    fn sweep_surfaces_the_first_error() {
        let w = WorldCatalog::anchors_only(4);
        let mut bad = tiny(6);
        bad.sites[0].location_name = "Atlantis".into();
        let scenarios = vec![Scenario::new("ok", tiny(6)), Scenario::new("bad", bad)];
        let err = run_sweep(&w, &scenarios, 2).unwrap_err();
        assert_eq!(err, NebulaError::UnknownSite("Atlantis".into()));
    }

    #[test]
    fn single_thread_sweep_works() {
        let w = WorldCatalog::anchors_only(4);
        let r = run_sweep(&w, &[Scenario::new("solo", tiny(8))], 1).expect("sweep");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].hours, 8);
    }

    #[test]
    fn faulty_scenarios_compose_with_the_sweep() {
        // A chaos scenario rides next to a clean one; its resilience
        // aggregates surface in the row without perturbing the sibling.
        let w = WorldCatalog::anchors_only(4);
        let chaos = EmulationConfig {
            faults: Some(FaultSpec {
                site_availability: Some(0.95),
                site_mttr_hours: 3.0,
                ..FaultSpec::default()
            }),
            hours: 72,
            ..tiny(72)
        };
        let scenarios = vec![
            Scenario::new("clean", tiny(72)),
            Scenario::new("chaos", chaos),
        ];
        let rows = run_sweep(&w, &scenarios, 2).expect("sweep");
        assert_eq!(rows[0].slo_attainment, 1.0);
        assert_eq!(rows[0].vm_downtime_hours, 0.0);
        assert!(rows[1].slo_attainment <= 1.0);
        // 5% unavailability over 72 h on 3 sites essentially always fires
        // at least one outage with the default seed.
        assert!(rows[1].vm_downtime_hours > 0.0, "{:?}", rows[1]);
    }
}
