//! The experiment engine: one handle that owns the world catalog and cost
//! parameters, builds candidate sites once, and runs [`ExperimentSpec`]s.
//!
//! The engine is the single front door for every caller — the `repro` CLI,
//! tests, examples, and the `serve` layer. Both siting kinds share one
//! path: filter the cached candidates, run the annealing search or the
//! exact enumeration, and build the [`SitingReport`] from the winning LP
//! in one step. Every run goes through
//! [`Engine::run_with`], whose [`RunCtx`] carries the optional cancellation
//! token, progress sink and deadline; [`Engine::run`] is the all-defaults
//! case. The engine caches candidate sets per [`ProfileConfig`] so a batch
//! of experiments over the same world pays the TMY synthesis cost once,
//! and [`Engine::run_all`] fans independent specs out over
//! `std::thread::scope` threads (the same worker-pool pattern the sweep and
//! annealing layers use), so concurrent scenario queries share one engine.

use crate::error::ApiError;
use crate::harness::{rolling_states, table3_profiles, SiteProfile};
use crate::report::{
    AnnualReport, Report, ReportBody, SitingReport, SweepReport, SweepRow, TimingRecord,
    TimingReport, WarmVsCold,
};
use crate::spec::{AnnualSpec, ExactSitingSpec, ExperimentSpec, SitingSpec, SweepSpec, TimingSpec};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::anneal::{anneal, SearchStats, Siting};
use greencloud_core::candidate::CandidateSite;
use greencloud_core::filter::filter_candidates;
use greencloud_core::formulation::{build_network_lp, NetworkDispatch, NetworkLp};
use greencloud_core::framework::{PlacementInput, SizeClass};
use greencloud_core::lock_ok;
use greencloud_core::milp::{solve_exact, ExactOptions};
use greencloud_cost::params::CostParams;
use greencloud_lp::{Basis, PricingMode, SimplexOptions, SolveError};
use greencloud_nebula::emulation::{self, EmulationConfig, HourObserver};
use greencloud_nebula::scheduler::{RollingScheduler, RollingStats, SchedulerConfig};
use greencloud_nebula::sweep::{run_sweep_observed, ScenarioObserver};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::wallclock::Stopwatch;

/// A progress event from a running experiment. Events carry loop counters
/// only — never solver state — so observing a run cannot perturb its
/// report. The serve layer renders these as `greencloud-progress/1`
/// frames on streamed responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Annual emulation: `done` of `total` emulated hours.
    Hours {
        /// Hours emulated so far.
        done: usize,
        /// Hours the run will emulate in total.
        total: usize,
    },
    /// Sweep: `done` of `total` scenarios complete.
    Scenarios {
        /// Scenarios finished so far (completion order).
        done: usize,
        /// Scenarios in the sweep.
        total: usize,
    },
}

impl Progress {
    /// The counters, kind-erased: `(done, total)`.
    pub fn counts(&self) -> (usize, usize) {
        match *self {
            Progress::Hours { done, total } | Progress::Scenarios { done, total } => (done, total),
        }
    }

    /// The frame kind label used in `greencloud-progress/1` documents.
    pub fn kind(&self) -> &'static str {
        match self {
            Progress::Hours { .. } => "hours",
            Progress::Scenarios { .. } => "scenarios",
        }
    }
}

/// A shared progress sink: sweeps report from several worker threads at
/// once, so sinks must be `Sync`.
pub type ProgressSink<'a> = &'a (dyn Fn(Progress) + Sync);

/// How [`Engine::run_with`] runs one experiment. Every option is off by
/// default, so [`Engine::run`] is `run_with(spec, RunCtx::default())`.
#[derive(Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Cooperative cancellation token, polled hourly by the long-running
    /// kinds (annual emulations, sweeps); once fired they stop and surface
    /// [`ApiError::Cancelled`]. Siting (heuristic and exact) and timing
    /// ignore it.
    pub cancel: Option<&'a AtomicBool>,
    /// Receives loop counters from the long-running kinds: hourly for
    /// annual runs, per scenario for sweeps.
    pub progress: Option<ProgressSink<'a>>,
    /// Wall-clock budget. When it passes, the run's token is fired (the
    /// caller's, if given) and the result is [`ApiError::Deadline`]
    /// whatever the run returned, unless the token had already been
    /// fired: the first cause wins. `repro run --timeout-ms` passes its
    /// limit here; `repro serve` passes a durable job's remaining budget,
    /// since nobody waits on that job to enforce its deadline.
    pub deadline: Option<Duration>,
}

/// The machine-derived default thread count for candidate building, sweep
/// fan-out, and concurrent experiment execution:
/// [`std::thread::available_parallelism`], clamped to `[1, 16]` (the
/// workloads stop scaling well before that, and unclamped values would
/// oversubscribe CI runners).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// A siting search's result over the kept candidates: the best siting, its
/// LP optimum, and the annealing counters (none on the exact path).
type Found = (Siting, NetworkDispatch, Option<SearchStats>);

/// The experiment engine (see the module docs).
#[derive(Debug)]
pub struct Engine {
    catalog: WorldCatalog,
    params: CostParams,
    threads: usize,
    candidates: Mutex<HashMap<ProfileConfig, Arc<Vec<CandidateSite>>>>,
}

impl Engine {
    /// Creates an engine over `catalog` with default cost parameters and
    /// the machine-derived thread count.
    pub fn new(catalog: WorldCatalog) -> Self {
        Self {
            catalog,
            params: CostParams::default(),
            threads: default_threads(),
            candidates: Mutex::new(HashMap::new()),
        }
    }

    /// Replaces the cost parameters (builder style). Clears the candidate
    /// cache conservatively — candidates themselves do not depend on cost
    /// parameters today, but a stale coupling here would be silent.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        lock_ok(&self.candidates).clear();
        self
    }

    /// Sets the thread knob used for candidate building, sweeps, and
    /// [`Engine::run_all`] (`0` = the machine's available parallelism,
    /// clamped to `[1, 16]`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        self
    }

    /// The world catalog this engine serves.
    pub fn catalog(&self) -> &WorldCatalog {
        &self.catalog
    }

    /// The cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The engine's thread knob.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The candidate set for `profile`, built on first use and shared
    /// across experiments (and threads) thereafter.
    pub fn candidates(&self, profile: &ProfileConfig) -> Arc<Vec<CandidateSite>> {
        if let Some(c) = lock_ok(&self.candidates).get(profile) {
            return Arc::clone(c);
        }
        // Build outside the lock: candidate synthesis is the expensive
        // part, and two racing builders produce identical sets (the build
        // is deterministic), so last-write-wins is benign.
        let built = Arc::new(CandidateSite::build_all_threaded(
            &self.catalog,
            profile,
            self.threads,
        ));
        lock_ok(&self.candidates)
            .entry(*profile)
            .or_insert_with(|| Arc::clone(&built))
            .clone()
    }

    /// Runs one experiment with every [`RunCtx`] option off.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_with`].
    pub fn run(&self, spec: &ExperimentSpec) -> Result<Report, ApiError> {
        self.run_with(spec, RunCtx::default())
    }

    /// Runs one experiment under `ctx`'s cancellation token, progress sink
    /// and deadline. This is the engine's one panic boundary: a panicking
    /// experiment surfaces as [`ApiError::Engine`] instead of unwinding
    /// into the caller. A deadline arms one timer thread that lives no
    /// longer than the run.
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]: input validation, solver failures, a spec the
    /// engine's catalog cannot serve, a contained panic, cancellation, or
    /// an expired deadline.
    pub fn run_with(&self, spec: &ExperimentSpec, ctx: RunCtx<'_>) -> Result<Report, ApiError> {
        let own = AtomicBool::new(false);
        let cancel = ctx.cancel.unwrap_or(&own);
        std::thread::scope(|scope| {
            // Dropping `done` when the run returns wakes the timer early.
            let (done, wait) = mpsc::channel::<()>();
            let timer = ctx.deadline.map(|limit| {
                let expired = scope.spawn(move || {
                    // First cause wins: a token the caller already fired
                    // stays a cancellation.
                    wait.recv_timeout(limit) == Err(RecvTimeoutError::Timeout)
                        && !cancel.swap(true, Ordering::SeqCst)
                });
                (limit, expired)
            });
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let t0 = Stopwatch::start();
                let body = match spec {
                    ExperimentSpec::Siting(s) => self.run_siting(s)?,
                    ExperimentSpec::ExactSiting(s) => self.run_exact(s)?,
                    ExperimentSpec::Annual(s) => self.run_annual(s, cancel, ctx.progress)?,
                    ExperimentSpec::Sweep(s) => self.run_sweep(s, cancel, ctx.progress)?,
                    ExperimentSpec::Timing(s) => self.run_timing(s)?,
                };
                Ok(Report {
                    experiment: spec.kind().to_string(),
                    wall_ms: t0.elapsed_ms(),
                    body,
                })
            }))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(ApiError::Engine(format!("experiment panicked: {msg}")))
            });
            drop(done);
            if let Some((limit, expired)) = timer {
                // A fired deadline dominates: even if the run limped to a
                // result, the contract is Deadline.
                if expired.join().unwrap_or(false) {
                    return Err(ApiError::Deadline {
                        limit_ms: limit.as_millis() as u64,
                    });
                }
            }
            out
        })
    }

    /// Runs many experiments concurrently (at most [`Engine::threads`] at
    /// a time) and returns results in spec order. Candidate sets are
    /// shared through the engine cache, so a batch over one world builds
    /// its candidates once. Each spec runs through [`Engine::run`], so a
    /// panicking experiment fails that spec alone while its siblings still
    /// return their own results.
    pub fn run_all(&self, specs: &[ExperimentSpec]) -> Vec<Result<Report, ApiError>> {
        let workers = self.threads.min(specs.len());
        let slots: Mutex<Vec<Option<Result<Report, ApiError>>>> =
            Mutex::new(specs.iter().map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(k) else {
                        break;
                    };
                    let out = self.run(spec);
                    if let Some(slot) = lock_ok(&slots).get_mut(k) {
                        *slot = Some(out);
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
                    Err(ApiError::Engine(
                        "spec did not run: a worker thread died".into(),
                    ))
                })
            })
            .collect()
    }

    fn run_siting(&self, spec: &SitingSpec) -> Result<ReportBody, ApiError> {
        let search = &spec.search;
        self.siting_report(&spec.input, &search.profile, search.filter_keep, |kept| {
            let r = anneal(&self.params, &spec.input, kept, &search.anneal_options())?;
            Ok((r.siting, r.dispatch, Some(r.stats)))
        })
    }

    fn run_exact(&self, spec: &ExactSitingSpec) -> Result<ReportBody, ApiError> {
        let options = ExactOptions {
            max_candidates: spec.max_candidates,
            max_sites: spec.max_sites,
        };
        self.siting_report(&spec.input, &spec.profile, spec.filter_keep, |kept| {
            let (siting, dispatch) = solve_exact(&self.params, &spec.input, kept, &options)?;
            Ok((siting, dispatch, None))
        })
    }

    /// The path both siting kinds share: pre-filter the cached candidates
    /// for `profile`, `search` the kept ones, and report the best siting
    /// under its catalog indices.
    fn siting_report(
        &self,
        input: &PlacementInput,
        profile: &ProfileConfig,
        filter_keep: usize,
        search: impl FnOnce(&[CandidateSite]) -> Result<Found, SolveError>,
    ) -> Result<ReportBody, ApiError> {
        input.validate()?;
        let candidates = self.candidates(profile);
        let kept = filter_candidates(&self.params, input, &candidates, filter_keep);
        let filtered: Vec<CandidateSite> = kept.iter().map(|&i| candidates[i].clone()).collect();
        let (siting, dispatch, stats) = search(&filtered)?;
        let siting: Siting = siting
            .iter()
            .map(|&(fi, class)| (kept[fi], class))
            .collect();
        Ok(ReportBody::Siting(SitingReport::from_dispatch(
            &self.params,
            &candidates,
            &siting,
            &dispatch,
            stats.as_ref(),
        )))
    }

    fn run_annual(
        &self,
        spec: &AnnualSpec,
        cancel: &AtomicBool,
        progress: Option<ProgressSink<'_>>,
    ) -> Result<ReportBody, ApiError> {
        let observe = progress.map(|sink| move |done, total| sink(Progress::Hours { done, total }));
        let r = emulation::run_observed(
            &self.catalog,
            &spec.config,
            cancel,
            observe.as_ref().map(|f| f as HourObserver<'_>),
        )?;
        Ok(ReportBody::Annual(AnnualReport::from_emulation(
            spec.config.hours,
            &r,
            spec.include_trace,
        )))
    }

    fn run_sweep(
        &self,
        spec: &SweepSpec,
        cancel: &AtomicBool,
        progress: Option<ProgressSink<'_>>,
    ) -> Result<ReportBody, ApiError> {
        let scenarios = spec.scenarios();
        let observe =
            progress.map(|sink| move |done, total| sink(Progress::Scenarios { done, total }));
        let results = run_sweep_observed(
            &self.catalog,
            &scenarios,
            self.threads,
            cancel,
            observe.as_ref().map(|f| f as ScenarioObserver<'_>),
        )?;
        Ok(ReportBody::Sweep(SweepReport {
            rows: results.iter().map(SweepRow::from).collect(),
        }))
    }

    fn run_timing(&self, spec: &TimingSpec) -> Result<ReportBody, ApiError> {
        let mut report = TimingReport::default();
        if spec.schedule_timing {
            report.schedule_ms = self.schedule_timing()?;
        }
        if spec.lp_records {
            report.records = self.lp_records(spec.fast)?;
        }
        if spec.warm_cold_rounds > 0 {
            report.warm_vs_cold = Some(self.warm_vs_cold(spec.warm_cold_rounds)?);
        }
        Ok(ReportBody::Timing(report))
    }

    /// §V-C: time a 48-hour schedule computation at two load levels.
    fn schedule_timing(&self) -> Result<Vec<(String, f64)>, ApiError> {
        let cfg = EmulationConfig::default();
        let profiles = table3_profiles(&self.catalog).ok_or_else(|| {
            ApiError::Engine("catalog lacks the Table III anchor sites".to_string())
        })?;
        let mut out = Vec::new();
        for &(label, load) in &[("50 MW", 50.0), ("200 MW", 200.0)] {
            let mut loads = vec![load, 0.0, 0.0];
            loads.resize(profiles.len(), 0.0);
            // Forecast at a fixed summer hour; capacity scaled to the load
            // level as in the original §V-C experiment.
            let states: Vec<_> =
                rolling_states(&profiles, 4080, cfg.scheduler.window_hours, &loads)
                    .into_iter()
                    .map(|mut s| {
                        s.capacity_mw = load;
                        s
                    })
                    .collect();
            // Each plan is a fresh scheduler's cold solve.
            let plan = || RollingScheduler::new(SchedulerConfig::default()).plan(&states);
            plan()?; // warm-up
            let t0 = Stopwatch::start();
            let reps = 10;
            for _ in 0..reps {
                plan()?;
            }
            out.push((label.to_string(), t0.elapsed_ms() / reps as f64));
        }
        Ok(out)
    }

    /// The LP-substrate benchmark records: the single-site siting LP cold
    /// under each pricing mode and warm from its own optimal basis, the
    /// three-site network LP cold and warm, plus rolling hourly re-solves
    /// warm vs cold, each with the simplex iterations it took.
    fn lp_records(&self, fast: bool) -> Result<Vec<TimingRecord>, ApiError> {
        use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
        use PricingMode::{Dantzig, Devex};

        let reps = if fast { 1 } else { 3 };
        let mut records = Vec::new();
        let cands = self.candidates(&ProfileConfig::coarse());
        if cands.is_empty() {
            return Err(ApiError::Engine("catalog has no candidates".to_string()));
        }
        let single = PlacementInput {
            total_capacity_mw: 25.0,
            min_green_fraction: 0.5,
            min_availability: 0.0,
            tech: TechMix::WindOnly,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        };
        let site = &cands[3.min(cands.len() - 1)];
        let lp = build_network_lp(&self.params, &single, &[(site, SizeClass::Large)]);
        let (cold, basis) = time_solve("single_site_cold/devex", &lp, Devex, None, reps)?;
        records.push(cold);
        records.push(time_solve("single_site_cold/dantzig", &lp, Dantzig, None, reps)?.0);
        records.push(time_solve("single_site_warm/devex", &lp, Devex, basis.as_ref(), reps)?.0);

        // The three-site network LP on candidates 3, 4 and 7 (skipped when
        // the catalog has fewer than 8 candidates).
        if let [_, _, _, a, b, _, _, c, ..] = cands.as_slice() {
            let network = PlacementInput {
                total_capacity_mw: 50.0,
                min_green_fraction: 0.5,
                tech: TechMix::Both,
                storage: StorageMode::NetMetering,
                ..PlacementInput::default()
            };
            let sites = [a, b, c].map(|site| (site, SizeClass::Large));
            let lp = build_network_lp(&self.params, &network, &sites);
            let (cold, basis) = time_solve("three_site_cold/devex", &lp, Devex, None, reps)?;
            records.push(cold);
            records.push(time_solve("three_site_warm/devex", &lp, Devex, basis.as_ref(), reps)?.0);
        }

        // Rolling hourly re-solves, warm vs cold, on the Table III network
        // (skipped when the catalog lacks the anchors).
        if let Some(profiles) = table3_profiles(&self.catalog) {
            let rounds = if fast { 12 } else { 96 };
            let (warm_ms, stats, cold_ms, cold_iterations) = rolling_warm_cold(&profiles, rounds)?;
            records.push(TimingRecord {
                name: format!("hourly_resolve_{rounds}rounds/warm"),
                wall_ms: warm_ms,
                iterations: stats.iterations,
                warm_rate: stats.warm_rate(),
            });
            records.push(TimingRecord {
                name: format!("hourly_resolve_{rounds}rounds/cold"),
                wall_ms: cold_ms,
                iterations: cold_iterations,
                warm_rate: 0.0,
            });
        }
        Ok(records)
    }

    /// Times `rounds` consecutive hourly re-solves of the Table III
    /// network, warm vs cold (see [`rolling_warm_cold`]).
    fn warm_vs_cold(&self, rounds: usize) -> Result<WarmVsCold, ApiError> {
        let profiles = table3_profiles(&self.catalog).ok_or_else(|| {
            ApiError::Engine("catalog lacks the Table III anchor sites".to_string())
        })?;
        let (warm_ms, stats, cold_ms, _) = rolling_warm_cold(&profiles, rounds)?;
        Ok(WarmVsCold {
            rounds,
            warm_ms,
            cold_ms,
            warm_rate: stats.warm_rate(),
        })
    }
}

/// Solves `lp` `reps` times under `pricing`, from `warm` when given, and
/// records the fastest solve (model build excluded) as `name`. Every
/// repetition takes the same pivots; the first one's optimal basis is
/// returned with the record.
fn time_solve(
    name: &str,
    lp: &NetworkLp,
    pricing: PricingMode,
    warm: Option<&Basis>,
    reps: usize,
) -> Result<(TimingRecord, Option<Basis>), ApiError> {
    let options = SimplexOptions {
        pricing,
        ..SimplexOptions::default()
    };
    let t0 = Stopwatch::start();
    let (dispatch, basis) = lp.solve_warm(options.clone(), warm)?;
    let mut best_ms = t0.elapsed_ms();
    for _ in 1..reps {
        let t0 = Stopwatch::start();
        lp.solve_warm(options.clone(), warm)?;
        best_ms = best_ms.min(t0.elapsed_ms());
    }
    let record = TimingRecord {
        name: name.to_string(),
        wall_ms: best_ms,
        iterations: dispatch.iterations,
        warm_rate: if dispatch.warm_started { 1.0 } else { 0.0 },
    };
    Ok((record, basis))
}

/// Runs `rounds` consecutive hourly re-solves of the Table III network
/// from a fixed summer hour twice: warm through one persistent
/// [`RollingScheduler`], then cold through a fresh one per round, which
/// builds the window model and solves it from the slack basis. Returns the
/// warm wall time (ms), the rolling scheduler's stats, the cold wall time
/// (ms) and the cold rounds' simplex iterations summed.
fn rolling_warm_cold(
    profiles: &[SiteProfile],
    rounds: usize,
) -> Result<(f64, RollingStats, f64, usize), ApiError> {
    let cfg = EmulationConfig::default();
    let window = cfg.scheduler.window_hours;
    let start = 4080;

    let mut rolling = RollingScheduler::new(cfg.scheduler.clone());
    let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
    let t0 = Stopwatch::start();
    for t in start..start + rounds {
        let states = rolling_states(profiles, t, window, &loads);
        loads = rolling.plan(&states)?.target_mw;
    }
    let warm_ms = t0.elapsed_ms();

    let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
    let mut cold_iterations = 0;
    let t0 = Stopwatch::start();
    for t in start..start + rounds {
        let states = rolling_states(profiles, t, window, &loads);
        let mut fresh = RollingScheduler::new(cfg.scheduler.clone());
        loads = fresh.plan(&states)?.target_mw;
        cold_iterations += fresh.stats().iterations;
    }
    Ok((warm_ms, rolling.stats(), t0.elapsed_ms(), cold_iterations))
}
