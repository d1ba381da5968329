//! The experiment engine: one handle that owns the world catalog and cost
//! parameters, builds candidate sites once, and runs [`ExperimentSpec`]s.
//!
//! The engine is the single front door for every caller — the `repro` CLI,
//! benches, tests, examples, and (eventually) a service layer. It caches
//! candidate sets per [`ProfileConfig`] so a batch of experiments over the
//! same world pays the TMY synthesis cost once, and [`Engine::run_all`]
//! fans independent specs out over `std::thread::scope` threads (the same
//! worker-pool pattern the sweep and annealing layers use), so concurrent
//! scenario queries share one engine.

use crate::error::ApiError;
use crate::harness::{rolling_states, table3_profiles};
use crate::report::{
    AnnualReport, Report, ReportBody, SitingReport, SweepReport, SweepRow, TimingRecord,
    TimingReport, WarmVsCold,
};
use crate::spec::{
    AnnualSpec, ExactSitingSpec, ExperimentSpec, SearchSpec, SitingSpec, SweepSpec, TimingSpec,
};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::candidate::CandidateSite;
use greencloud_core::filter::filter_candidates;
use greencloud_core::framework::SizeClass;
use greencloud_core::lock_ok;
use greencloud_core::milp::{solve_exact, ExactOptions};
use greencloud_core::solution::PlacementSolution;
use greencloud_core::tool::{default_threads, PlacementTool};
use greencloud_cost::params::CostParams;
use greencloud_lp::{PricingMode, SimplexOptions};
use greencloud_nebula::emulation::{self, EmulationConfig};
use greencloud_nebula::scheduler::{RollingScheduler, Scheduler, SchedulerConfig};
use greencloud_nebula::sweep::run_sweep_observed;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::wallclock::{self, Stopwatch};

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

/// Renders a captured panic payload for an [`ApiError::Engine`] message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Job-id-keyed cancellation tokens for experiments running under the
/// durable job API. The serve layer registers a token when a worker picks
/// a job up; `DELETE /v1/jobs/:id` fires it by id without needing a handle
/// on the worker — the same cooperative-token mechanism the deadline
/// watchdog and drain path use, addressed by job id instead of by
/// connection.
#[derive(Debug, Default)]
pub struct CancelRegistry {
    by_job: Mutex<HashMap<String, Arc<AtomicBool>>>,
}

impl CancelRegistry {
    /// Associates `token` with `job_id` for the duration of a run.
    pub fn register(&self, job_id: &str, token: Arc<AtomicBool>) {
        lock_ok(&self.by_job).insert(job_id.to_string(), token);
    }

    /// Drops the association (the run finished, however it finished).
    pub fn unregister(&self, job_id: &str) {
        lock_ok(&self.by_job).remove(job_id);
    }

    /// Fires the token registered for `job_id`, if any. Returns whether a
    /// running job was signalled.
    pub fn fire(&self, job_id: &str) -> bool {
        match lock_ok(&self.by_job).get(job_id) {
            Some(t) => {
                t.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// How many jobs are currently registered (running).
    pub fn len(&self) -> usize {
        lock_ok(&self.by_job).len()
    }

    /// True when no job is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The experiment engine (see the module docs).
#[derive(Debug)]
pub struct Engine {
    catalog: WorldCatalog,
    params: CostParams,
    threads: usize,
    candidates: Mutex<HashMap<ProfileConfig, Arc<Vec<CandidateSite>>>>,
    cancels: CancelRegistry,
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
            cancels: CancelRegistry::default(),
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
    /// [`Engine::run_all`] (`0` = [`default_threads`]).
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

    /// A placement tool over this engine's cached candidates — the escape
    /// hatch for callers that need per-location solves (e.g. the Fig. 6
    /// cost-CDF study) rather than a whole experiment.
    pub fn placement_tool(&self, search: &SearchSpec) -> PlacementTool {
        PlacementTool::with_candidates(
            self.params.clone(),
            self.candidates(&search.profile),
            search.tool_options(self.threads),
        )
    }

    /// Runs one experiment.
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]: input validation, solver failures, or a spec the
    /// engine's catalog cannot serve.
    pub fn run(&self, spec: &ExperimentSpec) -> Result<Report, ApiError> {
        let cancel = AtomicBool::new(false);
        self.run_cancellable(spec, &cancel, None)
    }

    /// Runs one experiment with a per-spec deadline: the long-running
    /// experiment kinds (annual emulations, sweeps) are cancelled
    /// cooperatively once the deadline passes, and the result is reported
    /// as [`ApiError::Deadline`].
    pub fn run_with_deadline(
        &self,
        spec: &ExperimentSpec,
        deadline: Duration,
    ) -> Result<Report, ApiError> {
        self.run_all_with_deadline(std::slice::from_ref(spec), Some(deadline))
            .pop()
            .unwrap_or_else(|| Err(ApiError::Engine("spec did not run".into())))
    }

    /// [`Engine::run`] with a caller-owned cooperative cancellation token,
    /// panics contained at this boundary. Setting `cancel` stops the
    /// long-running experiment kinds (annual emulations, sweeps) at their
    /// next hourly poll and surfaces [`ApiError::Cancelled`]; short
    /// experiment kinds (siting, timing) run to completion regardless.
    /// This is the entry point the `serve` layer drives: its deadline
    /// watchdog, client-disconnect detection, and drain path all fire the
    /// same token.
    pub fn run_with_cancel(
        &self,
        spec: &ExperimentSpec,
        cancel: &AtomicBool,
    ) -> Result<Report, ApiError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.run_cancellable(spec, cancel, None)
        }))
        .unwrap_or_else(|p| {
            Err(ApiError::Engine(format!(
                "experiment panicked: {}",
                panic_message(p.as_ref())
            )))
        })
    }

    /// [`Engine::run_with_cancel`] with a progress sink: the long-running
    /// experiment kinds (annual emulations, sweeps) report loop counters
    /// through `progress` as they advance — hourly for annual runs,
    /// per-scenario for sweeps. Short kinds complete without reporting.
    pub fn run_with_progress(
        &self,
        spec: &ExperimentSpec,
        cancel: &AtomicBool,
        progress: ProgressSink<'_>,
    ) -> Result<Report, ApiError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.run_cancellable(spec, cancel, Some(progress))
        }))
        .unwrap_or_else(|p| {
            Err(ApiError::Engine(format!(
                "experiment panicked: {}",
                panic_message(p.as_ref())
            )))
        })
    }

    /// The job-id-keyed cancellation registry (see [`CancelRegistry`]).
    pub fn cancels(&self) -> &CancelRegistry {
        &self.cancels
    }

    /// [`Engine::run_with_cancel`] for a durable job: the token is
    /// registered under `job_id` in [`Engine::cancels`] for the duration
    /// of the run, so `DELETE /v1/jobs/:id` can fire it by id.
    pub fn run_job(
        &self,
        job_id: &str,
        spec: &ExperimentSpec,
        cancel: Arc<AtomicBool>,
    ) -> Result<Report, ApiError> {
        self.cancels.register(job_id, Arc::clone(&cancel));
        let out = self.run_with_cancel(spec, &cancel);
        self.cancels.unregister(job_id);
        out
    }

    /// [`Engine::run`] with a cooperative cancellation flag threaded into
    /// the experiment kinds that can run for a long time.
    fn run_cancellable(
        &self,
        spec: &ExperimentSpec,
        cancel: &AtomicBool,
        progress: Option<ProgressSink<'_>>,
    ) -> Result<Report, ApiError> {
        let t0 = Stopwatch::start();
        let body = match spec {
            ExperimentSpec::Siting(s) => self.run_siting(s)?,
            ExperimentSpec::ExactSiting(s) => self.run_exact(s)?,
            ExperimentSpec::Annual(s) => self.run_annual(s, cancel, progress)?,
            ExperimentSpec::Sweep(s) => self.run_sweep(s, cancel, progress)?,
            ExperimentSpec::Timing(s) => self.run_timing(s)?,
        };
        Ok(Report {
            experiment: spec.kind().to_string(),
            wall_ms: t0.elapsed_ms(),
            body,
        })
    }

    /// Runs many experiments concurrently (at most [`Engine::threads`] at
    /// a time) and returns results in spec order. Candidate sets are
    /// shared through the engine cache, so a batch over one world builds
    /// its candidates once.
    ///
    /// A panicking experiment is captured at this boundary and reported as
    /// [`ApiError::Engine`] for that spec alone; sibling specs still run
    /// to completion and return their own results.
    pub fn run_all(&self, specs: &[ExperimentSpec]) -> Vec<Result<Report, ApiError>> {
        self.run_all_with_deadline(specs, None)
    }

    /// [`Engine::run_all`] with an optional per-spec deadline, measured
    /// from the moment a worker picks the spec up. A watchdog fires the
    /// spec's cancellation token once the deadline passes; the emulation
    /// layers poll it hourly, and a fired token turns the outcome into
    /// [`ApiError::Deadline`] regardless of what the run returned.
    pub fn run_all_with_deadline(
        &self,
        specs: &[ExperimentSpec],
        deadline: Option<Duration>,
    ) -> Vec<Result<Report, ApiError>> {
        let limit_ms = deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
        let workers = self.threads.min(specs.len().max(1));
        if workers <= 1 && deadline.is_none() {
            // Serial fast path: no watchdog needed, but panics are still
            // isolated per spec.
            let cancel = AtomicBool::new(false);
            return specs
                .iter()
                .map(|s| {
                    catch_unwind(AssertUnwindSafe(|| self.run_cancellable(s, &cancel, None)))
                        .unwrap_or_else(|p| {
                            Err(ApiError::Engine(format!(
                                "experiment panicked: {}",
                                panic_message(p.as_ref())
                            )))
                        })
                })
                .collect();
        }
        let mut slots: Vec<Option<Result<Report, ApiError>>> =
            (0..specs.len()).map(|_| None).collect();
        let tokens: Vec<AtomicBool> = specs.iter().map(|_| AtomicBool::new(false)).collect();
        let started: Vec<Mutex<Option<Instant>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        let completed = AtomicUsize::new(0);
        let all_done = AtomicBool::new(false);
        {
            let next = AtomicUsize::new(0);
            let slots = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                if let Some(dl) = deadline {
                    // Watchdog: fires a spec's token once its deadline
                    // passes; exits when every spec has completed.
                    let tokens = &tokens;
                    let started = &started;
                    let all_done = &all_done;
                    scope.spawn(move || {
                        while !all_done.load(Ordering::Relaxed) {
                            for (token, t0) in tokens.iter().zip(started) {
                                if !token.load(Ordering::Relaxed)
                                    && lock_ok(t0).is_some_and(|t| t.elapsed() >= dl)
                                {
                                    token.store(true, Ordering::Relaxed);
                                }
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    });
                }
                for _ in 0..workers {
                    let next = &next;
                    let slots = &slots;
                    let tokens = &tokens;
                    let started = &started;
                    let completed = &completed;
                    let all_done = &all_done;
                    scope.spawn(move || loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= specs.len() {
                            break;
                        }
                        *lock_ok(&started[k]) = Some(wallclock::now());
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            self.run_cancellable(&specs[k], &tokens[k], None)
                        }))
                        .unwrap_or_else(|p| {
                            Err(ApiError::Engine(format!(
                                "experiment panicked: {}",
                                panic_message(p.as_ref())
                            )))
                        });
                        // A fired deadline dominates: even if the run
                        // limped to a result, the contract is Deadline.
                        let out = if tokens[k].load(Ordering::Relaxed) {
                            Err(ApiError::Deadline { limit_ms })
                        } else {
                            out
                        };
                        lock_ok(slots)[k] = Some(out);
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == specs.len() {
                            all_done.store(true, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        slots
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
        spec.input.validate()?;
        let tool = self.placement_tool(&spec.search);
        let sol = tool.solve(&spec.input)?;
        Ok(ReportBody::Siting(SitingReport::from_solution(&sol)))
    }

    fn run_exact(&self, spec: &ExactSitingSpec) -> Result<ReportBody, ApiError> {
        spec.input.validate()?;
        let candidates = self.candidates(&spec.profile);
        let kept = filter_candidates(&self.params, &spec.input, &candidates, spec.filter_keep);
        let filtered: Vec<CandidateSite> = kept.iter().map(|&i| candidates[i].clone()).collect();
        let options = ExactOptions {
            max_candidates: spec.max_candidates,
            max_sites: spec.max_sites,
        };
        let (siting, dispatch) = solve_exact(&self.params, &spec.input, &filtered, &options)?;
        // Map filtered indices back to catalog candidates for reporting.
        let siting: Vec<(usize, SizeClass)> = siting
            .iter()
            .map(|&(fi, class)| (kept[fi], class))
            .collect();
        let sol =
            PlacementSolution::from_dispatch(&self.params, &candidates, &siting, &dispatch, 0);
        Ok(ReportBody::Siting(SitingReport::from_solution(&sol)))
    }

    fn run_annual(
        &self,
        spec: &AnnualSpec,
        cancel: &AtomicBool,
        progress: Option<ProgressSink<'_>>,
    ) -> Result<ReportBody, ApiError> {
        let r = match progress {
            Some(sink) => {
                let observe = |done: usize, total: usize| sink(Progress::Hours { done, total });
                emulation::run_observed(&self.catalog, &spec.config, cancel, Some(&observe))?
            }
            None => emulation::run_with_cancel(&self.catalog, &spec.config, cancel)?,
        };
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
        let results = match progress {
            Some(sink) => {
                let observe = |done: usize, total: usize| sink(Progress::Scenarios { done, total });
                run_sweep_observed(
                    &self.catalog,
                    &scenarios,
                    self.threads,
                    cancel,
                    Some(&observe),
                )?
            }
            None => run_sweep_observed(&self.catalog, &scenarios, self.threads, cancel, None)?,
        };
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
            let sched = Scheduler::new(SchedulerConfig::default());
            sched.plan(&states)?; // warm-up
            let t0 = Stopwatch::start();
            let reps = 10;
            for _ in 0..reps {
                sched.plan(&states)?;
            }
            out.push((label.to_string(), t0.elapsed_ms() / reps as f64));
        }
        Ok(out)
    }

    /// The LP-substrate benchmark records: the single-site siting LP cold
    /// under each pricing mode, plus rolling hourly re-solves warm vs cold.
    fn lp_records(&self, fast: bool) -> Result<Vec<TimingRecord>, ApiError> {
        use greencloud_core::formulation::build_network_lp;
        use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};

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
        for (label, pricing) in [
            ("single_site_cold/devex", PricingMode::Devex),
            ("single_site_cold/dantzig", PricingMode::Dantzig),
            ("single_site_cold/partial", PricingMode::Partial),
        ] {
            let reps = if fast { 1 } else { 3 };
            let mut best_ms = f64::INFINITY;
            let mut iterations = 0;
            for _ in 0..reps {
                let t0 = Stopwatch::start();
                let (d, _) = lp.solve_warm(
                    SimplexOptions {
                        pricing,
                        ..SimplexOptions::default()
                    },
                    None,
                )?;
                best_ms = best_ms.min(t0.elapsed_ms());
                iterations = d.iterations;
            }
            records.push(TimingRecord {
                name: label.to_string(),
                wall_ms: best_ms,
                iterations,
                warm_rate: 0.0,
            });
        }

        // Rolling hourly re-solves, warm vs cold, on the Table III network
        // (skipped when the catalog lacks the anchors).
        if let Some(profiles) = table3_profiles(&self.catalog) {
            let cfg = EmulationConfig::default();
            let window = cfg.scheduler.window_hours;
            let rounds = if fast { 12 } else { 96 };
            let start = 4080;

            let mut rolling = RollingScheduler::new(cfg.scheduler.clone());
            let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
            let t0 = Stopwatch::start();
            for t in start..start + rounds {
                let states = rolling_states(&profiles, t, window, &loads);
                loads = rolling.plan(&states)?.target_mw;
            }
            let warm_ms = t0.elapsed_ms();
            let stats = rolling.stats();
            records.push(TimingRecord {
                name: format!("hourly_resolve_{rounds}rounds/warm"),
                wall_ms: warm_ms,
                iterations: stats.iterations,
                warm_rate: stats.warm_rate(),
            });

            let cold = Scheduler::new(cfg.scheduler.clone());
            let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
            let t0 = Stopwatch::start();
            for t in start..start + rounds {
                let states = rolling_states(&profiles, t, window, &loads);
                loads = cold.plan(&states)?.target_mw;
            }
            // The one-shot scheduler exposes no iteration totals; the
            // record contract keeps the field 0 when not applicable.
            records.push(TimingRecord {
                name: format!("hourly_resolve_{rounds}rounds/cold"),
                wall_ms: t0.elapsed_ms(),
                iterations: 0,
                warm_rate: 0.0,
            });
        }
        Ok(records)
    }

    /// Times `rounds` consecutive hourly re-solves of the Table III
    /// network, warm (persistent rolling model) vs cold (rebuild +
    /// two-phase solve).
    fn warm_vs_cold(&self, rounds: usize) -> Result<WarmVsCold, ApiError> {
        let cfg = EmulationConfig::default();
        let profiles = table3_profiles(&self.catalog).ok_or_else(|| {
            ApiError::Engine("catalog lacks the Table III anchor sites".to_string())
        })?;
        let window = cfg.scheduler.window_hours;
        let start = 4080;

        let mut rolling = RollingScheduler::new(cfg.scheduler.clone());
        let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
        let t0 = Stopwatch::start();
        for t in start..start + rounds {
            let states = rolling_states(&profiles, t, window, &loads);
            loads = rolling.plan(&states)?.target_mw;
        }
        let warm_ms = t0.elapsed_ms();

        let cold = Scheduler::new(cfg.scheduler.clone());
        let mut loads = vec![cfg.total_load_mw, 0.0, 0.0];
        let t0 = Stopwatch::start();
        for t in start..start + rounds {
            let states = rolling_states(&profiles, t, window, &loads);
            loads = cold.plan(&states)?.target_mw;
        }
        Ok(WarmVsCold {
            rounds,
            warm_ms,
            cold_ms: t0.elapsed_ms(),
            warm_rate: rolling.stats().warm_rate(),
        })
    }
}
