//! The hourly re-partitioning optimization (paper §V-A).
//!
//! Every hour the GreenNebula scheduler collects current load and a 48-hour
//! green-energy forecast per datacenter, then solves a small optimization —
//! "a variant of the \[siting\] problem where we fix the locations and
//! provisioning and remove the minimum-green constraint" — minimizing the
//! brown energy consumed over the window, including the energy overhead of
//! migrations. The first hour of the resulting trajectory becomes the
//! migration targets handed to the planner.
//!
//! [`RollingScheduler::plan`] is the one entry point. The model is built
//! once over a circular window: each slot keeps the variables and rows of
//! one absolute hour, so advancing an hour recycles the slot of the hour
//! just past and rewrites the model's data in place. One LP solver is kept
//! from round to round, and each re-solve continues from the previous
//! hour's basis, factors and eta file (see `DESIGN.md`). A fresh
//! scheduler's first round is a cold solve, which is how callers get a
//! one-shot plan.

use greencloud_lp::revised::SimplexOptions;
use greencloud_lp::{BranchAndBound, ConId, Model, RevisedSimplex, Sense, SolveError, VarId};

/// Tuning of the hourly re-partitioning scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Look-ahead window, hours (the paper uses 48).
    pub window_hours: usize,
    /// Fraction of an epoch during which migrated load consumes energy at
    /// both ends.
    pub migration_fraction: f64,
    /// Tie-break penalty per MW moved (keeps the schedule from migrating
    /// gratuitously when brown energy is unaffected).
    pub migration_penalty: f64,
    /// When `Some(p)`, hour-0 loads must be integral multiples of a VM's
    /// power `p` (MW) — solved by branch & bound instead of a pure LP.
    pub integral_vm_power_mw: Option<f64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            window_hours: 48,
            migration_fraction: 1.0,
            migration_penalty: 1e-3,
            integral_vm_power_mw: None,
        }
    }
}

/// Per-datacenter state handed to the scheduler each round.
#[derive(Debug, Clone)]
pub struct SiteState {
    /// Green power available per hour of the window, MW.
    pub green_forecast_mw: Vec<f64>,
    /// PUE per hour of the window.
    pub pue_forecast: Vec<f64>,
    /// Load currently hosted, MW.
    pub current_load_mw: f64,
    /// Maximum hostable load, MW.
    pub capacity_mw: f64,
}

/// The scheduler's decision.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Target load per datacenter for the next hour, MW.
    pub target_mw: Vec<f64>,
    /// The full per-site trajectory over the window, MW.
    pub trajectory_mw: Vec<Vec<f64>>,
    /// Brown energy the plan expects over the window, MWh.
    pub brown_mwh: f64,
    /// Optimization objective value.
    pub objective: f64,
}

/// Counters describing how a [`RollingScheduler`] spent its solves.
///
/// Equality compares the deterministic pivot/solve counters only:
/// `pricing_ns` is measured wall time and is excluded, so two replays of
/// the same scenario compare equal even though their clocks differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct RollingStats {
    /// Scheduling rounds solved.
    pub rounds: usize,
    /// Rounds whose solve actually started from the previous basis.
    pub warm_started: usize,
    /// Total simplex iterations across all rounds.
    pub iterations: usize,
    /// Times the persistent model had to be (re)built from scratch.
    pub rebuilds: usize,
    /// Rounds that needed the graceful-degradation retry ladder (rebuild,
    /// cold solve, escalating tolerances) after a numerically failed
    /// solve.
    pub recoveries: usize,
    /// Basis refactorizations across all rounds.
    pub refactorizations: usize,
    /// FTRAN solves across all rounds.
    pub ftrans: usize,
    /// BTRAN solves across all rounds.
    pub btrans: usize,
    /// The LP solver's [`SolveStats::pricing_ns`](greencloud_lp::SolveStats::pricing_ns)
    /// summed over all rounds, ns: pricing plus the pivot-row BTRAN,
    /// gather and reduced-cost upkeep.
    pub pricing_ns: u64,
}

impl RollingStats {
    /// Fraction of rounds that warm-started, in `[0, 1]`.
    pub fn warm_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.warm_started as f64 / self.rounds as f64
        }
    }

    /// [`RollingStats::pricing_ns`] in milliseconds.
    pub fn pricing_ms(&self) -> f64 {
        self.pricing_ns as f64 / 1e6
    }

    fn absorb_solve(&mut self, stats: &greencloud_lp::SolveStats) {
        self.iterations += stats.iterations;
        self.refactorizations += stats.refactorizations;
        self.ftrans += stats.ftrans;
        self.btrans += stats.btrans;
        self.pricing_ns += stats.pricing_ns;
    }
}

impl PartialEq for RollingStats {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.warm_started == other.warm_started
            && self.iterations == other.iterations
            && self.rebuilds == other.rebuilds
            && self.recoveries == other.recoveries
            && self.refactorizations == other.refactorizations
            && self.ftrans == other.ftrans
            && self.btrans == other.btrans
    }
}

impl Eq for RollingStats {}

/// Variable/constraint handles into the persistent window model, kept so
/// successive rounds can overwrite coefficients instead of rebuilding.
///
/// The window is circular: window hour `h` lives in slot `(origin + h) mod
/// H`. Advancing an hour moves `origin`, so every slot keeps the variables
/// of its absolute hour, and the slot of the hour just past is recycled as
/// the window's new last hour.
#[derive(Debug, Clone)]
struct WindowModel {
    model: Model,
    n: usize,
    /// `H`, the number of slots.
    hours: usize,
    /// The slot of window hour 0.
    origin: usize,
    /// `comp[d][s]`: load hosted at site `d` in slot `s`.
    comp: Vec<Vec<VarId>>,
    /// `mig[d][s]`: load migrating out of site `d` during slot `s`.
    mig: Vec<Vec<VarId>>,
    /// `brown[d][s]`: brown power drawn.
    brown: Vec<Vec<VarId>>,
    /// Conservation constraint per slot.
    all: Vec<ConId>,
    /// Migration-floor constraint per site per slot. Each links its slot to
    /// its predecessor; window hour 0's is anchored to the current
    /// placement instead, its predecessor term 0.
    migfloor: Vec<Vec<ConId>>,
    /// Brown-balance constraint per site per slot (green forecast on the
    /// RHS, PUE on the coefficients).
    brown_cons: Vec<Vec<ConId>>,
}

/// Quantizes the hour-0 conservation requirement to a feasible multiple of
/// the VM power `p`: the nearest multiple of `p` to `total_load`, clamped to
/// what the integral per-site capacities can actually host. Without this,
/// `Σ comp[d][0] = total_load` is unsatisfiable whenever the load is not an
/// exact multiple of `p` (e.g. 1.1 MW of load, 0.25 MW VMs).
fn quantize_hour0_load(total_load: f64, p: f64, sites: &[SiteState]) -> f64 {
    let hostable: f64 = sites
        .iter()
        .map(|s| (s.capacity_mw / p).floor().max(0.0))
        .sum();
    let q = (total_load / p).round().clamp(0.0, hostable);
    q * p
}

fn build_window_model(config: &SchedulerConfig, sites: &[SiteState]) -> WindowModel {
    let n = sites.len();
    let h_total = config.window_hours.max(1);
    let total_load: f64 = sites.iter().map(|s| s.current_load_mw).sum();
    let theta = config.migration_fraction;

    let mut model = Model::new();
    let mut comp = vec![Vec::with_capacity(h_total); n];
    let mut mig = vec![Vec::with_capacity(h_total); n];
    let mut brown = vec![Vec::with_capacity(h_total); n];
    for (d, site) in sites.iter().enumerate() {
        for h in 0..h_total {
            let c = if h == 0 {
                if let Some(p) = config.integral_vm_power_mw {
                    // Integral hour-0 loads: comp = p · (integer count).
                    let count = model.add_int_var(
                        format!("n[{d}]"),
                        0.0,
                        (site.capacity_mw / p).floor(),
                        0.0,
                    );
                    let c = model.add_var(format!("comp[{d},0]"), 0.0, site.capacity_mw, 0.0);
                    model.add_con(
                        format!("integral[{d}]"),
                        [(c, 1.0), (count, -p)],
                        Sense::Eq,
                        0.0,
                    );
                    c
                } else {
                    model.add_var(format!("comp[{d},0]"), 0.0, site.capacity_mw, 0.0)
                }
            } else {
                model.add_var(format!("comp[{d},{h}]"), 0.0, site.capacity_mw, 0.0)
            };
            comp[d].push(c);
            mig[d].push(model.add_var(
                format!("mig[{d},{h}]"),
                0.0,
                f64::INFINITY,
                config.migration_penalty,
            ));
            brown[d].push(model.add_var(format!("brown[{d},{h}]"), 0.0, f64::INFINITY, 1.0));
        }
    }

    let mut all = Vec::with_capacity(h_total);
    #[allow(clippy::needless_range_loop)] // h indexes several var families
    for h in 0..h_total {
        // Conservation: all load is hosted somewhere. In integral mode the
        // hour-0 requirement is quantized to the nearest hostable multiple
        // of the VM power so the MILP stays feasible.
        let rhs = match (h, config.integral_vm_power_mw) {
            (0, Some(p)) => quantize_hour0_load(total_load, p, sites),
            _ => total_load,
        };
        all.push(model.add_con(
            format!("all[{h}]"),
            (0..n).map(|d| (comp[d][h], 1.0)),
            Sense::Eq,
            rhs,
        ));
    }
    let mut migfloor = vec![Vec::with_capacity(h_total); n];
    let mut brown_cons = vec![Vec::with_capacity(h_total); n];
    for (d, site) in sites.iter().enumerate() {
        for h in 0..h_total {
            // Migration-out floor; hour 0 links to current placement.
            if h == 0 {
                migfloor[d].push(model.add_con(
                    format!("migfloor[{d},0]"),
                    [(comp[d][h], -theta), (mig[d][h], -1.0)],
                    Sense::Le,
                    -theta * site.current_load_mw,
                ));
            } else {
                migfloor[d].push(model.add_con(
                    format!("migfloor[{d},{h}]"),
                    [
                        (comp[d][h - 1], theta),
                        (comp[d][h], -theta),
                        (mig[d][h], -1.0),
                    ],
                    Sense::Le,
                    0.0,
                ));
            }
            // Brown ≥ PUE·(comp + mig) − green.
            let pue = site.pue_forecast[h];
            brown_cons[d].push(model.add_con(
                format!("brown[{d},{h}]"),
                [(brown[d][h], 1.0), (comp[d][h], -pue), (mig[d][h], -pue)],
                Sense::Ge,
                -site.green_forecast_mw[h],
            ));
        }
    }
    WindowModel {
        model,
        n,
        hours: h_total,
        origin: 0,
        comp,
        mig,
        brown,
        all,
        migfloor,
        brown_cons,
    }
}

impl WindowModel {
    /// The slot of window hour `h`.
    fn slot(&self, h: usize) -> usize {
        (self.origin + h) % self.hours
    }

    /// Advances the window one hour and writes this round's forecasts and
    /// placement into every slot without rebuilding: conservation and
    /// migration-floor right-hand sides, the floors' predecessor terms,
    /// brown-balance PUE coefficients and green right-hand sides, and
    /// capacity bounds. With forecasts indexed by absolute hour, only the
    /// recycled slot's PUE coefficients and the two migration floors whose
    /// window hour-0 role moved change columns.
    fn advance(&mut self, config: &SchedulerConfig, sites: &[SiteState]) {
        let theta = config.migration_fraction;
        self.origin = self.slot(1);
        let total_load: f64 = sites.iter().map(|s| s.current_load_mw).sum();
        for &con in &self.all {
            self.model.set_rhs(con, total_load);
        }
        for (d, site) in sites.iter().enumerate() {
            for h in 0..self.hours {
                let s = self.slot(h);
                let comp = self.comp[d][s];
                self.model.set_bounds(comp, 0.0, site.capacity_mw);
                let con = self.brown_cons[d][s];
                let pue = site.pue_forecast[h];
                self.model.set_con_term(con, comp, -pue);
                self.model.set_con_term(con, self.mig[d][s], -pue);
                self.model.set_rhs(con, -site.green_forecast_mw[h]);
                let (pred, rhs) = if h == 0 {
                    (0.0, -theta * site.current_load_mw)
                } else {
                    (theta, 0.0)
                };
                let floor = self.migfloor[d][s];
                if self.hours > 1 {
                    let prev = self.comp[d][(s + self.hours - 1) % self.hours];
                    self.model.set_con_term(floor, prev, pred);
                }
                self.model.set_rhs(floor, rhs);
            }
        }
    }

    fn extract(&self, sol: &greencloud_lp::Solution) -> SchedulePlan {
        let trajectory: Vec<Vec<f64>> = (0..self.n)
            .map(|d| {
                (0..self.hours)
                    .map(|h| sol[self.comp[d][self.slot(h)]].max(0.0))
                    .collect()
            })
            .collect();
        let brown_mwh: f64 = (0..self.n)
            .map(|d| {
                (0..self.hours)
                    .map(|h| sol[self.brown[d][self.slot(h)]])
                    .sum::<f64>()
            })
            .sum();
        SchedulePlan {
            target_mw: trajectory
                .iter()
                .map(|t| t.first().copied().unwrap_or(0.0))
                .collect(),
            trajectory_mw: trajectory,
            brown_mwh,
            objective: sol.objective,
        }
    }
}

fn validate_sites(config: &SchedulerConfig, sites: &[SiteState]) -> Result<(), SolveError> {
    if sites.is_empty() {
        return Err(SolveError::InvalidModel("no datacenters".into()));
    }
    let h_total = config.window_hours.max(1);
    for s in sites {
        if s.green_forecast_mw.len() < h_total || s.pue_forecast.len() < h_total {
            return Err(SolveError::InvalidModel(
                "forecast shorter than the scheduling window".into(),
            ));
        }
    }
    Ok(())
}

/// The operational scheduler: keeps one persistent window model and one LP
/// solver across hourly rounds, and continues every re-solve from the
/// previous hour's basis and factors. Rebuilds (and cold-solves) only when
/// the site count changes or integral mode forces branch & bound.
#[derive(Debug, Clone, Default)]
pub struct RollingScheduler {
    config: SchedulerConfig,
    window: Option<WindowModel>,
    /// The window LP's solver, which keeps its basis, factors and eta file
    /// from one round to the next.
    solver: RevisedSimplex,
    stats: RollingStats,
}

impl RollingScheduler {
    /// Creates a rolling scheduler with no model built yet.
    pub fn new(config: SchedulerConfig) -> Self {
        Self {
            config,
            window: None,
            solver: RevisedSimplex::default(),
            stats: RollingStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Solve counters accumulated since creation.
    pub fn stats(&self) -> RollingStats {
        self.stats
    }

    /// Drops the persistent model and the kept solver; the next round
    /// rebuilds cold.
    pub fn reset(&mut self) {
        self.window = None;
        self.solver = RevisedSimplex::default();
    }

    /// Computes the re-partitioning plan for the current hour, advancing
    /// the persistent model one hour and continuing from the previous
    /// round's basis.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidModel`] for inconsistent inputs;
    /// [`SolveError::Infeasible`] when the total load exceeds total
    /// capacity; solver errors otherwise.
    pub fn plan(&mut self, sites: &[SiteState]) -> Result<SchedulePlan, SolveError> {
        validate_sites(&self.config, sites)?;

        if self.config.integral_vm_power_mw.is_some() {
            // Branch & bound maintains no exportable basis; integral rounds
            // rebuild the (quantized) MILP from scratch.
            let window = build_window_model(&self.config, sites);
            self.stats.rebuilds += 1;
            let sol = BranchAndBound.solve(&window.model)?;
            self.stats.rounds += 1;
            self.stats.absorb_solve(&sol.stats);
            return Ok(window.extract(&sol));
        }

        // The model is moved out of its slot for the round (and restored on
        // every exit path below), so no panicking `expect` is needed to
        // re-borrow it after the solve.
        let mut window = match self.window.take() {
            Some(mut w) if w.n == sites.len() => {
                w.advance(&self.config, sites);
                w
            }
            _ => {
                self.solver = RevisedSimplex::default();
                self.stats.rebuilds += 1;
                build_window_model(&self.config, sites)
            }
        };
        let sol = match self.solver.solve_kept(&window.model) {
            Ok(s) => s,
            Err(e) if recoverable(&e) => match self.recover(&mut window, sites) {
                Ok(s) => s,
                Err(e) => {
                    self.window = Some(window);
                    return Err(e);
                }
            },
            Err(e) => {
                self.window = Some(window);
                return Err(e);
            }
        };
        self.stats.rounds += 1;
        self.stats.absorb_solve(&sol.stats);
        if sol.warm_started {
            self.stats.warm_started += 1;
        }
        let plan = window.extract(&sol);
        self.window = Some(window);
        Ok(plan)
    }

    /// The graceful-degradation retry ladder for a numerically failed
    /// round (topology changes — a site's capacity collapsing to zero —
    /// can leave the LP singular from the kept basis). The failed solve
    /// already ended in a deterministic restart from the slack basis, so
    /// the ladder rebuilds the model and solves it cold, then with 10× and
    /// 100× relaxed tolerances. Its solvers are not kept: the next round
    /// starts from the slack basis.
    fn recover(
        &mut self,
        window: &mut WindowModel,
        sites: &[SiteState],
    ) -> Result<greencloud_lp::Solution, SolveError> {
        self.stats.recoveries += 1;
        *window = build_window_model(&self.config, sites);
        self.stats.rebuilds += 1;
        let base = SimplexOptions::default();
        let mut last = SolveError::IterationLimit;
        for mult in [1.0, 10.0, 100.0] {
            let opts = SimplexOptions {
                feas_tol: base.feas_tol * mult,
                opt_tol: base.opt_tol * mult,
                ..base.clone()
            };
            match RevisedSimplex::new(opts).solve(&window.model) {
                Err(e) if recoverable(&e) => last = e,
                done => return done,
            }
        }
        Err(last)
    }
}

/// Errors worth retrying through the recovery ladder: numerical trouble
/// and iteration stalls. Infeasible/unbounded/invalid models are facts
/// about the inputs, not the arithmetic.
fn recoverable(e: &SolveError) -> bool {
    matches!(e, SolveError::Numerical(_) | SolveError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(green: Vec<f64>, load: f64, cap: f64) -> SiteState {
        let h = green.len();
        SiteState {
            green_forecast_mw: green,
            pue_forecast: vec![1.0; h],
            current_load_mw: load,
            capacity_mw: cap,
        }
    }

    #[test]
    fn load_follows_the_green_site() {
        // Site 0 is dark, site 1 has abundant green power: everything moves.
        let s0 = site(vec![0.0; 4], 10.0, 20.0);
        let s1 = site(vec![50.0; 4], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 4,
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("plan");
        assert!(plan.target_mw[1] > 9.9, "targets {:?}", plan.target_mw);
        assert!(plan.target_mw[0] < 0.1);
    }

    #[test]
    fn no_gratuitous_migration_when_both_sites_green() {
        let s0 = site(vec![50.0; 4], 10.0, 20.0);
        let s1 = site(vec![50.0; 4], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 4,
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("plan");
        // Both sites are fully green; the migration penalty keeps load put.
        assert!(plan.target_mw[0] > 9.9, "targets {:?}", plan.target_mw);
        assert!((plan.brown_mwh).abs() < 1e-6);
    }

    #[test]
    fn migration_energy_counts() {
        // Moving load costs energy at the donor; if green barely covers the
        // move, the plan can prefer staying.
        let s0 = site(vec![10.5; 2], 10.0, 20.0);
        let s1 = site(vec![10.5; 2], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 2,
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("plan");
        assert!(
            plan.target_mw[0] > 9.9,
            "should not bounce: {:?}",
            plan.target_mw
        );
    }

    #[test]
    fn follows_the_sun_across_a_window() {
        // Green moves from site 0 (hours 0–1) to site 1 (hours 2–3). Site 0
        // keeps just enough green at hour 2 to power the migration out, so
        // migrating exactly at hour 2 is the unique zero-brown schedule.
        let s0 = site(vec![20.0, 20.0, 12.0, 0.0], 10.0, 20.0);
        let s1 = site(vec![0.0, 0.0, 20.0, 20.0], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 4,
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("plan");
        assert!(plan.trajectory_mw[0][0] > 9.9);
        assert!(
            plan.trajectory_mw[0][1] > 9.9,
            "no move before the handoff hour"
        );
        assert!(plan.trajectory_mw[1][2] > 9.9);
        assert!(plan.trajectory_mw[1][3] > 9.9);
    }

    #[test]
    fn infeasible_when_capacity_is_insufficient() {
        let s0 = site(vec![0.0; 2], 30.0, 10.0);
        let s1 = site(vec![0.0; 2], 0.0, 10.0);
        let err = RollingScheduler::new(SchedulerConfig {
            window_hours: 2,
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn integral_mode_quantizes_targets() {
        // Total load is 4 VMs × 0.25 MW; hour-0 targets must stay integral.
        let s0 = site(vec![0.0; 3], 1.0, 20.0);
        let s1 = site(vec![50.0; 3], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 3,
            integral_vm_power_mw: Some(0.25),
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("plan");
        for &t in &plan.target_mw {
            let q = t / 0.25;
            assert!((q - q.round()).abs() < 1e-5, "target {t} not integral");
        }
        let sum: f64 = plan.target_mw.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn integral_mode_survives_fractional_total_load() {
        // 1.1 MW of load with 0.25 MW VMs: Σ comp[d][0] can only reach
        // multiples of 0.25, so the unquantized MILP was infeasible. The
        // quantized hour-0 conservation rounds to the nearest multiple.
        let s0 = site(vec![0.0; 3], 1.1, 20.0);
        let s1 = site(vec![50.0; 3], 0.0, 20.0);
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 3,
            integral_vm_power_mw: Some(0.25),
            ..SchedulerConfig::default()
        })
        .plan(&[s0, s1])
        .expect("quantized MILP stays feasible");
        for &t in &plan.target_mw {
            let q = t / 0.25;
            assert!((q - q.round()).abs() < 1e-5, "target {t} not integral");
        }
        // 1.1 / 0.25 = 4.4 rounds to 4 VMs = 1.0 MW at hour 0.
        let sum: f64 = plan.target_mw.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn integral_quantization_respects_capacity() {
        // Capacity admits at most 3 whole VMs per site; rounding up past
        // the hostable count would reintroduce infeasibility.
        let sites = [
            site(vec![0.0; 2], 0.9, 0.95),
            site(vec![5.0; 2], 0.95, 0.95),
        ];
        let plan = RollingScheduler::new(SchedulerConfig {
            window_hours: 2,
            integral_vm_power_mw: Some(0.25),
            ..SchedulerConfig::default()
        })
        .plan(&sites)
        .expect("clamped to hostable VMs");
        let sum: f64 = plan.target_mw.iter().sum();
        // 1.85 / 0.25 = 7.4 → 7 VMs, but only 3 + 3 fit: clamp to 6.
        assert!((sum - 1.5).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn short_forecast_is_rejected() {
        let s0 = site(vec![0.0; 2], 1.0, 2.0);
        let err = RollingScheduler::new(SchedulerConfig {
            window_hours: 4,
            ..SchedulerConfig::default()
        })
        .plan(&[s0])
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidModel(_)));
    }

    /// Synthetic day/night production and PUE for two anti-phased sites
    /// over an absolute-hour axis, sliced into the window starting at hour
    /// `t`. Site 1 is dark in the hours of `outage`: no capacity and no
    /// green power.
    fn rolling_states(
        t: usize,
        window: usize,
        loads: [f64; 2],
        outage: std::ops::Range<usize>,
    ) -> Vec<SiteState> {
        let wave = |h: usize, phase: f64| (h as f64 / 24.0 * std::f64::consts::TAU + phase).sin();
        (0..2)
            .map(|d| {
                let phase = std::f64::consts::PI * d as f64;
                let down = d == 1 && outage.contains(&t);
                SiteState {
                    green_forecast_mw: (0..window)
                        .map(|k| {
                            if down {
                                0.0
                            } else {
                                (14.0 * wave(t + k, phase)).max(0.0)
                            }
                        })
                        .collect(),
                    pue_forecast: (0..window)
                        .map(|k| 1.25 + 0.15 * wave(t + k, phase + 1.0))
                        .collect(),
                    current_load_mw: loads[d],
                    capacity_mw: if down { 0.0 } else { 20.0 },
                }
            })
            .collect()
    }

    #[test]
    fn rolling_matches_one_shot_and_warm_starts() {
        // Two anti-phased sites re-planned hourly over three simulated
        // days, loads following the previous round's targets — the
        // emulation's exact call pattern. PUE varies by absolute hour, so
        // every recycled slot's coefficients change, and site 1 is dark
        // for two hours, its load evacuated to site 0. The rolling
        // scheduler must agree with a fresh scheduler's cold solve every
        // hour, keep its one model, and continue nearly every round from
        // the kept factors without refactorizing.
        let config = SchedulerConfig {
            window_hours: 12,
            ..SchedulerConfig::default()
        };
        let mut rolling = RollingScheduler::new(config.clone());
        let mut loads = [10.0, 0.0];
        let rounds = 72;
        let outage = 30..32;
        for t in 0..rounds {
            if outage.contains(&t) {
                loads = [loads[0] + loads[1], 0.0];
            }
            let sites = rolling_states(t, 12, loads, outage.clone());
            let a = rolling.plan(&sites).expect("rolling plan");
            let b = RollingScheduler::new(config.clone())
                .plan(&sites)
                .expect("one-shot plan");
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1.0);
            assert!(
                close(a.objective, b.objective),
                "hour {t}: rolling {} vs one-shot {}",
                a.objective,
                b.objective
            );
            assert!(
                close(a.brown_mwh, b.brown_mwh),
                "hour {t}: rolling {} vs one-shot {} MWh",
                a.brown_mwh,
                b.brown_mwh
            );
            loads = [a.target_mw[0], a.target_mw[1]];
        }
        let stats = rolling.stats();
        assert_eq!(stats.rounds, rounds);
        assert_eq!(stats.rebuilds, 1, "model built exactly once");
        assert_eq!(stats.warm_started, rounds - 1, "{stats:?}");
        assert!(
            stats.refactorizations * 3 < rounds,
            "expected factors kept across rounds, got {stats:?}"
        );
    }

    #[test]
    fn rolling_rebuilds_when_site_count_changes() {
        let mut rolling = RollingScheduler::new(SchedulerConfig {
            window_hours: 3,
            ..SchedulerConfig::default()
        });
        let two = [site(vec![9.0; 3], 5.0, 20.0), site(vec![0.0; 3], 0.0, 20.0)];
        rolling.plan(&two).expect("two sites");
        let three = [
            site(vec![9.0; 3], 5.0, 20.0),
            site(vec![0.0; 3], 0.0, 20.0),
            site(vec![4.0; 3], 0.0, 20.0),
        ];
        rolling.plan(&three).expect("three sites");
        assert_eq!(rolling.stats().rebuilds, 2);
        rolling.plan(&three).expect("steady state");
        assert_eq!(rolling.stats().rebuilds, 2, "no extra rebuild");
    }

    #[test]
    fn capacity_collapse_shifts_without_rebuild() {
        // A site outage is presented to the scheduler as capacity (and
        // forecast) dropping to zero with the site count unchanged; the
        // persistent model must absorb it through `advance` and plan all
        // load onto the survivor, then recover when the site returns.
        let mut rolling = RollingScheduler::new(SchedulerConfig {
            window_hours: 4,
            ..SchedulerConfig::default()
        });
        let healthy = [
            site(vec![30.0; 4], 10.0, 20.0),
            site(vec![30.0; 4], 0.0, 20.0),
        ];
        rolling.plan(&healthy).expect("healthy round");
        let dead0 = [
            SiteState {
                green_forecast_mw: vec![0.0; 4],
                pue_forecast: vec![1.0; 4],
                current_load_mw: 0.0, // evacuated before the round
                capacity_mw: 0.0,
            },
            site(vec![30.0; 4], 10.0, 20.0),
        ];
        let plan = rolling.plan(&dead0).expect("degraded round");
        assert!(plan.target_mw[0] < 1e-9, "dead site hosts nothing");
        assert!((plan.target_mw[1] - 10.0).abs() < 1e-6);
        let back = rolling.plan(&healthy).expect("recovered round");
        let sum: f64 = back.target_mw.iter().sum();
        assert!((sum - 10.0).abs() < 1e-6);
        assert_eq!(rolling.stats().rebuilds, 1, "no rebuild across the outage");
        assert_eq!(rolling.stats().recoveries, 0, "advance alone sufficed");
    }

    #[test]
    fn rolling_reset_forgets_the_basis() {
        let mut rolling = RollingScheduler::new(SchedulerConfig {
            window_hours: 3,
            ..SchedulerConfig::default()
        });
        let sites = [site(vec![9.0; 3], 5.0, 20.0), site(vec![2.0; 3], 0.0, 20.0)];
        rolling.plan(&sites).expect("first");
        rolling.reset();
        rolling.plan(&sites).expect("after reset");
        assert_eq!(rolling.stats().rebuilds, 2);
    }
}
