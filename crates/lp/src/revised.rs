//! Bounded-variable revised simplex with sparse LU basis factorization.
//!
//! This is the production LP solver of the workspace. It works on the
//! computational form `A·x + s = b`, `l ≤ x ≤ u`, where each constraint row
//! gets a slack whose bounds encode the row sense. Between refactorizations
//! the basis inverse is maintained as a product of eta matrices; every few
//! dozen pivots the basis is refactorized from scratch with
//! [`crate::lu::SparseLu`] and the basic solution is recomputed to shed
//! accumulated error.
//!
//! # Starting bases
//!
//! Every solve runs one path from some starting basis: dual-simplex pivots
//! restore primal feasibility, then primal phase 2 certifies optimality. A
//! warm start begins from the [`Basis`] it is offered. A solve offered none
//! begins from the all-slack basis (`B = I`, so it can never be singular),
//! with every structural at the finite bound nearest zero, and its
//! restoration picks leaving rows by dual steepest edge (Forrest &
//! Goldfarb, 1992).
//!
//! A kept solver ([`RevisedSimplex::solve_kept`]) starts instead from the
//! basis, factors and eta file its last solve ended with, after replacing
//! the basic columns the caller's edits changed by eta updates.
//!
//! The path proves its own verdicts. A violated row whose pivot row offers
//! no entering column proves the LP infeasible: no move of the nonbasic
//! columns within their boxes brings the row's basic variable closer to
//! its bound. A primal ray from the restored, primal-feasible basis proves
//! it unbounded. A warm start that ends any other way (a stalled
//! restoration, the iteration limit, numerical trouble) restarts once from
//! the slack basis, and a slack start's error is the answer.
//!
//! # Pricing
//!
//! Nonbasic reduced costs are maintained *incrementally*: each pivot updates
//! them from the pivot row `αᵣ = ρᵀ·A` (with `ρ = B⁻ᵀ·eᵣ` a hyper-sparse
//! unit BTRAN, and the gather done by sparse row access over the live
//! entries of a row copy of the column matrix), so choosing an entering
//! column is a scan of a dense array instead of an `O(nnz(A))` rescan plus
//! BTRAN per iteration. The
//! entering choice itself is governed by [`PricingMode`]: devex
//! reference-framework pricing by default, with classic Dantzig
//! available. Degenerate stalls switch to Bland's rule, which guarantees
//! termination; optimality is only ever declared on freshly recomputed
//! (exact) reduced costs.
//!
//! # Per-pivot work
//!
//! Every factorization renumbers the basis slots to its pivot positions, so
//! the FTRAN, BTRAN and steepest-edge FTRAN run in place with no
//! permutation pass, and each keeps an ascending list of its result's
//! nonzeros. The basic-solution updates, the ratio test, the reduced-cost
//! anchor, the eta push and the steepest-edge update walk those lists, not
//! all `m` slots, and the restoration takes its leaving row from a bitmap
//! of the violated slots. No choice depends on how anything is stored:
//! the factors are computed from the basic columns in ascending column
//! order, and every tie in a selection goes to the lower column.

// Index loops here sweep multiple parallel arrays of the numerical kernel;
// iterator rewrites obscure the linear algebra.
#![allow(clippy::needless_range_loop)]
use crate::lu::{ColMatrix, FactorizeError, RowMatrix, SparseLu};
use crate::model::{Model, Sense, Solution, SolveError};
use crate::propagate;
use crate::wallclock::Stopwatch;

/// Status of one column in an exported [`Basis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis (its value is determined by the basic solve).
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free column parked at zero.
    Free,
}

/// A snapshot of the simplex basis at the end of a solve: one status per
/// structural variable followed by one per constraint slack (in model
/// order). Feed it back via [`RevisedSimplex::solve_warm`] to warm-start a
/// re-solve of the same model — or of a *neighbouring* model with the same
/// shape (identical variable/constraint counts, possibly different bounds,
/// coefficients, RHS, or objective). The solver validates the snapshot
/// against the new model (dimension check, bound repair, singularity check
/// via [`crate::lu::SparseLu`]) and starts from the slack basis instead
/// when it cannot be installed, or when its restoration or phase 2 stalls
/// without proving the model infeasible or unbounded, so warm starts never
/// change *what* is solved — only how fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    statuses: Vec<BasisStatus>,
}

impl Basis {
    /// Builds a snapshot from raw statuses (structural variables first,
    /// then one slack per constraint).
    pub fn from_statuses(statuses: Vec<BasisStatus>) -> Self {
        Self { statuses }
    }

    /// The per-column statuses (structural variables, then slacks).
    pub fn statuses(&self) -> &[BasisStatus] {
        &self.statuses
    }

    /// Number of columns covered (num_vars + num_cons of the source model).
    pub fn len(&self) -> usize {
        self.statuses.len()
    }

    /// `true` for the empty model's basis.
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty()
    }
}

/// Entering-column pricing rule for the revised simplex.
///
/// Both modes share the same incrementally maintained reduced costs and the
/// same Bland's-rule anti-cycling escape; they differ only in how the next
/// entering column is chosen from those reduced costs. Neither wins
/// everywhere on the siting LPs: Dantzig takes fewer iterations on most
/// Table III sitings, devex on every 3–4-site Fig. 7 siting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingMode {
    /// Devex reference-framework pricing: columns are ranked by
    /// `d²/w` where the weight `w` approximates the steepest-edge norm and
    /// is updated per pivot from the pivot row. Weights persist across
    /// refactorizations (resetting them there was measured to cost
    /// iterations) and restart from 1 at phase entry and after a
    /// singular-basis repair. The default.
    #[default]
    Devex,
    /// Classic Dantzig pricing: most negative reduced cost.
    Dantzig,
}

/// Per-solve counters of the revised simplex, reported in
/// [`crate::Solution::stats`] so callers can see where the time went.
///
/// Equality compares the deterministic pivot/solve counters only:
/// `pricing_ns` is measured wall time and is excluded, so two replays of
/// the same solve compare equal even though their clocks differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Simplex iterations (dual restoration + phase 2), including those of
    /// a discarded warm attempt that restarted from the slack basis.
    pub iterations: usize,
    /// Basis refactorizations (includes the final accuracy refactorization
    /// before extraction).
    pub refactorizations: usize,
    /// FTRAN solves (`B⁻¹·a`) performed.
    pub ftrans: usize,
    /// BTRAN solves (`B⁻ᵀ·y`) performed, dense and unit-vector alike.
    pub btrans: usize,
    /// Wall time of pricing and the pivot-row work around it: selecting
    /// entering columns, the dense reduced-cost recomputes, the pivot-row
    /// BTRAN and gather, and the reduced-cost and devex-weight updates, in
    /// the primal iterations and in the dual restoration.
    pub pricing_ns: u64,
    /// Warm starts restarted from the slack basis because their restoration
    /// or phase 2 stalled or broke down (at most 1 per solve; summed by
    /// [`SolveStats::absorb`]). A warm start that proves the model
    /// infeasible or unbounded returns that verdict and counts none.
    pub fallbacks: usize,
}

impl SolveStats {
    /// Adds `other`'s counters into `self` (used to carry the work of a
    /// discarded attempt into the reported totals, and to sum solves).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.refactorizations += other.refactorizations;
        self.ftrans += other.ftrans;
        self.btrans += other.btrans;
        self.pricing_ns += other.pricing_ns;
        self.fallbacks += other.fallbacks;
    }

    /// [`SolveStats::pricing_ns`] in milliseconds.
    pub fn pricing_ms(&self) -> f64 {
        self.pricing_ns as f64 / 1e6
    }
}

impl PartialEq for SolveStats {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.refactorizations == other.refactorizations
            && self.ftrans == other.ftrans
            && self.btrans == other.btrans
            && self.fallbacks == other.fallbacks
    }
}

impl Eq for SolveStats {}

/// Tuning knobs for [`RevisedSimplex`].
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Primal feasibility tolerance (bound violations up to this are
    /// tolerated).
    pub feas_tol: f64,
    /// Dual feasibility (optimality) tolerance on reduced costs.
    pub opt_tol: f64,
    /// Entering-column selection rule (see [`PricingMode`]).
    pub pricing: PricingMode,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pricing: PricingMode::default(),
        }
    }
}

/// The solver object; construct with options, then call
/// [`RevisedSimplex::solve`], or [`RevisedSimplex::solve_kept`] to re-solve
/// an edited model from where the last solve ended.
#[derive(Debug, Clone, Default)]
pub struct RevisedSimplex {
    options: SimplexOptions,
    /// The worker of the last successful [`RevisedSimplex::solve_kept`]:
    /// its basis, factors and eta file.
    kept: Option<Worker>,
}

impl RevisedSimplex {
    /// Creates a solver with the given options.
    pub fn new(options: SimplexOptions) -> Self {
        Self {
            options,
            kept: None,
        }
    }

    /// Solves `model`.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve(&self, model: &Model) -> Result<Solution, SolveError> {
        self.solve_warm(model, None)
    }

    /// Solves `model`, optionally warm-starting from a basis exported by a
    /// previous [`Solution`].
    ///
    /// The warm basis is repaired against the model's current bounds and
    /// refactorized, with singular basic sets repaired column-by-column
    /// (dependent columns swapped for uncovered-row slacks). A basis whose
    /// basic solution violates bounds — routine after a rolling-horizon
    /// caller shifts the model's RHS or coefficients in place — is driven
    /// back to primal feasibility by dual-simplex pivots before ordinary
    /// phase 2 certifies optimality.
    ///
    /// Offered no basis (or one that cannot be installed), the solve takes
    /// the same path from the all-slack basis, its restoration choosing
    /// leaving rows by dual steepest edge; [`Solution::warm_started`] stays
    /// `false`. The path proves infeasibility and unboundedness itself (see
    /// the module docs), from any starting basis. A warm start that ends in
    /// any other error restarts once from the slack basis (counted in
    /// [`SolveStats::fallbacks`], its work kept in the totals), so an
    /// offered basis never changes the answer; a slack start's error is the
    /// answer.
    ///
    /// Before any basis is built, row-activity bound propagation looks for
    /// a proof that the model is infeasible; when it finds one the solve
    /// returns [`SolveError::Infeasible`] without a single pivot. The proof
    /// only reads the model and tolerates `10·feas_tol` per row, so it
    /// never changes the answer to a model the simplex would solve.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_warm(&self, model: &Model, warm: Option<&Basis>) -> Result<Solution, SolveError> {
        model.validate()?;
        if propagate::infeasible_at_pass(model, self.options.feas_tol).is_some() {
            return Err(SolveError::Infeasible);
        }
        let mut w = Worker::build(model, &self.options);
        // Validate-then-commit: a rejected basis leaves the slack basis
        // untouched, so the solve simply starts from there.
        let warm_installed = warm.is_some_and(|basis| w.try_install_basis(basis).is_ok());
        self.run(model, w, warm_installed, || {
            Ok(Worker::build(model, &self.options))
        })
        .map(|(sol, _)| sol)
    }

    /// Solves `model` and keeps the final basis, its factors and its eta
    /// file for the next call: the path for a caller that edits one model
    /// in place and re-solves it, as the hourly scheduler does.
    ///
    /// With nothing kept, or a model of another shape (variable or
    /// constraint count) than the kept solve's, the solve starts from the
    /// slack basis as [`RevisedSimplex::solve`] does. Otherwise it continues
    /// from the kept basis and factors: bounds, costs, right-hand sides and
    /// columns are reloaded from `model`, each basic column whose entries
    /// changed is replaced by an eta,
    /// nonbasic statuses are remapped to the new bounds, and the
    /// restoration and phase 2 run as on a warm start, with
    /// [`Solution::warm_started`] set. A continued solve that ends in
    /// anything but a proof of infeasibility or unboundedness restarts once
    /// from the slack basis, and kept state that cannot be carried over (a
    /// singular basis beyond repair) is dropped for the slack basis, so the
    /// kept state never changes the answer. Any error drops it too.
    ///
    /// The values are read from `x_B` recomputed through the kept factors
    /// and etas rather than after a final refactorization: the factors
    /// serve the next call, and the refactorization interval still bounds
    /// the eta file.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_kept(&mut self, model: &Model) -> Result<Solution, SolveError> {
        let kept = self.kept.take();
        model.validate()?;
        // The restoration proves infeasibility from any start, so only a
        // slack start, a continued solve's restart included, first looks
        // for the propagation's cheaper proof.
        let slack_start = || {
            if propagate::infeasible_at_pass(model, self.options.feas_tol).is_some() {
                return Err(SolveError::Infeasible);
            }
            Ok(Worker {
                keep: true,
                ..Worker::build(model, &self.options)
            })
        };
        let continued = kept
            .filter(|w| w.n_struct == model.num_vars() && w.m == model.num_cons())
            .and_then(|mut w| w.refresh(model).is_ok().then_some(w));
        let (sol, w) = match continued {
            Some(w) => self.run(model, w, true, slack_start)?,
            None => self.run(model, slack_start()?, false, slack_start)?,
        };
        self.kept = Some(w);
        Ok(sol)
    }

    /// Optimizes from `w`'s installed basis when `warm`, else from its slack
    /// basis, and extracts the solution. A warm attempt's proofs stand. Any
    /// other error may be the starting basis's doing: restart once from the
    /// slack basis of the worker `slack_start` builds, keeping the work
    /// burned in the attempt in the totals. The worker that solved is
    /// handed back with the solution.
    fn run(
        &self,
        model: &Model,
        mut w: Worker,
        warm: bool,
        slack_start: impl FnOnce() -> Result<Worker, SolveError>,
    ) -> Result<(Solution, Worker), SolveError> {
        let mut discarded = None;
        let mut warm_solved = false;
        if warm {
            match w.restore_and_optimize(LeavingRule::MaxViolation) {
                Ok(()) => warm_solved = true,
                Err(e @ (SolveError::Infeasible | SolveError::Unbounded)) => return Err(e),
                Err(_) => {
                    discarded = Some(w.stats());
                    w = slack_start()?;
                }
            }
        }
        if !warm_solved {
            w.factorize_slack_basis()?;
            w.restore_and_optimize(LeavingRule::SteepestEdge)?;
        }
        let mut sol = w.extract(model);
        sol.warm_started = warm_solved;
        if let Some(attempt) = discarded {
            sol.stats.absorb(&attempt);
            sol.stats.fallbacks += 1;
        }
        Ok((sol, w))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free variable currently parked at zero.
    FreeAtZero,
}

/// What pricing needs to know of a column, in one byte beside `d`: the
/// scan then reads neither the 16-byte [`ColStatus`] nor the bounds.
/// Written only by [`Worker::set_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum PriceState {
    /// Basic, or nonbasic with `lb == ub`: never an entering candidate.
    Off,
    AtLower,
    AtUpper,
    /// A free column parked at zero.
    Free,
}

fn price_state(st: ColStatus, lb: f64, ub: f64) -> PriceState {
    match st {
        ColStatus::Basic(_) => PriceState::Off,
        _ if lb == ub => PriceState::Off,
        ColStatus::AtLower => PriceState::AtLower,
        ColStatus::AtUpper => PriceState::AtUpper,
        ColStatus::FreeAtZero => PriceState::Free,
    }
}

#[derive(Debug, Clone)]
struct Eta {
    slot: usize,
    pivot: f64,
    /// Off-pivot entries `(slot, value)` of the transformed entering column,
    /// in ascending slot.
    entries: Vec<(usize, f64)>,
    /// The slots of `entries` as a bitmap, one bit per basis slot.
    pattern: Vec<u64>,
}

impl Eta {
    /// The eta of `entries` over `m` slots.
    fn new(slot: usize, pivot: f64, entries: Vec<(usize, f64)>, m: usize) -> Self {
        let mut eta = Eta {
            slot,
            pivot,
            entries,
            pattern: Vec::new(),
        };
        eta.index(m);
        eta
    }

    /// Rebuilds `pattern` from `entries`.
    fn index(&mut self, m: usize) {
        self.pattern.clear();
        self.pattern.resize(m.div_ceil(64), 0);
        for &(i, _) in &self.entries {
            set_bit(&mut self.pattern, i, true);
        }
    }
}

/// An eta whose entries outnumber the listed nonzeros of `y` by this
/// factor or more is applied by binary searches for those nonzeros; a
/// shorter one by a dot product over all its entries.
const ETA_HYPER_RATIO: usize = 16;

/// Applies the eta file transposed, newest eta first: the eta half of a
/// BTRAN, `y ← E₁⁻ᵀ⋯Eₖ⁻ᵀ·y`. Each eta sets `y[slot] ← (y[slot] − Σᵢ
/// vᵢ·y[i]) / pivot` over its entries in ascending slot.
///
/// `nz`, when given, lists in ascending order every slot where `y` may be
/// nonzero, and is kept so. An eta then costs what it touches: its entries
/// at listed slots are found by binary search and subtracted in ascending
/// slot, and an eta that touches no nonzero is skipped. The dense path
/// subtracts the same nonzero terms in the same order, so the two agree
/// bit for bit up to the sign of a zero. `None` (a dense `y`) takes the dot
/// product for every eta.
fn eta_btran(etas: &[Eta], y: &mut [f64], mut nz: Option<&mut Vec<usize>>) {
    for eta in etas.iter().rev() {
        let mut s = y[eta.slot];
        match nz.as_deref() {
            Some(list) if list.len() * ETA_HYPER_RATIO <= eta.entries.len() => {
                let mut hit = s != 0.0;
                for &i in list {
                    if let Ok(t) = eta.entries.binary_search_by_key(&i, |&(slot, _)| slot) {
                        s -= eta.entries[t].1 * y[i];
                        hit = true;
                    }
                }
                if !hit {
                    continue;
                }
            }
            _ => {
                for &(i, v) in &eta.entries {
                    s -= v * y[i];
                }
            }
        }
        let v = s / eta.pivot;
        y[eta.slot] = v;
        if let Some(list) = nz.as_deref_mut() {
            if v != 0.0 {
                if let Err(at) = list.binary_search(&eta.slot) {
                    list.insert(at, eta.slot);
                }
            }
        }
    }
}

/// Applies the eta file in order, oldest eta first: the eta half of an
/// FTRAN, `w ← Eₖ⁻¹⋯E₁⁻¹·w`. `nz` lists, ascending and without repeats,
/// every slot where `w` may be nonzero, and is kept so: a slot an eta
/// writes to joins it.
///
/// `members` is a bitmap over the slots, all zero on entry and on return.
/// It holds the list's slots while the etas run, and each eta applied adds
/// its pattern to it, a word at a time; if any slot joined, one scan of
/// its words lists them all in ascending order, with no sort.
fn eta_ftran(etas: &[Eta], w: &mut [f64], nz: &mut Vec<usize>, members: &mut [u64]) {
    for &i in nz.iter() {
        set_bit(members, i, true);
    }
    let mut joined = false;
    for eta in etas {
        let t = w[eta.slot] / eta.pivot;
        if t != 0.0 {
            for &(i, v) in &eta.entries {
                w[i] -= v * t;
            }
            for (word, &bits) in members.iter_mut().zip(&eta.pattern) {
                joined |= bits & !*word != 0;
                *word |= bits;
            }
        }
        w[eta.slot] = t;
    }
    if joined {
        nz.clear();
        for (at, word) in members.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                nz.push(at * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    } else {
        for &i in nz.iter() {
            set_bit(members, i, false);
        }
    }
}

/// Whether basic value `x` lies outside `[lo, hi]` by more than `tol`, or
/// is not finite.
#[inline]
fn violates(x: f64, lo: f64, hi: f64, tol: f64) -> bool {
    !x.is_finite() || x < lo - tol || x > hi + tol
}

/// Sets bit `s` of `bits` to `on`.
#[inline]
fn set_bit(bits: &mut [u64], s: usize, on: bool) {
    let mask = 1u64 << (s % 64);
    if on {
        bits[s / 64] |= mask;
    } else {
        bits[s / 64] &= !mask;
    }
}

/// Refactorize the basis after this many eta updates.
const REFACTOR_EVERY: usize = 64;

/// Pivot elements at or below this magnitude are never pivoted on.
const PIV_TOL: f64 = 1e-9;

/// Consecutive degenerate pivots before switching to Bland's rule. Bland's
/// rule is the last-resort anti-cycling escape, not a degeneracy strategy:
/// devex pricing walks degenerate plateaus productively (the battery-chain
/// LPs take hundreds of zero-step pivots on the way to the optimum), while
/// Bland crawls. Engage it only after a pathological streak.
const BLAND_AFTER: usize = 1000;

/// Consecutive entering candidates the exact reduced-cost anchor may reject
/// before the basis is refactorized (and, on a fresh factorization, before
/// the phase gives up with [`SolveError::Numerical`]).
const REJECTED_STREAK_MAX: usize = 16;

#[derive(Debug, Clone)]
struct Worker {
    opts: SimplexOptions,
    m: usize,
    n_struct: usize,
    /// Structural columns, then one slack per row.
    n_total: usize,
    cols: ColMatrix,
    /// Row copy of `cols` for pivot-row gathers (`αᵣ = ρᵀ·A` by sparse
    /// row access instead of scanning every column). A column is live in
    /// it while its pricing state is not [`PriceState::Off`], so each
    /// gather reads only the entries of columns that can enter.
    rows: RowMatrix,
    lb: Vec<f64>,
    ub: Vec<f64>,
    cost: Vec<f64>,
    rhs: Vec<f64>,
    status: Vec<ColStatus>,
    /// Pricing state of every column, in step with `status` and the bounds.
    state: Vec<PriceState>,
    /// The column in each basis slot. Every factorization renumbers the
    /// slots to its pivot positions (see [`Worker::factorize`]), so slot
    /// space and the factors' position space are one.
    basis: Vec<usize>,
    xb: Vec<f64>,
    /// One bit per slot, set while `xb` violates its column's bounds by
    /// more than `feas_tol` or is not finite: the restoration's leaving-row
    /// candidates, kept by every update of `xb`.
    infeasible: Vec<u64>,
    /// Factors of the installed basis; empty until a warm basis installs
    /// or the slack basis is factorized for a slack start.
    lu: SparseLu,
    /// The basic columns in ascending order, as the last factorization
    /// read them.
    factor_order: Vec<usize>,
    etas: Vec<Eta>,
    /// Cleared etas, whose buffers [`Worker::push_eta`] reuses.
    spent_etas: Vec<Eta>,
    scratch: Vec<f64>,
    work_y: Vec<f64>,
    work_w: Vec<f64>,
    /// Ascending slots where `work_w` may be nonzero.
    w_nz: Vec<usize>,
    /// Unit-BTRAN output `ρ = B⁻ᵀ·eᵣ` (row `r` of the basis inverse), in
    /// position space: entry `p` belongs to row `lu.row_at(p)`.
    work_rho: Vec<f64>,
    /// Ascending positions where `work_rho` may be nonzero.
    rho_nz: Vec<usize>,
    /// Ratio-test survivors `(slot, δ, bound)` of pass 1, in slot order.
    ratio_cands: Vec<(usize, f64, f64)>,
    /// Dense pivot-row workspace: entry `j` belongs to the last pivot row
    /// when `alpha_stamp[j] == alpha_gen` (see [`Worker::alpha`]), and
    /// `alpha_touched` lists those columns.
    work_alpha: Vec<f64>,
    alpha_stamp: Vec<u32>,
    alpha_gen: u32,
    alpha_touched: Vec<usize>,
    /// Maintained reduced costs of every column (basic entries are 0).
    d: Vec<f64>,
    /// Devex reference-framework weights.
    devex_w: Vec<f64>,
    /// Dual steepest-edge weights `β_i ≈ ‖ρ_i‖²`, one per basis slot; 1 is
    /// exact in the slack basis. Only a slack start's restoration reads
    /// or updates them.
    dse_w: Vec<f64>,
    /// FTRAN output `τ = B⁻¹·ρ_r` of the steepest-edge update.
    work_tau: Vec<f64>,
    /// Ascending slots where `work_tau` may be nonzero.
    tau_nz: Vec<usize>,
    /// Scratch of the solves: a merge buffer, the nonzeros of a dense
    /// solve, which nothing reads, and the slot bitmap of [`eta_ftran`].
    spare: Vec<usize>,
    dense_nz: Vec<usize>,
    members: Vec<u64>,
    /// Eligible restoration candidates `(q, dir, ratio, |α_q|)`, gathered
    /// by the first pass of [`Worker::restoration_candidate`].
    restore_cands: Vec<(usize, f64, f64, f64)>,
    /// `d` must be recomputed from scratch before the next pricing scan
    /// (set after refactorization, a basis install or repair, and drift
    /// detection).
    d_stale: bool,
    /// `d` holds exactly recomputed values (no incremental updates since
    /// the last full recompute). Optimality is only declared when true.
    d_exact: bool,
    /// `GC_LP_PARANOID` was set at solver construction (env var read once,
    /// not per iteration).
    paranoid: bool,
    /// The worker outlives its solve, as a kept solver's does
    /// ([`RevisedSimplex::solve_kept`]), so its extract leaves the factors
    /// and eta file to the next solve instead of refactorizing.
    keep: bool,
    iterations: usize,
    max_iterations: usize,
    n_refactor: usize,
    n_ftran: usize,
    n_btran: usize,
    pricing_ns: u64,
}

impl Worker {
    fn build(model: &Model, opts: &SimplexOptions) -> Self {
        let m = model.num_cons();
        let n_struct = model.num_vars();
        let n_total = n_struct + m;

        let cols = columns(model);
        let (lb, ub): (Vec<f64>, Vec<f64>) = column_bounds(model).unzip();
        let cost: Vec<f64> = model
            .vars
            .iter()
            .map(|v| v.obj)
            .chain(std::iter::repeat_n(0.0, m))
            .collect();
        let rhs: Vec<f64> = model.cons.iter().map(|c| c.rhs).collect();

        // Slack basis: every structural column nonbasic at the finite bound
        // nearest zero (free columns parked at zero), every slack basic in
        // its row's slot. B = I, so the basic solution is the residual of
        // the nonbasic point. It is factorized only if the solve starts
        // from it (`Worker::factorize_slack_basis`): a warm install brings
        // its own factors.
        let mut status = vec![ColStatus::AtLower; n_total];
        for j in 0..n_struct {
            status[j] = initial_status(lb[j], ub[j]);
        }
        let mut xb = rhs.clone();
        for j in 0..n_struct {
            let v = nonbasic_value(status[j], lb[j], ub[j]);
            if v != 0.0 {
                for (r, a) in cols.col(j) {
                    xb[r] -= a * v;
                }
            }
        }
        let basis: Vec<usize> = (n_struct..n_total).collect();
        for (slot, &sj) in basis.iter().enumerate() {
            status[sj] = ColStatus::Basic(slot);
        }

        // Hard cap on simplex iterations across the restoration and phase
        // 2, scaled with the problem size.
        let max_iterations = (20 * (m + n_struct)).max(2_000);

        let mut w = Worker {
            opts: opts.clone(),
            m,
            n_struct,
            n_total,
            cols,
            rows: RowMatrix::default(),
            lb,
            ub,
            cost,
            rhs,
            status: Vec::new(),
            state: Vec::new(),
            basis,
            xb,
            infeasible: vec![0; m.div_ceil(64)],
            lu: SparseLu::default(),
            factor_order: Vec::new(),
            etas: Vec::new(),
            spent_etas: Vec::new(),
            scratch: Vec::new(),
            work_y: vec![0.0; m],
            work_w: vec![0.0; m],
            w_nz: Vec::new(),
            work_rho: vec![0.0; m],
            rho_nz: Vec::new(),
            ratio_cands: Vec::new(),
            work_alpha: vec![0.0; n_total],
            alpha_stamp: vec![0; n_total],
            alpha_gen: 0,
            alpha_touched: Vec::new(),
            d: vec![0.0; n_total],
            devex_w: vec![1.0; n_total],
            dse_w: vec![1.0; m],
            work_tau: vec![0.0; m],
            tau_nz: Vec::new(),
            spare: Vec::new(),
            dense_nz: Vec::new(),
            members: vec![0; m.div_ceil(64)],
            restore_cands: Vec::new(),
            d_stale: true,
            d_exact: false,
            paranoid: std::env::var_os("GC_LP_PARANOID").is_some(),
            keep: false,
            iterations: 0,
            max_iterations,
            n_refactor: 0,
            n_ftran: 0,
            n_btran: 0,
            pricing_ns: 0,
        };
        w.set_statuses(status);
        w
    }

    /// Factorizes the slack basis [`Worker::build`] set up, for a solve
    /// that starts from it.
    fn factorize_slack_basis(&mut self) -> Result<(), SolveError> {
        self.factorize()?;
        Ok(())
    }

    /// Sets column `j`'s status and its pricing state, and moves its row
    /// copy entries across the live boundary when it starts or stops being
    /// able to enter: with [`Worker::set_statuses`], the one place the
    /// state is written. A change to `j`'s bounds calls it too.
    fn set_status(&mut self, j: usize, st: ColStatus) {
        self.status[j] = st;
        let state = price_state(st, self.lb[j], self.ub[j]);
        let live = state != PriceState::Off;
        if live != (self.state[j] != PriceState::Off) {
            self.rows.set_live(&self.cols, j, live);
        }
        self.state[j] = state;
    }

    /// Installs every column's status at once, with its pricing state, and
    /// rebuilds the row copy around the new live columns: the bulk form of
    /// [`Worker::set_status`], for a whole basis.
    fn set_statuses(&mut self, status: Vec<ColStatus>) {
        self.state.clear();
        self.state.extend(
            status
                .iter()
                .enumerate()
                .map(|(j, &st)| price_state(st, self.lb[j], self.ub[j])),
        );
        self.status = status;
        let state = &self.state;
        self.rows
            .partition(&self.cols, |j| state[j] != PriceState::Off);
    }

    /// Factorizes the basic columns, read in ascending column order so
    /// that the factors depend on the basic set alone, and on success
    /// renumbers the slots to the factors' pivot positions: the column
    /// factored at position `k` moves to slot `k`, taking its basic value
    /// and steepest-edge weight along. The solves then run in slot space
    /// with no column permutation. The eta file, indexed by the old slots,
    /// is cleared either way.
    ///
    /// On [`FactorizeError::Singular`], `col` indexes `factor_order` and
    /// the slots are unchanged.
    fn factorize(&mut self) -> Result<(), FactorizeError> {
        self.clear_etas();
        self.factor_order.clear();
        self.factor_order.extend_from_slice(&self.basis);
        self.factor_order.sort_unstable();
        self.lu.refactor(&self.cols, &self.factor_order)?;
        for (k, &i) in self.lu.col_order().iter().enumerate() {
            self.basis[k] = self.factor_order[i];
        }
        let old_slot = |st: ColStatus| match st {
            ColStatus::Basic(s) => s,
            _ => unreachable!("a factorized column is basic"),
        };
        for values in [&mut self.xb, &mut self.dse_w] {
            self.scratch.clear();
            self.scratch
                .extend(self.basis.iter().map(|&j| values[old_slot(self.status[j])]));
            std::mem::swap(values, &mut self.scratch);
        }
        for (k, &j) in self.basis.iter().enumerate() {
            self.status[j] = ColStatus::Basic(k);
        }
        self.flag_all();
        Ok(())
    }

    /// Recomputes every bit of `infeasible` from `xb`.
    fn flag_all(&mut self) {
        let tol = self.opts.feas_tol;
        self.infeasible.fill(0);
        for (s, &j) in self.basis.iter().enumerate() {
            if violates(self.xb[s], self.lb[j], self.ub[j], tol) {
                set_bit(&mut self.infeasible, s, true);
            }
        }
    }

    /// Sets slot `s`'s bit of `infeasible` from its current value.
    fn flag(&mut self, s: usize) {
        let j = self.basis[s];
        let on = violates(self.xb[s], self.lb[j], self.ub[j], self.opts.feas_tol);
        set_bit(&mut self.infeasible, s, on);
    }

    /// Moves the basic solution by `−step·w`, with `w = B⁻¹·a_q` the FTRAN
    /// of the entering column in `work_w`, over `w`'s nonzeros only, and
    /// re-flags the slots it moves.
    fn move_basics(&mut self, step: f64) {
        let tol = self.opts.feas_tol;
        for &s in &self.w_nz {
            let x = self.xb[s] - step * self.work_w[s];
            self.xb[s] = x;
            let j = self.basis[s];
            set_bit(
                &mut self.infeasible,
                s,
                violates(x, self.lb[j], self.ub[j], tol),
            );
        }
    }

    fn stats(&self) -> SolveStats {
        SolveStats {
            iterations: self.iterations,
            refactorizations: self.n_refactor,
            ftrans: self.n_ftran,
            btrans: self.n_btran,
            pricing_ns: self.pricing_ns,
            fallbacks: 0,
        }
    }

    /// Attempts to install an exported warm basis over the freshly built
    /// slack basis. Validate-then-commit: all checks run on scratch state,
    /// and the basis, statuses and values are only changed once the basis
    /// is proven usable — a failed attempt leaves the slack basis intact,
    /// so the caller starts from it with no rebuild, factorizing it over
    /// the factors the attempt left behind.
    ///
    /// The snapshot is *repaired* rather than trusted: nonbasic statuses
    /// that no longer match the model's bounds are remapped, and a
    /// singular basic set is repaired column-by-column against the LU
    /// factorization. The recomputed basic solution may violate bounds:
    /// [`Worker::restore_and_optimize`] starts with the dual restoration
    /// that recovers feasibility.
    fn try_install_basis(&mut self, warm: &Basis) -> Result<(), ()> {
        if warm.statuses().len() != self.n_total {
            return Err(()); // different model shape
        }
        // The basic columns, ascending, as `Worker::factorize` reads them.
        let mut basics = Vec::with_capacity(self.m);
        for (j, &st) in warm.statuses().iter().enumerate() {
            if st == BasisStatus::Basic {
                basics.push(j);
            }
        }
        if basics.len() != self.m {
            return Err(()); // malformed snapshot; the slack basis handles it
        }
        // Factorize, repairing singularity the way production solvers do:
        // a column the LU proves dependent is swapped for the slack of a
        // row that has no pivot yet (a unit column, so the replacement can
        // never create a new dependency on the repaired prefix). Bounded
        // retries: pathological snapshots fall back to the slack basis,
        // which factorizes afresh over the factors this leaves behind.
        {
            // Basic-membership mark, kept in step with `basics`, so each
            // replacement search is O(m).
            let mut is_basic = vec![false; self.n_total];
            for &j in &basics {
                is_basic[j] = true;
            }
            let mut attempt = 0usize;
            loop {
                match self.lu.refactor(&self.cols, &basics) {
                    Ok(()) => break,
                    Err(FactorizeError::NotSquare { .. }) => return Err(()),
                    Err(FactorizeError::Singular { col, pivoted }) => {
                        attempt += 1;
                        if attempt > 16 {
                            return Err(());
                        }
                        let replacement =
                            (0..self.m).find(|&r| !pivoted[r] && !is_basic[self.n_struct + r]);
                        let Some(r) = replacement else {
                            return Err(());
                        };
                        let slack = self.n_struct + r;
                        is_basic[basics.remove(col)] = false;
                        basics.insert(basics.partition_point(|&j| j < slack), slack);
                        is_basic[slack] = true;
                    }
                }
            }
        }
        // Slot k holds the column factored at position k.
        let basis: Vec<usize> = self.lu.col_order().iter().map(|&i| basics[i]).collect();

        // Repaired statuses on scratch: warm nonbasics remapped against the
        // current bounds, basics patched last. Columns evicted by the
        // singularity repair above fall through the `Basic` arm to their
        // initial nonbasic status.
        let mut status = vec![ColStatus::AtLower; self.n_total];
        for (j, &st) in warm.statuses().iter().enumerate() {
            status[j] = match st {
                BasisStatus::AtLower if self.lb[j].is_finite() => ColStatus::AtLower,
                BasisStatus::AtUpper if self.ub[j].is_finite() => ColStatus::AtUpper,
                _ => initial_status(self.lb[j], self.ub[j]),
            };
        }
        for (slot, &j) in basis.iter().enumerate() {
            status[j] = ColStatus::Basic(slot);
        }

        // Basic solution against the current RHS/bounds, still on scratch.
        let mut resid = self.rhs.clone();
        for j in 0..self.n_total {
            if matches!(status[j], ColStatus::Basic(_)) {
                continue;
            }
            let v = nonbasic_value(status[j], self.lb[j], self.ub[j]);
            if v != 0.0 {
                for (r, a) in self.cols.col(j) {
                    resid[r] -= a * v;
                }
            }
        }
        let mut xb: Vec<f64> = (0..self.m).map(|p| resid[self.lu.row_at(p)]).collect();
        self.lu.ftran_in_place(&mut xb, 0, &mut self.dense_nz);
        if xb.iter().any(|x| !x.is_finite()) {
            return Err(());
        }

        // Commit.
        self.set_statuses(status);
        self.basis = basis;
        self.clear_etas();
        self.xb = xb;
        self.flag_all();
        self.d_stale = true;
        Ok(())
    }

    /// Optimizes from the installed basis, warm or slack. When the basic
    /// solution violates bounds (the usual case after the caller shifted
    /// the RHS or coefficients of a rolling-horizon model, and on most
    /// slack starts), primal feasibility is first restored with
    /// dual-simplex pivots, then the ordinary primal phase 2 certifies
    /// optimality.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] and [`SolveError::IterationLimit`] from
    /// the restoration (see [`Worker::restore_primal_feasibility`]);
    /// [`SolveError::Unbounded`] for phase 2's ray from the restored,
    /// primal-feasible basis; [`SolveError::IterationLimit`] at
    /// `max_iterations`; [`SolveError::Numerical`] for a breakdown in
    /// either.
    fn restore_and_optimize(&mut self, rule: LeavingRule) -> Result<(), SolveError> {
        self.restore_primal_feasibility(rule)?;
        self.iterate()
    }

    /// Dual-simplex feasibility restoration: repeatedly drives a
    /// bound-violated basic variable onto its violated bound, the row
    /// chosen by `rule`. Reduced costs come from the maintained array;
    /// candidate pivots come from the sparse pivot row, so only columns
    /// the row actually touches are examined. A warm basis from a
    /// neighbouring siting takes from about a hundred to over a thousand
    /// steps.
    ///
    /// Under [`LeavingRule::SteepestEdge`] the chosen row's weight is reset
    /// to the exact `‖ρ_r‖²` from its pivot row (under `GC_LP_PARANOID` the
    /// maintained value must match it to 1e-6 relative first), and each
    /// pivot updates every weight with one extra FTRAN (see
    /// [`Worker::update_dse_weights`]); bound flips leave them alone.
    ///
    /// Each step is a long-step (bound-flipping) dual ratio test over its
    /// pivot row. The entering candidate is the eligible column with the
    /// smallest |reduced cost| per unit of pivot, largest pivot on ties.
    /// When reaching the target would carry it past its own opposite
    /// bound, it is flipped to that bound instead, the remaining violation
    /// is re-derived from the updated basic value, and the next candidate
    /// of the same row is tried; the first one that reaches the target is
    /// pivoted on. A step thus ends on a pivot or with the row's
    /// candidates used up, and it never flips a column back: a flipped
    /// column moves the row the wrong way. A step that flips nothing is the
    /// plain dual pivot.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when a step's row has no candidate at all:
    /// every nonbasic column the row touches (pivot-row entries at or below
    /// the pivot tolerance count as zero) already sits at the bound that
    /// pushes the basic variable toward its target, so no point of the
    /// nonbasic boxes satisfies the row. [`SolveError::IterationLimit`]
    /// after `2m + 64` steps or at `max_iterations`.
    /// [`SolveError::Numerical`] for a pivot too small to trust, a step
    /// that is not a finite nonnegative length, a non-finite basic value
    /// or a failed refactorization.
    fn restore_primal_feasibility(&mut self, rule: LeavingRule) -> Result<(), SolveError> {
        let tol = self.opts.feas_tol;
        let max_steps = 2 * self.m + 64;
        let steepest = rule == LeavingRule::SteepestEdge;
        for _ in 0..max_steps {
            debug_assert!(
                (0..self.m).all(|s| {
                    let j = self.basis[s];
                    let on = violates(self.xb[s], self.lb[j], self.ub[j], tol);
                    on == (self.infeasible[s / 64] >> (s % 64) & 1 == 1)
                }),
                "infeasibility bitmap out of step with the basic solution"
            );
            // Leaving row: the best-scoring violated basic, the lower
            // column on an exact tie, from the bitmap of violated slots.
            let mut worst: Option<(usize, f64, f64)> = None; // slot, score, target
            for (word_at, &word) in self.infeasible.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = word_at * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let j = self.basis[slot];
                    let (lo, hi) = (self.lb[j], self.ub[j]);
                    let x = self.xb[slot];
                    if !x.is_finite() {
                        return Err(SolveError::Numerical("non-finite basic value".into()));
                    }
                    let (viol, target) = if x < lo - tol {
                        (lo - x, lo)
                    } else {
                        (x - hi, hi)
                    };
                    let score = if steepest {
                        viol * viol / self.dse_w[slot]
                    } else {
                        viol
                    };
                    let better = worst.is_none_or(|(s, best, _)| {
                        score > best || (score == best && j < self.basis[s])
                    });
                    if better {
                        worst = Some((slot, score, target));
                    }
                }
            }
            let Some((r, _, target)) = worst else {
                return Ok(()); // primal feasible
            };
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            self.iterations += 1;

            let t0 = Stopwatch::start();
            if self.d_stale {
                self.compute_reduced_costs();
            }
            // Row r of B⁻¹ and the pivot row αᵣ = ρᵀ·A, via one
            // hyper-sparse unit BTRAN plus a CSR row gather. Flips leave
            // the basis alone, so the row stays valid for the whole step.
            self.pivot_row(r);
            if steepest {
                let exact: f64 = self.rho_nz.iter().map(|&p| self.work_rho[p].powi(2)).sum();
                if self.paranoid {
                    self.paranoid_check_dse_weight(r, exact);
                }
                self.dse_w[r] = exact;
            }
            self.pricing_ns += t0.elapsed_ns();

            let mut flipped = false;
            loop {
                // The required movement of xb[r], re-derived after each flip.
                let delta_r = target - self.xb[r];
                let Some((q, dir)) = self.restoration_candidate(delta_r) else {
                    if flipped {
                        break; // the flips moved the row as far as it goes
                    }
                    return Err(SolveError::Infeasible);
                };

                // w = B⁻¹·A_q, pivot magnitude re-derived through the eta file.
                self.ftran_col(q);
                let wr = self.work_w[r];
                if wr.abs() <= PIV_TOL {
                    return Err(SolveError::Numerical("restoration pivot too small".into()));
                }
                let t = delta_r / (-dir * wr);
                if !t.is_finite() || t < 0.0 {
                    return Err(SolveError::Numerical(
                        "restoration step not a finite nonnegative length".into(),
                    ));
                }

                // Bound flip: reaching the target would push q past its own
                // opposite bound, so move it exactly there. The violation
                // shrinks by |α_q|·span and keeps its sign; the basis, the
                // pivot row and the reduced costs are untouched.
                let span = self.ub[q] - self.lb[q];
                if span.is_finite() && t > span {
                    self.move_basics(span * dir);
                    let flipped_status = match self.status[q] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        other => other,
                    };
                    self.set_status(q, flipped_status);
                    flipped = true;
                    continue;
                }

                let leaving = self.basis[r];
                // Maintain reduced costs across the pivot while the pivot row
                // is still valid (before the eta push).
                let t0 = Stopwatch::start();
                if !self.d_stale {
                    self.update_reduced_costs(q, wr, leaving, false);
                }
                if steepest {
                    self.update_dse_weights(r);
                }
                self.pricing_ns += t0.elapsed_ns();
                self.move_basics(t * dir);
                self.xb[r] = nonbasic_value(self.status[q], self.lb[q], self.ub[q]) + dir * t;
                // The leaving variable lands exactly on its violated bound.
                let lo = self.lb[leaving];
                let leaving_status = if target == lo {
                    if lo.is_finite() {
                        ColStatus::AtLower
                    } else {
                        ColStatus::FreeAtZero
                    }
                } else {
                    ColStatus::AtUpper
                };
                self.set_status(leaving, leaving_status);
                self.set_status(q, ColStatus::Basic(r));
                self.basis[r] = q;
                self.flag(r);
                self.push_eta(r);
                break;
            }
            if self.paranoid {
                self.paranoid_check(Kernel::BasicSolution);
            }
            if self.etas.len() >= REFACTOR_EVERY {
                self.refactorize()?;
            }
        }
        Err(SolveError::IterationLimit)
    }

    /// The restoration's entering candidate on the current pivot row when
    /// basic row `r` must move by `delta_r`: among the row's nonzeros whose
    /// column can move `xb[r]` toward its target, the largest pivot whose
    /// |reduced cost| per unit of pivot is within 1e-12 of the smallest,
    /// the lower column on an exact tie. Two passes (the smallest ratio,
    /// then the choice within its window) make the choice independent of
    /// the order the gather touched the columns in. Entering `q` moving by
    /// `t·dir` changes `xb[r]` by `−t·dir·α_q`, so `q` is eligible when
    /// `dir·α_q` opposes `delta_r`. Returns `(q, dir)`.
    fn restoration_candidate(&mut self, delta_r: f64) -> Option<(usize, f64)> {
        let mut cands = std::mem::take(&mut self.restore_cands);
        cands.clear();
        let mut min_ratio = f64::INFINITY;
        for &q in &self.alpha_touched {
            let alpha = self.work_alpha[q];
            if alpha.abs() <= PIV_TOL {
                continue;
            }
            let dir = match self.state[q] {
                PriceState::Off => continue,
                PriceState::AtLower => 1.0,
                PriceState::AtUpper => -1.0,
                PriceState::Free => {
                    if alpha * delta_r < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            if dir * alpha * delta_r >= 0.0 {
                continue; // moves xb[r] the wrong way
            }
            let ratio = self.d[q].abs() / alpha.abs();
            min_ratio = min_ratio.min(ratio);
            cands.push((q, dir, ratio, alpha.abs()));
        }
        let window = min_ratio + 1e-12;
        let mut best: Option<(usize, f64, f64)> = None; // q, dir, |alpha|
        for &(q, dir, ratio, a) in &cands {
            if ratio <= window && best.is_none_or(|(bq, _, ba)| a > ba || (a == ba && q < bq)) {
                best = Some((q, dir, a));
            }
        }
        self.restore_cands = cands;
        best.map(|(q, dir, _)| (q, dir))
    }

    /// Dual steepest-edge update (Forrest & Goldfarb, 1992) for the pivot
    /// on slot `r` with entering column `w = B⁻¹·a_q` in `work_w`, while
    /// `work_rho` still holds `ρ_r` and `dse_w[r] = ‖ρ_r‖²`. With `τ =
    /// B⁻¹·ρ_r` (one extra FTRAN), row `i` of the new inverse is `ρ_i −
    /// (w_i/w_r)·ρ_r`, so `β_i ← β_i − 2(w_i/w_r)·τ_i + (w_i/w_r)²·β_r`
    /// and `β_r ← β_r / w_r²`.
    ///
    /// The update is floored at `(w_i/w_r)² / ‖a_p‖²`, with `a_p` the
    /// leaving column: the new row `i` meets `a_p` in `−w_i/w_r`, so by
    /// Cauchy–Schwarz no true weight lies below the floor. The textbook
    /// floor `(w_i/w_r)²` is this one for a leaving slack; when a
    /// structural of larger norm leaves, it overstated weights by up to
    /// 24% on the Fig. 7 search and tripped the `GC_LP_PARANOID` check.
    fn update_dse_weights(&mut self, r: usize) {
        // `work_rho` holds ρ_r at its rows' pivot positions, which is the
        // permuted right-hand side the position-space FTRAN takes.
        for &p in &self.rho_nz {
            self.work_tau[p] = self.work_rho[p];
        }
        let first = self.rho_nz.first().copied().unwrap_or(self.m);
        self.lu
            .ftran_in_place(&mut self.work_tau, first, &mut self.tau_nz);
        eta_ftran(
            &self.etas,
            &mut self.work_tau,
            &mut self.tau_nz,
            &mut self.members,
        );
        self.n_ftran += 1;
        let wr = self.work_w[r];
        let beta_r = self.dse_w[r];
        let leaving_norm2: f64 = self.cols.col(self.basis[r]).map(|(_, a)| a * a).sum();
        for &i in &self.w_nz {
            let wi = self.work_w[i];
            if i == r || wi == 0.0 {
                continue;
            }
            let k = wi / wr;
            let beta = self.dse_w[i] - 2.0 * k * self.work_tau[i] + k * k * beta_r;
            self.dse_w[i] = beta.max(k * k / leaving_norm2);
        }
        self.dse_w[r] = beta_r / (wr * wr);
        for &p in &self.tau_nz {
            self.work_tau[p] = 0.0;
        }
    }

    /// Primal phase 2: runs pivots from a primal-feasible basis until the
    /// objective is optimal.
    fn iterate(&mut self) -> Result<(), SolveError> {
        let mut degen_streak = 0usize;
        let mut rejected_streak = 0usize;
        let mut prev_bland = false;
        // Phase entry restarts the devex reference framework.
        self.reset_devex();
        loop {
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            self.iterations += 1;

            let bland = degen_streak >= BLAND_AFTER;
            if bland && !prev_bland {
                // (Re-)entering the anti-cycling regime: Bland's rule must
                // see exact reduced-cost signs, not incrementally drifted
                // ones — on every engagement, not just the first.
                self.d_stale = true;
            }
            prev_bland = bland;
            let t0 = Stopwatch::start();
            let mut choice = self.price(bland);
            if choice.is_none() && !self.d_exact {
                // The maintained reduced costs say optimal; confirm against
                // exactly recomputed values before declaring the phase done.
                self.d_stale = true;
                choice = self.price(bland);
            }
            self.pricing_ns += t0.elapsed_ns();
            let Some((q, _)) = choice else {
                return Ok(()); // optimal (certified on exact values)
            };

            // w = B⁻¹ · A_q
            self.ftran_col(q);

            if self.paranoid {
                self.paranoid_check(Kernel::Ftran(q));
            }

            // Anchor the candidate's maintained reduced cost to the exact
            // value implied by its FTRANed column (`g_q − g_Bᵀ·B⁻¹·A_q`, an
            // O(m) dot): incremental maintenance drifts, and pivoting on a
            // column whose true reduced cost is no longer attractive stalls
            // the solve — or worse, degrades the basis until the LU calls
            // it singular. A candidate that fails the exact test is
            // repriced instead of pivoted on. A long streak of such
            // candidates means the eta file has drifted: refactorize, and
            // if the streak returns on a fresh factorization, give up so a
            // warm start can restart from the slack basis.
            let mut dq = self.cost[q];
            for &slot in &self.w_nz {
                let gb = self.cost[self.basis[slot]];
                if gb != 0.0 {
                    dq -= gb * self.work_w[slot];
                }
            }
            self.d[q] = dq;
            let Some((dir, _)) = self.eligible(q) else {
                self.d_exact = false;
                rejected_streak += 1;
                if rejected_streak >= REJECTED_STREAK_MAX {
                    if self.etas.is_empty() {
                        return Err(SolveError::Numerical(
                            "reduced costs disagree with a fresh factorization".into(),
                        ));
                    }
                    self.refactorize_or_repair()?;
                    rejected_streak = 0;
                }
                continue; // drifted candidate; the corrected entry deselects it
            };
            rejected_streak = 0;

            let mut outcome = self.ratio_test(q, dir, bland);
            // A pivot that is tiny after a long eta chain is often pure
            // round-off; refactorize and re-derive before trusting it.
            if let RatioOutcome::Pivot { slot, .. } = outcome {
                if self.work_w[slot].abs() < 1e-7 && !self.etas.is_empty() {
                    match self.refactorize() {
                        Ok(()) => {
                            self.ftran_col(q);
                            outcome = self.ratio_test(q, dir, bland);
                        }
                        Err(_) => {
                            // The basis repair may move any column, q
                            // included — reprice from scratch.
                            self.repair_singular_basis()?;
                            continue;
                        }
                    }
                }
            }

            match outcome {
                RatioOutcome::Unbounded => return Err(SolveError::Unbounded),
                RatioOutcome::BoundFlip(t) => {
                    // x_q jumps to its opposite bound; basics absorb the
                    // move. The basis is unchanged, so the maintained
                    // reduced costs and devex weights stay valid as-is.
                    self.move_basics(t * dir);
                    let flipped = match self.status[q] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        s => s,
                    };
                    self.set_status(q, flipped);
                    if t <= self.opts.feas_tol {
                        degen_streak += 1;
                    } else {
                        degen_streak = 0;
                    }
                }
                RatioOutcome::Pivot { slot, t, to_upper } => {
                    let leaving = self.basis[slot];
                    // Maintain reduced costs and devex weights from the
                    // pivot row while the pre-pivot basis is still in
                    // place (the eta push below would invalidate ρ).
                    let t0 = Stopwatch::start();
                    if !self.d_stale {
                        self.pivot_row(slot);
                        self.update_reduced_costs(
                            q,
                            self.work_w[slot],
                            leaving,
                            self.opts.pricing == PricingMode::Devex,
                        );
                    }
                    self.pricing_ns += t0.elapsed_ns();
                    self.move_basics(t * dir);
                    let entering_value =
                        nonbasic_value(self.status[q], self.lb[q], self.ub[q]) + dir * t;
                    self.xb[slot] = entering_value;
                    let leaving_status = if to_upper {
                        ColStatus::AtUpper
                    } else if self.lb[leaving].is_finite() {
                        ColStatus::AtLower
                    } else {
                        ColStatus::FreeAtZero
                    };
                    self.set_status(leaving, leaving_status);
                    self.set_status(q, ColStatus::Basic(slot));
                    self.basis[slot] = q;
                    self.flag(slot);
                    self.push_eta(slot);
                    if t <= self.opts.feas_tol {
                        degen_streak += 1;
                    } else {
                        degen_streak = 0;
                    }
                    if self.etas.len() >= REFACTOR_EVERY {
                        self.refactorize_or_repair()?;
                    }
                }
            }
        }
    }

    /// Recomputes all reduced costs exactly: one dense BTRAN of the basic
    /// costs plus a full column scan — the `O(nnz(A))` sweep the
    /// incremental updates amortize away. Called lazily after a basis
    /// install, refactorization or repair, on detected drift, and to
    /// certify optimality.
    fn compute_reduced_costs(&mut self) {
        for slot in 0..self.m {
            self.work_y[slot] = self.cost[self.basis[slot]];
        }
        // y = B⁻ᵀ·c_B: etas in reverse, then the factors, then by row.
        eta_btran(&self.etas, &mut self.work_y, None);
        self.lu
            .btran_in_place(&mut self.work_y, 0, &mut self.dense_nz, &mut self.spare);
        self.n_btran += 1;
        self.scratch.resize(self.m, 0.0);
        for p in 0..self.m {
            self.scratch[self.lu.row_at(p)] = self.work_y[p];
        }
        for j in 0..self.n_total {
            if matches!(self.status[j], ColStatus::Basic(_)) {
                self.d[j] = 0.0;
                continue;
            }
            let mut dj = self.cost[j];
            for (r, a) in self.cols.col(j) {
                dj -= self.scratch[r] * a;
            }
            self.d[j] = dj;
        }
        self.d_stale = false;
        self.d_exact = true;
    }

    /// Computes `ρ = B⁻ᵀ·eᵣ` into `work_rho` (hyper-sparse unit BTRAN:
    /// an eta pass that tracks the few nonzeros of `ρ`, then the row-wise
    /// LU BTRAN) and gathers the pivot row `αᵣ = ρᵀ·A` into
    /// `work_alpha`/`alpha_touched` by sparse row access over the live
    /// entries of the row copy — `O(Σ_{ρᵢ≠0} live(rowᵢ))` instead of
    /// scanning every column. The rows are visited in ascending pivot
    /// position, so each `α_j` sums its terms in an order that does not
    /// depend on how the row copy stores them.
    fn pivot_row(&mut self, r: usize) {
        self.btran_unit(r);
        if self.paranoid {
            self.paranoid_check(Kernel::PivotRow(r));
        }

        // A new gather generation: a column's first term in it sets its
        // entry, so the last pivot row needs no reset. The stamp (not a
        // zero test) guards `alpha_touched` against duplicates when a value
        // cancels exactly to zero mid-gather.
        self.alpha_gen = self.alpha_gen.wrapping_add(1);
        if self.alpha_gen == 0 {
            self.alpha_stamp.fill(0);
            self.alpha_gen = 1;
        }
        let gen = self.alpha_gen;
        self.alpha_touched.clear();
        for &p in &self.rho_nz {
            let rho = self.work_rho[p];
            if rho == 0.0 {
                continue;
            }
            let (cols, vals) = self.rows.live_slices(self.lu.row_at(p));
            for (&j, &a) in cols.iter().zip(vals) {
                if self.alpha_stamp[j] == gen {
                    self.work_alpha[j] += rho * a;
                } else {
                    self.alpha_stamp[j] = gen;
                    self.alpha_touched.push(j);
                    self.work_alpha[j] = rho * a;
                }
            }
        }
    }

    /// Entry `j` of the last pivot row gathered.
    fn alpha(&self, j: usize) -> f64 {
        if self.alpha_stamp[j] == self.alpha_gen {
            self.work_alpha[j]
        } else {
            0.0
        }
    }

    /// Computes `ρ = B⁻ᵀ·eᵣ`, row `r` of the basis inverse, into `work_rho`
    /// in position space, its nonzeros listed in `rho_nz`.
    fn btran_unit(&mut self, r: usize) {
        for &p in &self.rho_nz {
            self.work_rho[p] = 0.0;
        }
        self.work_rho[r] = 1.0;
        self.rho_nz.clear();
        self.rho_nz.push(r);
        eta_btran(&self.etas, &mut self.work_rho, Some(&mut self.rho_nz));
        let first = self.rho_nz.first().copied().unwrap_or(r);
        self.lu
            .btran_in_place(&mut self.work_rho, first, &mut self.rho_nz, &mut self.spare);
        self.n_btran += 1;
    }

    /// Updates the maintained reduced costs (and, when `devex`, the devex
    /// weights) across the pivot that brings `q` into the basis replacing
    /// `leaving`. Must run after [`Worker::pivot_row`] and before the
    /// statuses/basis/eta file change. `wr` is the FTRAN-derived pivot
    /// element; it is cross-checked against the BTRAN-derived `α_q` and on
    /// disagreement the incremental state is discarded (recomputed lazily)
    /// instead of propagating drift.
    fn update_reduced_costs(&mut self, q: usize, wr: f64, leaving: usize, devex: bool) {
        let alpha_q = self.alpha(q);
        if !alpha_q.is_finite() || (alpha_q - wr).abs() > 1e-7 * (1.0 + wr.abs()) {
            self.d_stale = true;
            return;
        }
        let ratio = self.d[q] / wr;
        let wq = self.devex_w[q].max(1.0);
        let aq2 = wr * wr;
        for idx in 0..self.alpha_touched.len() {
            let j = self.alpha_touched[idx];
            debug_assert_ne!(
                self.state[j],
                PriceState::Off,
                "the gather reads live columns"
            );
            if j == q {
                continue;
            }
            let aj = self.work_alpha[j];
            self.d[j] -= ratio * aj;
            if devex {
                let cand = wq * (aj * aj) / aq2;
                if cand > self.devex_w[j] {
                    self.devex_w[j] = cand;
                }
            }
        }
        // The leaving variable turns nonbasic with d = −d_q/α_q (its pivot
        // row entry is exactly 1); the entering variable turns basic.
        self.d[leaving] = -ratio;
        self.d[q] = 0.0;
        if devex {
            self.devex_w[leaving] = (wq / aq2).max(1.0);
        }
        self.d_exact = false;
    }

    fn reset_devex(&mut self) {
        self.devex_w.fill(1.0);
    }

    /// Last-resort recovery when refactorization finds the basis
    /// (numerically) singular — the aftermath of an unavoidable pivot on a
    /// noise-scale element. Dependent columns are evicted for the slack of
    /// a row the factorization could not cover (the same repair the warm
    /// installer uses), the basic solution is recomputed, and primal
    /// feasibility is re-established by dual-simplex pivots before phase 2
    /// resumes. Any failure there is numerical trouble, not a proof: the
    /// basis was primal feasible before the repair.
    fn repair_singular_basis(&mut self) -> Result<(), SolveError> {
        self.refactorize_evicting()?;
        self.reset_devex();
        self.restore_primal_feasibility(LeavingRule::MaxViolation)
            .map_err(|_| SolveError::Numerical("restoration after basis repair failed".into()))
    }

    /// Refactorizes, evicting each column the factorization proves
    /// dependent for the slack of a row it left uncovered (a unit column,
    /// so the replacement cannot create a new dependency on the factorized
    /// prefix), at most 16 times; then recomputes the basic solution. The
    /// basic solution may then violate bounds.
    fn refactorize_evicting(&mut self) -> Result<(), SolveError> {
        let unrepairable = || SolveError::Numerical("unrepairable singular basis".into());
        let mut attempt = 0usize;
        loop {
            match self.factorize() {
                Ok(()) => break,
                Err(FactorizeError::NotSquare { .. }) => return Err(unrepairable()),
                Err(FactorizeError::Singular { col, pivoted }) => {
                    attempt += 1;
                    if attempt > 16 {
                        return Err(unrepairable());
                    }
                    let replacement = (0..self.m).find(|&r| {
                        !pivoted[r]
                            && !matches!(self.status[self.n_struct + r], ColStatus::Basic(_))
                    });
                    let Some(r) = replacement else {
                        return Err(unrepairable());
                    };
                    let evicted = self.factor_order[col];
                    let ColStatus::Basic(slot) = self.status[evicted] else {
                        return Err(unrepairable());
                    };
                    let sj = self.n_struct + r;
                    self.set_status(evicted, initial_status(self.lb[evicted], self.ub[evicted]));
                    self.set_status(sj, ColStatus::Basic(slot));
                    self.basis[slot] = sj;
                }
            }
        }
        self.n_refactor += 1;
        self.recompute_xb();
        self.d_stale = true;
        Ok(())
    }

    /// Brings the columns and their row copy up to date with `model`'s
    /// rows, rewriting only the columns whose entries changed, and returns
    /// those structural columns, ascending. A row is unchanged when it
    /// holds, besides its slack, exactly the model row's nonzero terms: its
    /// entries are spread over a dense array by column, where each term
    /// looks its value up. The row copy is rebuilt around the current live
    /// columns when any row changed.
    ///
    /// Rebuilding the column store from the model with [`columns`] gives
    /// the same columns, but on the hourly window LP, where a handful of
    /// rows change, rebuilding both matrices that way cost about 2.5 times
    /// as much per hour and made perfbench's emulated `operate` hour about
    /// a fifth slower.
    fn reload_columns(&mut self, model: &Model) -> Vec<usize> {
        let n_struct = self.n_struct;
        let mut rows = Vec::new();
        let mut changed = Vec::new();
        // Row i's stored values by column, zero elsewhere: a stored value is
        // never zero, so a term missing from the row reads as a mismatch.
        let by_col = &mut self.scratch;
        by_col.clear();
        by_col.resize(self.n_total, 0.0);
        for (i, con) in model.cons.iter().enumerate() {
            let nonzeros = || {
                con.terms
                    .iter()
                    .filter(|t| t.1 != 0.0)
                    .map(|&(v, a)| (v.index(), a))
            };
            for (j, a) in self.rows.row(i) {
                by_col[j] = a;
            }
            let same = nonzeros().count() + 1 == self.rows.row_len(i)
                && nonzeros().all(|(j, a)| by_col[j] == a);
            for (j, _) in self.rows.row(i) {
                by_col[j] = 0.0;
            }
            if same {
                continue;
            }
            let mut entries: Vec<(usize, f64)> = nonzeros().collect();
            entries.sort_unstable_by_key(|e| e.0);
            changed.extend(
                entries
                    .iter()
                    .filter(|&&(j, a)| self.cols.get(j, i) != Some(a))
                    .map(|e| e.0),
            );
            changed.extend(
                self.rows
                    .row(i)
                    .filter(|&(j, a)| {
                        j < n_struct
                            && entries
                                .binary_search_by_key(&j, |e| e.0)
                                .map_or(true, |t| entries[t].1 != a)
                    })
                    .map(|e| e.0),
            );
            rows.push((i, entries));
        }
        if rows.is_empty() {
            return changed;
        }
        changed.sort_unstable();
        changed.dedup();
        // A changed column keeps its entries in unchanged rows and takes
        // those of the changed rows.
        let cols: Vec<(usize, Vec<(usize, f64)>)> = changed
            .iter()
            .map(|&j| {
                let mut entries: Vec<(usize, f64)> = self
                    .cols
                    .col(j)
                    .filter(|&(i, _)| rows.binary_search_by_key(&i, |r| r.0).is_err())
                    .collect();
                for (i, row) in &rows {
                    if let Ok(t) = row.binary_search_by_key(&j, |e| e.0) {
                        entries.push((*i, row[t].1));
                    }
                }
                entries.sort_unstable_by_key(|e| e.0);
                (j, entries)
            })
            .collect();
        self.cols.replace_cols(&cols);
        let state = &self.state;
        self.rows
            .partition(&self.cols, |j| state[j] != PriceState::Off);
        changed
    }

    /// Evicts the column in basis slot `r`, whose new entries depend on the
    /// rest of the basis, for the nonbasic slack of the row where row `r`
    /// of the basis inverse is largest (the lower row on a tie): by an eta,
    /// with no refactorization.
    /// The evicted column goes to its initial nonbasic status. Returns
    /// `false`, changing nothing, when no slack's pivot exceeds
    /// [`PIV_TOL`].
    fn evict(&mut self, r: usize) -> bool {
        self.btran_unit(r);
        let mut best: Option<(usize, f64)> = None;
        for &p in &self.rho_nz {
            let piv = self.work_rho[p].abs();
            let slack = self.n_struct + self.lu.row_at(p);
            if piv > PIV_TOL
                && !matches!(self.status[slack], ColStatus::Basic(_))
                && best.is_none_or(|(s, b)| piv > b || (piv == b && slack < s))
            {
                best = Some((slack, piv));
            }
        }
        let Some((slack, _)) = best else {
            return false;
        };
        self.ftran_col(slack);
        self.push_eta(r);
        let evicted = self.basis[r];
        self.set_status(evicted, initial_status(self.lb[evicted], self.ub[evicted]));
        self.set_status(slack, ColStatus::Basic(r));
        self.basis[r] = slack;
        true
    }

    /// Carries this worker's basis over to `model`, an edited model of the
    /// same shape, for [`RevisedSimplex::solve_kept`].
    ///
    /// Costs and right-hand sides are reloaded, and so are bounds: a column
    /// whose bounds changed has its nonbasic status remapped as a warm
    /// install remaps an offered basis. Only the columns whose entries
    /// changed are rewritten (see [`Worker::reload_columns`]). Each
    /// basic column among them is replaced in its slot by an eta: the FTRAN
    /// of its new entries through the kept factors and eta file, pivoting
    /// on that slot as an entering column would. A pivot at or below
    /// [`PIV_TOL`] means the new column depends on the rest of the basis,
    /// and [`Worker::evict`] swaps a slack into its slot instead. Only when
    /// no slack can take the slot, or the eta file has reached
    /// [`REFACTOR_EVERY`], does the refresh refactorize, evicting dependent
    /// columns as a singular repair does. `x_B` is then recomputed through
    /// the factors and etas, and the restoration starts as it does on a
    /// warm start.
    ///
    /// # Errors
    ///
    /// [`SolveError::Numerical`] when the refactorization meets a basis it
    /// cannot repair; the worker's state is then unusable.
    fn refresh(&mut self, model: &Model) -> Result<(), SolveError> {
        self.iterations = 0;
        self.n_refactor = 0;
        self.n_ftran = 0;
        self.n_btran = 0;
        self.pricing_ns = 0;
        for (c, var) in self.cost.iter_mut().zip(&model.vars) {
            *c = var.obj;
        }
        for (r, con) in self.rhs.iter_mut().zip(&model.cons) {
            *r = con.rhs;
        }
        for (j, (lo, hi)) in column_bounds(model).enumerate() {
            if (lo, hi) != (self.lb[j], self.ub[j]) {
                self.lb[j] = lo;
                self.ub[j] = hi;
                let st = match self.status[j] {
                    ColStatus::AtLower if lo.is_finite() => ColStatus::AtLower,
                    ColStatus::AtUpper if hi.is_finite() => ColStatus::AtUpper,
                    ColStatus::Basic(slot) => ColStatus::Basic(slot),
                    _ => initial_status(lo, hi),
                };
                self.set_status(j, st);
            }
        }
        let changed = self.reload_columns(model);
        let mut refactor = false;
        for &j in &changed {
            let ColStatus::Basic(slot) = self.status[j] else {
                continue;
            };
            self.ftran_col(j);
            if self.work_w[slot].abs() > PIV_TOL {
                self.push_eta(slot);
            } else if !self.evict(slot) {
                refactor = true;
                break;
            }
        }
        if refactor || self.etas.len() >= REFACTOR_EVERY {
            self.refactorize_evicting()?;
        } else {
            self.recompute_xb();
            self.d_stale = true;
        }
        if self.paranoid {
            self.paranoid_check(Kernel::BasicSolution);
        }
        Ok(())
    }

    /// Refactorizes, recovering from a singular basis via
    /// [`Worker::repair_singular_basis`].
    fn refactorize_or_repair(&mut self) -> Result<(), SolveError> {
        match self.refactorize() {
            Ok(()) => Ok(()),
            Err(_) => self.repair_singular_basis(),
        }
    }

    /// Eligibility of column `j` as an entering candidate (see
    /// [`eligibility`]).
    #[inline]
    fn eligible(&self, j: usize) -> Option<(f64, f64)> {
        eligibility(self.state[j], self.d[j], self.opts.opt_tol)
    }

    /// Chooses an entering column from the maintained reduced costs;
    /// returns `(column, direction)`. No matrix access: the per-iteration
    /// cost is one scan of the reduced-cost array.
    fn price(&mut self, bland: bool) -> Option<(usize, f64)> {
        if self.d_stale {
            self.compute_reduced_costs();
        }
        debug_assert!(
            (0..self.n_total)
                .all(|j| self.state[j] == price_state(self.status[j], self.lb[j], self.ub[j])),
            "pricing state out of step with status and bounds"
        );
        let tol = self.opts.opt_tol;
        // Each column's state and reduced cost, in column order.
        let mut scan = self
            .state
            .iter()
            .zip(&self.d)
            .enumerate()
            .filter_map(|(j, (&st, &d))| eligibility(st, d, tol).map(|(dir, viol)| (j, dir, viol)));
        if bland {
            // Anti-cycling escape: first eligible column by index.
            return scan.next().map(|(j, dir, _)| (j, dir));
        }
        let mut best: Option<(usize, f64, f64)> = None;
        match self.opts.pricing {
            PricingMode::Dantzig => {
                for (j, dir, viol) in scan {
                    if best.is_none_or(|(_, _, s)| viol > s) {
                        best = Some((j, dir, viol));
                    }
                }
            }
            PricingMode::Devex => {
                for (j, dir, viol) in scan {
                    let score = viol * viol / self.devex_w[j];
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Bounded-variable ratio test for entering column `q` moving in `dir`.
    ///
    /// Harris two-pass: pass 1 computes the step limit with every basic
    /// bound relaxed by the feasibility tolerance, pass 2 picks — among
    /// slots whose *unrelaxed* ratio fits inside that limit — the one with
    /// the largest pivot magnitude. Degenerate LPs tie at `t = 0`
    /// constantly; the relaxed window is what lets the test reach past a
    /// 1e-9 pivot at `t = 0` to a well-scaled pivot at `t = 1e-8` (the
    /// bypassed slot then overshoots its bound by ~1e-17 — far inside
    /// tolerance) instead of corrupting the eta file and, eventually, the
    /// basis. Under Bland's rule the strict smallest-ratio/smallest-index
    /// pairing is kept, as the anti-cycling proof requires.
    ///
    /// Pass 1 walks the nonzeros of the entering column's FTRAN and records
    /// the slots that can limit the step in `ratio_cands`, so pass 2 walks
    /// only those. An exact tie in pass 2 goes to the lower column, so the
    /// choice does not depend on slot order.
    fn ratio_test(&mut self, q: usize, dir: f64, bland: bool) -> RatioOutcome {
        const BLAND_TIE: f64 = 1e-12;
        let tol = self.opts.feas_tol;
        let mut cands = std::mem::take(&mut self.ratio_cands);
        cands.clear();
        // Pass 1: the largest step no basic bound rejects by more than the
        // feasibility tolerance (Bland: the strict minimum ratio).
        let mut t_lim = f64::INFINITY;
        for &slot in &self.w_nz {
            let delta = -dir * self.work_w[slot];
            if delta.abs() <= PIV_TOL {
                continue;
            }
            let b = self.basis[slot];
            let limit = if delta > 0.0 { self.ub[b] } else { self.lb[b] };
            if !limit.is_finite() {
                continue;
            }
            cands.push((slot, delta, limit));
            let relaxed = if bland {
                limit
            } else if delta > 0.0 {
                limit + tol
            } else {
                limit - tol
            };
            let t = ((relaxed - self.xb[slot]) / delta).max(0.0);
            if t < t_lim {
                t_lim = t;
            }
        }

        let mut leave: Option<(usize, bool)> = None;
        let mut t_chosen = t_lim;
        if t_lim.is_finite() {
            let mut best_piv = 0.0f64;
            // Bland: candidates are the strict minimum-ratio slots (up to
            // fp round-off) and the step is the strict minimum itself, as
            // the anti-cycling proof requires.
            let window = if bland { t_lim + BLAND_TIE } else { t_lim };
            for &(slot, delta, limit) in &cands {
                let t = ((limit - self.xb[slot]) / delta).max(0.0);
                if t <= window {
                    let piv = self.work_w[slot].abs();
                    let better = match leave {
                        None => true,
                        Some((ls, _)) => {
                            let lower = self.basis[slot] < self.basis[ls];
                            if bland {
                                lower
                            } else {
                                piv > best_piv || (piv == best_piv && lower)
                            }
                        }
                    };
                    if better {
                        best_piv = piv;
                        t_chosen = t;
                        leave = Some((slot, delta > 0.0));
                    }
                }
            }
        }
        self.ratio_cands = cands;
        // Step by the chosen slot's own ratio so the leaving variable lands
        // exactly on its bound; every bypassed basic overshoots its own
        // bound by at most the feasibility tolerance (pass-1 guarantee).
        // Under Bland the step is the strict minimum ratio, so nothing
        // overshoots beyond fp round-off.
        let t_best = if bland { t_chosen.min(t_lim) } else { t_chosen };

        // The entering variable may hit its own opposite bound first.
        let span = self.ub[q] - self.lb[q];
        let t_flip = if matches!(self.status[q], ColStatus::FreeAtZero) || !span.is_finite() {
            f64::INFINITY
        } else {
            span
        };

        if t_flip < t_best {
            return RatioOutcome::BoundFlip(t_flip);
        }
        match leave {
            None if t_flip.is_finite() => RatioOutcome::BoundFlip(t_flip),
            None => RatioOutcome::Unbounded,
            Some((slot, to_upper)) => RatioOutcome::Pivot {
                slot,
                t: t_best,
                to_upper,
            },
        }
    }

    /// FTRAN of column `q`: `work_w ← B⁻¹·A_q`, its nonzeros listed in
    /// `w_nz`. The last FTRAN's nonzeros are cleared through their list,
    /// the column's entries land at their rows' pivot positions, and the
    /// factors solve in place from the first of them; then the eta file.
    fn ftran_col(&mut self, q: usize) {
        for &s in &self.w_nz {
            self.work_w[s] = 0.0;
        }
        let mut first = self.m;
        for (r, v) in self.cols.col(q) {
            let p = self.lu.position_of(r);
            self.work_w[p] += v;
            first = first.min(p);
        }
        self.lu
            .ftran_in_place(&mut self.work_w, first, &mut self.w_nz);
        eta_ftran(
            &self.etas,
            &mut self.work_w,
            &mut self.w_nz,
            &mut self.members,
        );
        self.n_ftran += 1;
    }

    /// `GC_LP_PARANOID` cross-check: the eta-file FTRAN of the entering
    /// column (`work_w`), the pivot row's BTRAN of `eᵣ` (`work_rho`) or the
    /// incrementally updated basic solution (`xb`) must match a fresh
    /// factorization's answer to 1e-6 relative (`|fresh − eta| / (1 +
    /// |fresh|)`) in every entry.
    fn paranoid_check(&self, kernel: Kernel) {
        // Factorized in slot order, the fresh factors' dense solves answer
        // in slot space.
        let mut lu = SparseLu::default();
        if lu.refactor(&self.cols, &self.basis).is_err() {
            eprintln!(
                "PARANOID iter {}: current basis SINGULAR (etas {})",
                self.iterations,
                self.etas.len()
            );
            // gclint: allow(panic-path) — GC_LP_PARANOID is an opt-in crash-on-drift debug mode
            panic!("paranoid singular");
        }
        let mut fresh = vec![0.0; self.m];
        let mut scratch = Vec::new();
        let got = match kernel {
            Kernel::Ftran(q) => {
                for (r, a) in self.cols.col(q) {
                    fresh[r] = a;
                }
                lu.ftran(&mut fresh, &mut scratch);
                self.work_w.clone()
            }
            Kernel::PivotRow(r) => {
                fresh[r] = 1.0;
                lu.btran(&mut fresh, &mut scratch);
                // `work_rho` by row, as the dense BTRAN answers.
                (0..self.m)
                    .map(|i| self.work_rho[self.lu.position_of(i)])
                    .collect()
            }
            Kernel::BasicSolution => {
                fresh = self.nonbasic_residual();
                lu.ftran(&mut fresh, &mut scratch);
                self.xb.clone()
            }
        };
        // Relative drift, the form `update_reduced_costs` uses for its
        // pivot cross-check: siting basics reach 1e8–1e9, where an
        // absolute 1e-6 is a few ulps. The worst entry past 1e-6 wins.
        let mut worst: Option<(usize, f64, f64, f64)> = None;
        for (i, (&fresh, &eta)) in fresh.iter().zip(&got).enumerate() {
            let drift = (fresh - eta).abs() / (1.0 + fresh.abs());
            if drift > worst.map_or(1e-6, |w| w.3) {
                worst = Some((i, fresh, eta, drift));
            }
        }
        if let Some((i, fresh, eta, drift)) = worst {
            eprintln!(
                "PARANOID iter {}: {kernel:?} drift {drift:.3e} (etas {}) worst entry {i} fresh={fresh} eta={eta}",
                self.iterations,
                self.etas.len(),
            );
            for (k, e) in self.etas.iter().enumerate() {
                eprintln!(
                    "  eta {k}: slot {} pivot {:.6e} nnz {}",
                    e.slot,
                    e.pivot,
                    e.entries.len()
                );
            }
            // gclint: allow(panic-path) — GC_LP_PARANOID is an opt-in crash-on-drift debug mode
            panic!("paranoid drift");
        }
    }

    /// `GC_LP_PARANOID` cross-check of the dual steepest-edge weight of the
    /// restoration's chosen row `r`: the maintained `β_r` must match the
    /// exact `‖ρ_r‖²` of its fresh pivot row to 1e-6 relative (`|exact −
    /// β_r| / (1 + exact)`, the form of [`Worker::paranoid_check`]).
    fn paranoid_check_dse_weight(&self, r: usize, exact: f64) {
        let beta = self.dse_w[r];
        let drift = (exact - beta).abs() / (1.0 + exact);
        if drift > 1e-6 {
            eprintln!(
                "PARANOID iter {}: steepest-edge weight of slot {r} drift {drift:.3e} (etas {}) exact={exact} maintained={beta}",
                self.iterations,
                self.etas.len(),
            );
            // gclint: allow(panic-path) — GC_LP_PARANOID is an opt-in crash-on-drift debug mode
            panic!("paranoid steepest-edge weight drift");
        }
    }

    /// Empties the eta file, keeping the etas' buffers for the next ones:
    /// allocating them afresh after every refactorization made each eta
    /// push about twice as slow on the siting LPs.
    fn clear_etas(&mut self) {
        self.spent_etas.append(&mut self.etas);
    }

    fn push_eta(&mut self, slot: usize) {
        let mut eta = self
            .spent_etas
            .pop()
            .unwrap_or_else(|| Eta::new(slot, 0.0, Vec::new(), 0));
        eta.slot = slot;
        eta.pivot = self.work_w[slot];
        eta.entries.clear();
        eta.entries.extend(
            self.w_nz
                .iter()
                .map(|&i| (i, self.work_w[i]))
                .filter(|&(i, v)| i != slot && v.abs() > 1e-13),
        );
        eta.index(self.m);
        self.etas.push(eta);
    }

    fn refactorize(&mut self) -> Result<(), SolveError> {
        debug_assert!(
            {
                let mut b = self.basis.clone();
                b.sort_unstable();
                b.iter().zip(b.iter().skip(1)).all(|(a, b)| a != b)
            },
            "duplicate column in basis"
        );
        self.factorize()?;
        self.n_refactor += 1;
        // Refactorization is the accuracy anchor: the basic values are
        // recomputed from scratch, and the maintained reduced costs are
        // recomputed the same way (lazily, on the next pricing scan).
        self.recompute_xb();
        self.d_stale = true;
        Ok(())
    }

    /// Recomputes the basic solution from scratch through the factors and
    /// the eta file: `x_B = B⁻¹·(b − A_N·x_N)`.
    fn recompute_xb(&mut self) {
        let resid = self.nonbasic_residual();
        for p in 0..self.m {
            self.xb[p] = resid[self.lu.row_at(p)];
        }
        self.lu.ftran_in_place(&mut self.xb, 0, &mut self.dense_nz);
        eta_ftran(
            &self.etas,
            &mut self.xb,
            &mut self.dense_nz,
            &mut self.members,
        );
        self.flag_all();
    }

    /// The right-hand side the basic solution solves, `b − A_N·x_N`.
    fn nonbasic_residual(&self) -> Vec<f64> {
        let mut resid = self.rhs.clone();
        for j in 0..self.n_total {
            if matches!(self.status[j], ColStatus::Basic(_)) {
                continue;
            }
            let v = nonbasic_value(self.status[j], self.lb[j], self.ub[j]);
            if v != 0.0 {
                for (r, a) in self.cols.col(j) {
                    resid[r] -= a * v;
                }
            }
        }
        resid
    }

    /// The solution at the current basis. A one-shot solve first sheds
    /// eta-file drift with a final refactorization; a kept worker
    /// recomputes `x_B` through its factors and etas instead, since they
    /// serve its next solve.
    fn extract(&mut self, model: &Model) -> Solution {
        if !self.etas.is_empty() {
            if self.keep {
                self.recompute_xb();
            } else {
                let _ = self.refactorize();
            }
        }
        let mut values = vec![0.0; self.n_struct];
        for (j, value) in values.iter_mut().enumerate() {
            *value = match self.status[j] {
                ColStatus::Basic(slot) => self.xb[slot],
                st => nonbasic_value(st, self.lb[j], self.ub[j]),
            };
        }
        let objective = model.objective_value(&values);
        // Export the final basis (structural + slack columns) so callers
        // can warm-start re-solves of this model or of close neighbours.
        let statuses: Vec<BasisStatus> = self
            .status
            .iter()
            .map(|st| match st {
                ColStatus::Basic(_) => BasisStatus::Basic,
                ColStatus::AtLower => BasisStatus::AtLower,
                ColStatus::AtUpper => BasisStatus::AtUpper,
                ColStatus::FreeAtZero => BasisStatus::Free,
            })
            .collect();
        Solution {
            objective,
            values,
            basis: Some(Basis::from_statuses(statuses)),
            warm_started: false,
            stats: self.stats(),
        }
    }
}

/// The eta-file solve a `GC_LP_PARANOID` check compares with a fresh
/// factorization.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// The entering FTRAN of column `q`: `B⁻¹·A_q`.
    Ftran(usize),
    /// The pivot row's BTRAN of slot `r`: `B⁻ᵀ·eᵣ`.
    PivotRow(usize),
    /// The basic solution after a restoration step's flips and pivot, or
    /// after a kept solver's refresh: `x_B = B⁻¹·(b − A_N·x_N)`.
    BasicSolution,
}

/// Whether a nonbasic column in pricing state `st` with reduced cost `d`
/// may enter: `Some((dir, viol))` when `d` violates dual feasibility by
/// more than `opt_tol`.
#[inline]
fn eligibility(st: PriceState, d: f64, opt_tol: f64) -> Option<(f64, f64)> {
    let (dir, viol) = match st {
        PriceState::Off => return None,
        PriceState::AtLower => (1.0, -d),
        PriceState::AtUpper => (-1.0, d),
        PriceState::Free => {
            if d > 0.0 {
                (-1.0, d)
            } else {
                (1.0, -d)
            }
        }
    };
    if viol > opt_tol {
        Some((dir, viol))
    } else {
        None
    }
}

/// How the dual restoration picks its leaving row among the violated
/// basics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeavingRule {
    /// The largest bound violation: warm starts and basis repairs, where no
    /// row weights are known.
    MaxViolation,
    /// Dual steepest edge, the largest `viol²/β_r`: slack starts, where
    /// `β = 1` is exact at `B = I`.
    SteepestEdge,
}

enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    Pivot { slot: usize, t: f64, to_upper: bool },
}

fn initial_status(lb: f64, ub: f64) -> ColStatus {
    match (lb.is_finite(), ub.is_finite()) {
        (true, true) => {
            if lb.abs() <= ub.abs() {
                ColStatus::AtLower
            } else {
                ColStatus::AtUpper
            }
        }
        (true, false) => ColStatus::AtLower,
        (false, true) => ColStatus::AtUpper,
        (false, false) => ColStatus::FreeAtZero,
    }
}

fn nonbasic_value(status: ColStatus, lb: f64, ub: f64) -> f64 {
    match status {
        ColStatus::AtLower => lb,
        ColStatus::AtUpper => ub,
        ColStatus::FreeAtZero => 0.0,
        ColStatus::Basic(_) => unreachable!("basic column has no implied value"),
    }
}

/// The worker's columns for `model`: the structural columns, transposed
/// from the rows with zero coefficients dropped, then one unit slack column
/// per row.
fn columns(model: &Model) -> ColMatrix {
    let mut cols = ColMatrix::from_rows(
        model.num_vars(),
        model
            .cons
            .iter()
            .map(|con| con.terms.iter().map(|&(v, c)| (v.index(), c))),
    );
    for i in 0..model.num_cons() {
        cols.push_col([(i, 1.0)]);
    }
    cols
}

/// The bounds of `model`'s columns: the structurals', then each row's
/// slack's, which encode the row sense.
fn column_bounds(model: &Model) -> impl Iterator<Item = (f64, f64)> + '_ {
    let slack = |sense| match sense {
        Sense::Le => (0.0, f64::INFINITY),
        Sense::Ge => (f64::NEG_INFINITY, 0.0),
        Sense::Eq => (0.0, 0.0),
    };
    model
        .vars
        .iter()
        .map(|v| (v.lb, v.ub))
        .chain(model.cons.iter().map(move |c| slack(c.sense)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseSimplex;
    use crate::model::{Model, Sense, VarId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn solve(m: &Model) -> Solution {
        RevisedSimplex::new(SimplexOptions::default())
            .solve(m)
            .expect("solve")
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y (as min of the negation), the classic Dantzig example.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_con("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_con("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_con("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve(&m);
        assert!((s.objective + 36.0).abs() < 1e-7);
        assert!((s[x] - 2.0).abs() < 1e-7);
        assert!((s[y] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn all_pricing_modes_agree_on_textbook_problem() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_con("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_con("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_con("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        for pricing in [PricingMode::Devex, PricingMode::Dantzig] {
            let s = RevisedSimplex::new(SimplexOptions {
                pricing,
                ..SimplexOptions::default()
            })
            .solve(&m)
            .expect("solve");
            assert!(
                (s.objective + 36.0).abs() < 1e-7,
                "{pricing:?}: {}",
                s.objective
            );
        }
    }

    #[test]
    fn solve_stats_are_reported() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_con("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_con("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_con("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve(&m);
        assert!(s.stats.iterations > 0);
        assert!(s.stats.ftrans > 0, "stats: {:?}", s.stats);
        assert!(s.stats.btrans > 0, "stats: {:?}", s.stats);
        // extract() always refactorizes once when etas exist; either way
        // the counter must be consistent with having solved something.
        assert!(s.stats.refactorizations <= s.stats.iterations + 1);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y  s.t.  x + y = 10, x >= 3, y >= 2
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_con("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 10.0);
        m.add_con("xmin", [(x, 1.0)], Sense::Ge, 3.0);
        m.add_con("ymin", [(y, 1.0)], Sense::Ge, 2.0);
        let s = solve(&m);
        assert!((s[x] - 8.0).abs() < 1e-7);
        assert!((s[y] - 2.0).abs() < 1e-7);
        assert!((s.objective - 12.0).abs() < 1e-7);
    }

    #[test]
    fn upper_bounds_and_bound_flips() {
        // min -x - y with x,y in [0,1] and x + y <= 1.5
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, -1.0);
        let y = m.add_var("y", 0.0, 1.0, -1.0);
        m.add_con("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let s = solve(&m);
        assert!((s.objective + 1.5).abs() < 1e-7);
    }

    #[test]
    fn a_long_step_ends_warm_where_one_flip_per_step_cycled() {
        // min x + 2y + 10w  s.t.  x + y = 5,  6x − w = −1,  x ∈ [0, 1] and
        // y, w ≥ 0, warm-started from the all-slack basis. Row 1 is the
        // most violated (by 5); its cheapest candidate x overshoots its box,
        // so x flips to 1, which leaves row 2 violated by 7. Flipping one
        // column per step, the next step took row 2, whose cheapest
        // candidate is x again, flipped it back to where it started and
        // cycled. The long step pivots y in on row 1 right after the flip,
        // then flips x back and pivots w in on row 2: two steps, warm.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        let w = m.add_var("w", 0.0, f64::INFINITY, 10.0);
        m.add_con("r1", [(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        m.add_con("r2", [(x, 6.0), (w, -1.0)], Sense::Eq, -1.0);
        use BasisStatus::{AtLower, Basic};
        let slacks = Basis::from_statuses(vec![AtLower, AtLower, AtLower, Basic, Basic]);

        let opts = SimplexOptions::default();
        let mut worker = Worker::build(&m, &opts);
        assert_eq!(worker.try_install_basis(&slacks), Ok(()));
        assert_eq!(
            worker.restore_primal_feasibility(LeavingRule::MaxViolation),
            Ok(())
        );
        assert_eq!(worker.iterations, 2, "one step per violated row");

        let warm = RevisedSimplex::new(opts)
            .solve_warm(&m, Some(&slacks))
            .expect("warm");
        assert!(warm.warm_started, "the restoration must not fall back");
        assert!((warm.objective - 20.0).abs() < 1e-9, "{}", warm.objective);
        assert!((warm[y] - 5.0).abs() < 1e-9 && (warm[w] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fallbacks_are_summed_and_compared() {
        let one = SolveStats {
            iterations: 3,
            fallbacks: 1,
            ..SolveStats::default()
        };
        let mut total = SolveStats::default();
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.fallbacks, 2);
        assert_ne!(
            one,
            SolveStats {
                fallbacks: 0,
                ..one
            }
        );
    }

    #[test]
    fn a_streak_of_rejected_candidates_refactorizes_then_gives_up() {
        // The slack basis is optimal (nonnegative costs at lower bounds),
        // but every column's maintained reduced cost is corrupted to look
        // attractive, so the exact anchor rejects candidate after candidate.
        let mut m = Model::new();
        let vars: Vec<_> = (0..20)
            .map(|j| m.add_var(format!("x{j}"), 0.0, 1.0, 1.0))
            .collect();
        m.add_con("cap", vars.iter().map(|&v| (v, 1.0)), Sense::Le, 10.0);
        let opts = SimplexOptions::default();
        let corrupted = || {
            let mut w = Worker::build(&m, &opts);
            w.factorize_slack_basis().expect("B = I factorizes");
            w.compute_reduced_costs();
            for j in 0..20 {
                w.d[j] = -1.0;
            }
            w.d_exact = false;
            w
        };
        // With a fresh factorization there is nothing to refactorize:
        // the streak ends the phase.
        let mut fresh = corrupted();
        assert!(matches!(fresh.iterate(), Err(SolveError::Numerical(_))));
        assert_eq!(fresh.iterations, REJECTED_STREAK_MAX);
        // With an eta file, the streak refactorizes, which recomputes the
        // reduced costs exactly and certifies the optimum.
        let mut stale = corrupted();
        stale.etas.push(Eta::new(0, 1.0, Vec::new(), stale.m));
        assert_eq!(stale.iterate(), Ok(()));
        assert_eq!(stale.iterations, REJECTED_STREAK_MAX + 1);
        assert_eq!(stale.n_refactor, 1);
    }

    #[test]
    fn free_variable() {
        // min |style| problem: x free, minimize x s.t. x >= -5.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_con("lo", [(x, 1.0)], Sense::Ge, -5.0);
        let s = solve(&m);
        assert!((s[x] + 5.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_con("hi", [(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_con("lo", [(x, 1.0)], Sense::Ge, 0.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn a_slack_start_proves_infeasibility_and_unboundedness_itself() {
        // x + y ≤ 1 and x + y ≥ 2 over free x and y: each row has two
        // infinite activity bounds, so propagation proves nothing. The first
        // step pivots x in on row 2 and leaves row 1 at −1; row 1's pivot
        // row then offers only y (α = 0) and row 2's slack, whose bound
        // pushes the wrong way.
        let mut inf = Model::new();
        let x = inf.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = inf.add_var("y", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        inf.add_con("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        inf.add_con("need", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        let opts = SimplexOptions::default();
        assert_eq!(propagate::infeasible_at_pass(&inf, opts.feas_tol), None);
        let mut w = Worker::build(&inf, &opts);
        w.factorize_slack_basis().expect("B = I factorizes");
        assert_eq!(
            w.restore_and_optimize(LeavingRule::SteepestEdge),
            Err(SolveError::Infeasible)
        );
        assert_eq!(w.iterations, 2);

        // min −x over x ≥ 0: the slack basis is feasible, and phase 2's
        // first ratio test finds the ray.
        let mut unb = Model::new();
        let x = unb.add_var("x", 0.0, f64::INFINITY, -1.0);
        unb.add_con("lo", [(x, 1.0)], Sense::Ge, 0.0);
        let mut w = Worker::build(&unb, &opts);
        w.factorize_slack_basis().expect("B = I factorizes");
        assert_eq!(
            w.restore_and_optimize(LeavingRule::SteepestEdge),
            Err(SolveError::Unbounded)
        );
        assert_eq!(w.iterations, 1);
    }

    /// Rows over free columns that contradict each other only in
    /// combination: `k` random rows `aᵢ·x ≤ bᵢ` or `aᵢ·x = bᵢ`, then the
    /// row `Σ λᵢ·aᵢ·x ≥ Σ λᵢ·bᵢ + gap` with `λᵢ > 0` on the `≤` rows and of
    /// either sign on the `=` rows. The rows themselves cap that
    /// combination at `Σ λᵢ·bᵢ`, so a positive `gap` makes the LP
    /// infeasible. Otherwise it is feasible: the free block is dense with
    /// `k` no larger than its width, so it solves the rows with equality at
    /// any value of the boxed columns. Each row holds two or more free
    /// columns (the combination row almost surely), so row-activity
    /// propagation sees no finite activity bound; the test checks that it
    /// proves nothing. Only the boxed columns cost anything, so a feasible
    /// instance has an optimum.
    struct CombinationLp {
        n_free: usize,
        /// `(lb, ub, cost)` of each boxed column.
        boxed: Vec<(f64, f64, f64)>,
        /// `(coefficients, sense, rhs, λ)`, free columns first.
        rows: Vec<(Vec<f64>, Sense, f64, f64)>,
    }

    impl CombinationLp {
        fn random(rng: &mut ChaCha8Rng) -> Self {
            let n_free = rng.gen_range(2..6usize);
            let boxed: Vec<(f64, f64, f64)> = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let lb = rng.gen_range(-3.0..3.0);
                    (lb, lb + rng.gen_range(0.5..4.0), rng.gen_range(-2.0..2.0))
                })
                .collect();
            let rows = (0..rng.gen_range(1..n_free + 1))
                .map(|_| {
                    let coeffs = (0..n_free + boxed.len())
                        .map(|j| {
                            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                            if j < n_free {
                                sign * rng.gen_range(0.5..3.0)
                            } else if rng.gen_bool(0.5) {
                                sign * rng.gen_range(0.5..2.0)
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let (sense, lambda) = if rng.gen_bool(0.7) {
                        (Sense::Le, rng.gen_range(0.2..2.0))
                    } else {
                        (Sense::Eq, rng.gen_range(-2.0..2.0))
                    };
                    (coeffs, sense, rng.gen_range(-5.0..5.0), lambda)
                })
                .collect();
            CombinationLp {
                n_free,
                boxed,
                rows,
            }
        }

        fn build(&self, gap: f64) -> Model {
            let mut m = Model::new();
            let mut vars = Vec::new();
            for j in 0..self.n_free {
                vars.push(m.add_var(format!("f{j}"), f64::NEG_INFINITY, f64::INFINITY, 0.0));
            }
            for (j, &(lb, ub, cost)) in self.boxed.iter().enumerate() {
                vars.push(m.add_var(format!("b{j}"), lb, ub, cost));
            }
            let terms = |coeffs: &[f64]| -> Vec<(VarId, f64)> {
                vars.iter()
                    .zip(coeffs)
                    .filter(|&(_, &a)| a != 0.0)
                    .map(|(&v, &a)| (v, a))
                    .collect()
            };
            let mut combination = vec![0.0; vars.len()];
            let mut combination_rhs = gap;
            for (i, (coeffs, sense, rhs, lambda)) in self.rows.iter().enumerate() {
                m.add_con(format!("r{i}"), terms(coeffs), *sense, *rhs);
                for (c, a) in combination.iter_mut().zip(coeffs) {
                    *c += lambda * a;
                }
                combination_rhs += lambda * rhs;
            }
            m.add_con(
                "combination",
                terms(&combination),
                Sense::Ge,
                combination_rhs,
            );
            m
        }
    }

    #[test]
    fn infeasibility_propagation_cannot_see_is_proved_from_slack_and_warm_starts() {
        // Each case solves a feasible sibling (gap < 0) for its basis, then
        // an LP of the same rows whose gap is positive on even cases. The
        // revised simplex must call it infeasible exactly when the dense
        // tableau does, from the slack basis and from the sibling's basis,
        // and agree on the optimum otherwise.
        let cases = if cfg!(miri) { 12 } else { 300 };
        let mut rng = ChaCha8Rng::seed_from_u64(0x1AFE_A51B);
        let opts = SimplexOptions::default();
        let (mut proved, mut optima) = (0, 0);
        for case in 0..cases {
            let lp = CombinationLp::random(&mut rng);
            let sibling = lp.build(-rng.gen_range(0.5..3.0));
            let basis = RevisedSimplex::new(opts.clone())
                .solve(&sibling)
                .unwrap_or_else(|e| panic!("case {case}: sibling {e:?}"))
                .basis
                .expect("basis exported");
            let gap = rng.gen_range(0.5..3.0);
            let target = lp.build(if case % 2 == 0 { gap } else { -gap });
            assert_eq!(
                propagate::infeasible_at_pass(&target, opts.feas_tol),
                None,
                "case {case}: propagation proved it"
            );
            let dense = DenseSimplex::new().solve(&target);
            for (start, warm) in [("slack", None), ("warm", Some(&basis))] {
                let revised = RevisedSimplex::new(opts.clone()).solve_warm(&target, warm);
                match (&dense, &revised) {
                    (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                    (Ok(d), Ok(r)) => {
                        let scale = 1.0 + d.objective.abs();
                        assert!(
                            (d.objective - r.objective).abs() < 1e-6 * scale,
                            "case {case} ({start}): dense {} revised {}",
                            d.objective,
                            r.objective
                        );
                    }
                    (d, r) => panic!("case {case} ({start}): dense {d:?} revised {r:?}"),
                }
            }
            match dense {
                Err(_) => proved += 1,
                Ok(_) => optima += 1,
            }
        }
        let least = if cfg!(miri) { 4 } else { 100 };
        assert!(
            proved >= least && optima >= least,
            "{proved} infeasible, {optima} optima"
        );
    }

    #[test]
    fn negative_rhs_rows() {
        // A row with a negative residual at the slack basis: the restoration
        // moves the free column down.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_con("eq", [(x, 1.0)], Sense::Eq, -7.0);
        let s = solve(&m);
        assert!((s[x] + 7.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new();
        let x = m.add_var("x", 3.0, 3.0, 10.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_con("c", [(x, 1.0), (y, 1.0)], Sense::Ge, 5.0);
        let s = solve(&m);
        assert!((s[x] - 3.0).abs() < 1e-9);
        assert!((s[y] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the optimum.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -1.0);
        for k in 0..12 {
            let a = 1.0 + (k as f64) * 1e-9;
            m.add_con(format!("c{k}"), [(x, a), (y, 1.0)], Sense::Le, 10.0);
        }
        let s = solve(&m);
        assert!(s.objective <= -10.0 + 1e-6);
    }

    #[test]
    fn no_constraints_uses_bounds() {
        let mut m = Model::new();
        let x = m.add_var("x", -2.0, 5.0, 1.0);
        let y = m.add_var("y", -2.0, 5.0, -1.0);
        let s = solve(&m);
        assert!((s[x] + 2.0).abs() < 1e-9);
        assert!((s[y] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn transport_problem() {
        // 2 plants, 3 markets; classic transportation LP with known optimum.
        let supply = [350.0, 600.0];
        let demand = [325.0, 300.0, 275.0];
        let unit_cost = [[2.5, 1.7, 1.8], [2.5, 1.8, 1.4]];
        let mut m = Model::new();
        let mut ship = [[None; 3]; 2];
        for p in 0..2 {
            for q in 0..3 {
                ship[p][q] =
                    Some(m.add_var(format!("s{p}{q}"), 0.0, f64::INFINITY, unit_cost[p][q]));
            }
        }
        for p in 0..2 {
            m.add_con(
                format!("supply{p}"),
                (0..3).map(|q| (ship[p][q].unwrap(), 1.0)),
                Sense::Le,
                supply[p],
            );
        }
        for q in 0..3 {
            m.add_con(
                format!("demand{q}"),
                (0..2).map(|p| (ship[p][q].unwrap(), 1.0)),
                Sense::Ge,
                demand[q],
            );
        }
        let s = solve(&m);
        // Optimal: plant0 -> m1 (300) + m0 (50); plant1 -> m0 (275) + m2 (275).
        let expected = 300.0 * 1.7 + 50.0 * 2.5 + 275.0 * 2.5 + 275.0 * 1.4;
        assert!(
            (s.objective - expected).abs() < 1e-6,
            "got {} want {expected}",
            s.objective
        );
        crate::validate::assert_feasible(&m, &s.values, 1e-7);
        // Cross-check against the independent dense solver.
        let d = DenseSimplex::new().solve(&m).unwrap();
        assert!((d.objective - s.objective).abs() < 1e-6);
    }

    #[test]
    fn many_refactorizations() {
        // A chain problem long enough to force several refactorization
        // cycles with the default interval.
        let n = 400;
        let mut m = Model::new();
        let mut prev = None;
        let mut vars = Vec::new();
        for i in 0..n {
            let x = m.add_var(
                format!("x{i}"),
                0.0,
                10.0,
                if i % 3 == 0 { 1.0 } else { -1.0 },
            );
            if let Some(p) = prev {
                m.add_con(format!("link{i}"), [(p, 1.0), (x, -1.0)], Sense::Le, 1.0);
            }
            vars.push(x);
            prev = Some(x);
        }
        m.add_con("anchor", [(vars[0], 1.0)], Sense::Ge, 1.0);
        let s = solve(&m);
        // Every x_i free to sit at 10 except the minimized thirds which sit
        // as low as the chain allows; just check feasibility + finiteness.
        assert!(s.objective.is_finite());
        crate::validate::assert_feasible(&m, &s.values, 1e-6);
        assert!(s.stats.refactorizations > 1, "stats: {:?}", s.stats);
    }

    /// The eta pass as it ran before the nonzero list: a dot product over
    /// every entry of every eta. The reference [`eta_btran`] must match.
    fn eta_btran_dot_products(etas: &[Eta], y: &mut [f64]) {
        for eta in etas.iter().rev() {
            let mut s = y[eta.slot];
            for &(i, v) in &eta.entries {
                s -= v * y[i];
            }
            y[eta.slot] = s / eta.pivot;
        }
    }

    /// A seeded eta file over `m` slots: short etas (always a dot product)
    /// mixed with long ones (binary searches while the list is short).
    fn random_etas(rng: &mut ChaCha8Rng, m: usize, count: usize) -> Vec<Eta> {
        (0..count)
            .map(|_| {
                let slot = rng.gen_range(0..m);
                let density = [0.01, 0.05, 0.3, 0.8][rng.gen_range(0..4)];
                let mut entries = Vec::new();
                for i in 0..m {
                    if i != slot && rng.gen_bool(density) {
                        entries.push((i, rng.gen_range(-2.0..2.0)));
                    }
                }
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                Eta::new(slot, sign * rng.gen_range(0.25..4.0), entries, m)
            })
            .collect()
    }

    #[test]
    fn eta_btran_is_bit_identical_to_dot_products() {
        let bits = |v: &[f64]| -> Vec<u64> {
            v.iter()
                .map(|&x| if x == 0.0 { 0 } else { x.to_bits() })
                .collect()
        };
        let (sizes, files, count): (&[usize], usize, usize) = if cfg!(miri) {
            (&[40], 2, 16)
        } else {
            (&[40, 300, 1700], 6, 64)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let (mut hyper, mut dense, mut multi_term) = (0, 0, 0);
        for &m in sizes {
            for file in 0..files {
                let etas = random_etas(&mut rng, m, count);
                for _ in 0..4 {
                    // A pivot row's eᵣ with its nonzero list, one eta at a
                    // time, recording which side of the switch each took.
                    let r = rng.gen_range(0..m);
                    let mut y = vec![0.0; m];
                    y[r] = 1.0;
                    let mut nz = vec![r];
                    for k in (0..etas.len()).rev() {
                        let eta = &etas[k];
                        if nz.len() * ETA_HYPER_RATIO <= eta.entries.len() {
                            hyper += 1;
                            let hits = nz
                                .iter()
                                .filter(|&&i| y[i] != 0.0 && eta.entries.iter().any(|e| e.0 == i))
                                .count();
                            if hits >= 2 {
                                multi_term += 1;
                            }
                        } else if nz.len() > 1 {
                            dense += 1;
                        }
                        eta_btran(&etas[k..=k], &mut y, Some(&mut nz));
                    }
                    let mut reference = vec![0.0; m];
                    reference[r] = 1.0;
                    eta_btran_dot_products(&etas, &mut reference);
                    assert_eq!(bits(&y), bits(&reference), "m={m} file={file} r={r}");
                    // The whole file in one call agrees, and the list covers
                    // every nonzero in ascending order.
                    let mut whole = vec![0.0; m];
                    whole[r] = 1.0;
                    let mut whole_nz = vec![r];
                    eta_btran(&etas, &mut whole, Some(&mut whole_nz));
                    assert_eq!(bits(&whole), bits(&reference), "m={m} file={file} r={r}");
                    assert!(whole_nz.windows(2).all(|w| w[0] < w[1]));
                    assert!((0..m).all(|i| whole[i] == 0.0 || whole_nz.contains(&i)));
                }
                // A dense vector takes the dot product for every eta.
                let start: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let mut y = start.clone();
                eta_btran(&etas, &mut y, None);
                let mut reference = start;
                eta_btran_dot_products(&etas, &mut reference);
                assert_eq!(bits(&y), bits(&reference), "m={m} file={file} dense");
            }
        }
        assert!(
            hyper > 0 && dense > 0 && multi_term > 0,
            "hyper {hyper}, dense with a list {dense}, hyper with 2+ terms {multi_term}"
        );
    }

    #[test]
    fn reloaded_columns_match_a_fresh_build() {
        // Edits of every kind a model allows between kept solves: a value
        // changed, a term set to 0.0 (its entry goes), a term appended out
        // of column order, a zeroed term restored. After each reload the
        // columns and their row mirror must equal a fresh build's, and the
        // reported columns must be exactly those whose entries changed.
        let mut rng = ChaCha8Rng::seed_from_u64(0xC01_5EED);
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..8)
            .map(|j| m.add_var(format!("x{j}"), 0.0, 1.0, 1.0))
            .collect();
        let rows: Vec<_> = (0..6)
            .map(|i| {
                let terms: Vec<(VarId, f64)> = (0..8)
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|j| (vars[j], 1.0 + j as f64))
                    .collect();
                m.add_con(format!("r{i}"), terms, Sense::Le, 1.0)
            })
            .collect();
        let opts = SimplexOptions::default();
        let mut w = Worker::build(&m, &opts);
        let entries = |c: &ColMatrix, j: usize| c.col(j).collect::<Vec<_>>();
        for round in 0..40 {
            let before = columns(&m);
            for _ in 0..rng.gen_range(1..4) {
                let (i, j) = (rng.gen_range(0..6), rng.gen_range(0..8));
                let a = match rng.gen_range(0..3u32) {
                    0 => 0.0,
                    _ => rng.gen_range(-3.0..3.0),
                };
                m.set_con_term(rows[i], vars[j], a);
            }
            let fresh = columns(&m);
            let changed = w.reload_columns(&m);
            let differ: Vec<usize> = (0..8)
                .filter(|&j| entries(&before, j) != entries(&fresh, j))
                .collect();
            assert_eq!(changed, differ, "round {round}");
            for j in 0..fresh.n_cols() {
                assert_eq!(entries(&w.cols, j), entries(&fresh, j), "round {round}");
            }
            // The row copy holds each row's entries in an order of its own.
            let mirror = RowMatrix::from_cols(&fresh);
            for i in 0..6 {
                let mut got: Vec<_> = w.rows.row(i).collect();
                got.sort_unstable_by_key(|e| e.0);
                let want: Vec<_> = mirror.row(i).collect();
                assert_eq!(got, want, "round {round}, row {i}");
            }
            assert_live_partition(&w, &format!("round {round}"));
        }
    }

    /// Asserts that each row of `w`'s row copy holds exactly the entries of
    /// its row of the column store, and that its live part holds exactly
    /// those of the columns whose pricing state is not `Off`.
    fn assert_live_partition(w: &Worker, case: &str) {
        for i in 0..w.m {
            let mut stored: Vec<(usize, u64)> =
                w.rows.row(i).map(|(j, a)| (j, a.to_bits())).collect();
            stored.sort_unstable();
            let in_cols: Vec<(usize, u64)> = (0..w.n_total)
                .filter_map(|j| w.cols.get(j, i).map(|a| (j, a.to_bits())))
                .collect();
            assert_eq!(stored, in_cols, "{case}: row {i}");
            let mut live: Vec<usize> = w.rows.live_slices(i).0.to_vec();
            live.sort_unstable();
            let want: Vec<usize> = in_cols
                .iter()
                .map(|e| e.0)
                .filter(|&j| w.state[j] != PriceState::Off)
                .collect();
            assert_eq!(live, want, "{case}: live part of row {i}");
        }
    }

    #[test]
    fn live_partition_follows_status_and_bound_changes() {
        // Random statuses and bounds, fixed columns and basic ones among
        // them, moved one column at a time as pivots and bound edits move
        // them; the partition is checked after every batch.
        let mut rng = ChaCha8Rng::seed_from_u64(0x11FE);
        for case in 0..if cfg!(miri) { 2 } else { 12 } {
            let m = siting_shaped_lp(&mut rng, 4 + case % 5, 1 + case % 3, 0.3);
            let mut w = Worker::build(&m, &SimplexOptions::default());
            assert_live_partition(&w, &format!("case {case} built"));
            for batch in 0..20 {
                for _ in 0..rng.gen_range(1..12) {
                    let j = rng.gen_range(0..w.n_total);
                    if rng.gen_bool(0.3) {
                        // A bound edit: fixed, or freed again.
                        let lo = w.lb[j].max(-5.0);
                        w.ub[j] = if rng.gen_bool(0.5) { lo } else { lo + 3.0 };
                        w.lb[j] = lo;
                    }
                    let st = match rng.gen_range(0..4u32) {
                        0 => ColStatus::Basic(rng.gen_range(0..w.m)),
                        1 => ColStatus::AtLower,
                        2 => ColStatus::AtUpper,
                        _ => ColStatus::FreeAtZero,
                    };
                    w.set_status(j, st);
                }
                assert_live_partition(&w, &format!("case {case} batch {batch}"));
            }
        }
    }

    /// A seeded LP shaped like the siting formulation over `hours` hours
    /// and `sites` sites: per site a capacity and a solar size, per hour a
    /// grid draw, green supply capped by the hour's solar factor times the
    /// size, and a battery whose level chains hour to hour with ±1 and
    /// 0.9 coefficients; a long row asks for a green share of the load, and
    /// each site's capacity covers its peak. `green` is the share of the
    /// load that must be green.
    fn siting_shaped_lp(rng: &mut ChaCha8Rng, hours: usize, sites: usize, green: f64) -> Model {
        let mut m = Model::new();
        let mut green_terms = Vec::new();
        let mut total_load = 0.0;
        for s in 0..sites {
            let cap = m.add_var(format!("cap{s}"), 0.0, 200.0, 9.0 + s as f64);
            let solar = m.add_var(
                format!("solar{s}"),
                0.0,
                500.0,
                2.0 + rng.gen_range(0.0..1.0),
            );
            let batt = m.add_var(format!("batt{s}"), 0.0, 100.0, 1.5);
            let mut prev_level = None;
            let mut peak: f64 = 0.0;
            for h in 0..hours {
                let load = 10.0 + rng.gen_range(0.0..20.0);
                let cf = (rng.gen_range(0.0..1.0f64) - 0.3).max(0.0);
                peak = peak.max(load);
                total_load += load;
                let grid = m.add_var(
                    format!("grid{s}_{h}"),
                    0.0,
                    f64::INFINITY,
                    5.0 + rng.gen_range(0.0..3.0),
                );
                let green = m.add_var(format!("green{s}_{h}"), 0.0, f64::INFINITY, 0.0);
                let charge = m.add_var(format!("chg{s}_{h}"), 0.0, 30.0, 0.01);
                let discharge = m.add_var(format!("dis{s}_{h}"), 0.0, 30.0, 0.01);
                let level = m.add_var(format!("lvl{s}_{h}"), 0.0, f64::INFINITY, 0.0);
                m.add_con(
                    format!("bal{s}_{h}"),
                    [(grid, 1.0), (green, 1.0), (discharge, 1.0), (charge, -1.0)],
                    Sense::Eq,
                    load,
                );
                m.add_con(
                    format!("prod{s}_{h}"),
                    [(green, 1.0), (solar, -cf)],
                    Sense::Le,
                    0.0,
                );
                let mut chain = vec![(level, 1.0), (charge, -0.9), (discharge, 1.0)];
                if let Some(p) = prev_level {
                    chain.push((p, -1.0));
                }
                m.add_con(format!("lvl{s}_{h}"), chain, Sense::Eq, 0.0);
                m.add_con(
                    format!("room{s}_{h}"),
                    [(level, 1.0), (batt, -1.0)],
                    Sense::Le,
                    0.0,
                );
                green_terms.push((green, 1.0));
                prev_level = Some(level);
            }
            m.add_con(format!("peak{s}"), [(cap, 1.0)], Sense::Ge, peak);
        }
        m.add_con("green share", green_terms, Sense::Ge, green * total_load);
        m
    }

    /// `model` with every constraint's terms re-entered in a shuffled
    /// order, the model's own storage order.
    fn shuffled_terms(model: &Model, rng: &mut ChaCha8Rng) -> Model {
        let mut m = model.clone();
        for (i, con) in model.cons.iter().enumerate() {
            let mut terms = con.terms.clone();
            for k in (1..terms.len()).rev() {
                terms.swap(k, rng.gen_range(0..k + 1));
            }
            m.cons[i].terms = terms;
        }
        m
    }

    /// Shuffles the live and dead parts of every row of `w`'s row copy, the
    /// order the pivot-row gather touches columns in.
    fn shuffle_row_copy(w: &mut Worker, rng: &mut ChaCha8Rng) {
        for i in 0..w.m {
            let live: Vec<usize> = w.rows.live_slices(i).0.to_vec();
            let mut order = live.clone();
            for k in (1..order.len()).rev() {
                order.swap(k, rng.gen_range(0..k + 1));
            }
            // Moving columns out and back in, in a random order, rebuilds
            // the live part in that order (and stirs the dead part).
            for &j in &live {
                w.rows.set_live(&w.cols, j, false);
            }
            for &j in &order {
                w.rows.set_live(&w.cols, j, true);
            }
        }
    }

    #[test]
    fn storage_order_cannot_move_a_pivot() {
        // Each LP is solved as given and again with its terms shuffled and
        // its row copy's parts stirred, from the slack basis and from the
        // optimal basis of a sibling of the same shape drawn from another
        // seed; every count, status and objective bit must agree.
        let opts = SimplexOptions::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0x0D_E7E2);
        let cases = if cfg!(miri) { 1 } else { 6 };
        let mut pivots = 0;
        for case in 0..cases {
            let (hours, sites) = (6 + 4 * case, 1 + case % 3);
            let seed = rng.gen::<u64>();
            let given = siting_shaped_lp(&mut ChaCha8Rng::seed_from_u64(seed), hours, sites, 0.3);
            let sibling =
                siting_shaped_lp(&mut ChaCha8Rng::seed_from_u64(seed ^ 1), hours, sites, 0.3);
            let shuffled = shuffled_terms(&given, &mut rng);
            let warm = RevisedSimplex::new(opts.clone())
                .solve(&sibling)
                .unwrap_or_else(|e| panic!("case {case}: sibling {e:?}"))
                .basis
                .expect("basis exported");
            for start in [None, Some(&warm)] {
                let solve = |model: &Model, stir: Option<u64>| {
                    let mut w = Worker::build(model, &opts);
                    let installed = start.is_some_and(|b| w.try_install_basis(b).is_ok());
                    if let Some(stir) = stir {
                        shuffle_row_copy(&mut w, &mut ChaCha8Rng::seed_from_u64(stir));
                    }
                    let (sol, _) = RevisedSimplex::new(opts.clone())
                        .run(model, w, installed, || Ok(Worker::build(model, &opts)))
                        .unwrap_or_else(|e| panic!("case {case}: {e:?}"));
                    sol
                };
                let a = solve(&given, None);
                let b = solve(&shuffled, Some(rng.gen()));
                let what = format!(
                    "case {case} ({} start)",
                    if start.is_some() { "warm" } else { "slack" }
                );
                assert_eq!(a.warm_started, start.is_some(), "{what}");
                assert_eq!(a.stats, b.stats, "{what}");
                assert_eq!(a.warm_started, b.warm_started, "{what}");
                assert_eq!(a.basis, b.basis, "{what}");
                assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}");
                let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{what}");
                pivots += a.stats.iterations;
            }
        }
        assert!(pivots > 20 * cases, "{pivots} pivots compared");
    }
}
