//! Parallel simulated-annealing search over sitings (paper §II-C, step 3).
//!
//! A *siting* is a set of `(candidate index, size class)` pairs. Each siting
//! is evaluated by compiling and solving its LP ([`crate::formulation`]);
//! the SA explores neighbours by adding, removing, swapping, and resizing
//! datacenters. Multiple chains with different move-weight profiles run in
//! parallel and periodically synchronize on the shared incumbent, as the
//! paper describes. Evaluations are memoized: distinct chains frequently
//! propose the same siting.
//!
//! The search is bulk-synchronous, so its result depends on its inputs and
//! seed alone. The chains run in epochs of 8 iterations, one scoped thread
//! each, reading a frozen snapshot (the evaluated sitings, the incumbent
//! and the compiled site blocks) plus their own new work. At the barrier
//! before each epoch's first, adopting iteration, [`anneal`] merges the
//! chains' new work in chain-index order.

use crate::availability::min_datacenters;
use crate::candidate::CandidateSite;
use crate::formulation::{assemble, NetworkDispatch};
use crate::framework::{PlacementInput, SizeClass};
use crate::siteblock::SiteBlock;
use greencloud_cost::params::CostParams;
use greencloud_lp::{Basis, SimplexOptions, SolveError, SolveStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One siting: sorted, de-duplicated `(candidate index, size class)` pairs.
pub type Siting = Vec<(usize, SizeClass)>;

/// Tuning of the simulated-annealing search.
#[derive(Debug, Clone)]
pub struct AnnealOptions {
    /// Iterations per chain.
    pub iterations: usize,
    /// Number of parallel chains.
    pub chains: usize,
    /// Stop a chain after this many evaluated neighbours in a row without
    /// the global best dropping.
    pub patience: usize,
    /// Largest number of datacenters to consider.
    pub max_sites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        Self {
            iterations: 120,
            chains: 4,
            patience: 50,
            max_sites: 16,
            seed: 0xA11EA1,
        }
    }
}

/// Counters describing how the search spent its LP budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Sitings handed to the LP solver (eval-cache misses). This includes
    /// sitings the solver proves infeasible by bound propagation before
    /// any pivot.
    pub evaluations: usize,
    /// Sitings answered from the eval cache without solving.
    pub cache_hits: usize,
    /// Solves that were given a warm basis to try and returned an optimum.
    /// A siting proved infeasible never installs a basis, so it does not
    /// count.
    pub warm_attempts: usize,
    /// Solves that started from the warm basis and finished from it,
    /// without falling back to the two-phase solve
    /// ([`Solution::warm_started`](greencloud_lp::Solution::warm_started)).
    pub warm_hits: usize,
    /// Site blocks a chain found compiled, by itself or (after a barrier)
    /// by any chain.
    pub block_hits: usize,
    /// Site blocks compiled. Two chains that need a new block in the same
    /// epoch both compile it.
    pub block_misses: usize,
    /// Simplex iterations across all LP solves.
    pub simplex_iterations: usize,
    /// Basis refactorizations across all LP solves.
    pub refactorizations: usize,
    /// FTRAN solves across all LP solves.
    pub ftrans: usize,
    /// BTRAN solves across all LP solves.
    pub btrans: usize,
    /// The LP solver's [`SolveStats::pricing_ns`](greencloud_lp::SolveStats::pricing_ns)
    /// summed over all solves, nanoseconds: pricing plus the pivot-row
    /// BTRAN, gather and reduced-cost upkeep.
    pub pricing_ns: u64,
}

impl SearchStats {
    /// Warm-start success rate over attempts, in `[0, 1]`.
    pub fn warm_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    /// Eval-cache hit rate over all eval requests, in `[0, 1]`.
    pub fn cache_rate(&self) -> f64 {
        let total = self.evaluations + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// [`SearchStats::pricing_ns`] in milliseconds.
    pub fn pricing_ms(&self) -> f64 {
        self.pricing_ns as f64 / 1e6
    }

    /// Adds one LP solve's solver counters.
    fn absorb_solve(&mut self, st: &SolveStats) {
        self.simplex_iterations += st.iterations;
        self.refactorizations += st.refactorizations;
        self.ftrans += st.ftrans;
        self.btrans += st.btrans;
        self.pricing_ns += st.pricing_ns;
    }
}

/// Result of the annealing search.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// The best siting found.
    pub siting: Siting,
    /// Its LP optimum (sizing, dispatch, cost).
    pub dispatch: NetworkDispatch,
    /// Cache and warm-start accounting for this run.
    pub stats: SearchStats,
}

/// Iterations per epoch. The barrier sits right before every iteration `i`
/// with `i % SYNC_PERIOD == SYNC_PERIOD - 1`, where each chain adopts the
/// incumbent if it beats the chain's current siting.
const SYNC_PERIOD: usize = 8;

/// Most warm-start bases the eval map keeps, applied at the merge. Costs
/// are memoized forever (one `f64` each), but a basis is kilobytes and only
/// a warm-start seed: a siting merged past the cap keeps its cost only.
const BASIS_CAP: usize = 1024;

/// A candidate incumbent: `(cost, siting, dispatch)`.
type Incumbent = (f64, Siting, NetworkDispatch);

/// A compiled site block's key: `(candidate index, size class)`.
type BlockKey = (usize, SizeClass);

/// What the eval map remembers per siting: the LP outcome (`None` cost =
/// infeasible) and, for solvable sitings, the optimal basis so later
/// same-shape evaluations can warm-start from it.
struct CachedEval {
    cost: Option<f64>,
    basis: Option<Arc<Basis>>,
}

/// What every chain reads during an epoch: the problem, and all the work
/// merged at earlier barriers. Only the barrier writes it, so the chains
/// share it without locks.
struct Shared<'a> {
    params: &'a CostParams,
    input: &'a PlacementInput,
    candidates: &'a [CandidateSite],
    /// Every evaluated siting's outcome.
    evals: HashMap<Siting, CachedEval>,
    /// Entries of `evals` that hold a basis.
    bases_held: usize,
    /// The cheapest siting found so far.
    best: Option<Incumbent>,
    /// Site blocks compiled for this `(params, input)` pair.
    blocks: HashMap<BlockKey, Arc<SiteBlock>>,
}

impl<'a> Shared<'a> {
    fn new(
        params: &'a CostParams,
        input: &'a PlacementInput,
        candidates: &'a [CandidateSite],
    ) -> Self {
        Self {
            params,
            input,
            candidates,
            evals: HashMap::new(),
            bases_held: 0,
            best: None,
            blocks: HashMap::new(),
        }
    }

    /// The barrier: moves one chain's work since the last barrier into the
    /// snapshot. Called in chain-index order, so an entry from an earlier
    /// chain wins, and so does its incumbent on a cost tie.
    fn merge(&mut self, chain: &mut Chain) {
        for (siting, mut entry) in chain.evaluated.drain(..) {
            if let Entry::Vacant(slot) = self.evals.entry(siting) {
                if entry.basis.is_some() {
                    if self.bases_held < BASIS_CAP {
                        self.bases_held += 1;
                    } else {
                        entry.basis = None;
                    }
                }
                slot.insert(entry);
            }
        }
        for (key, block) in chain.compiled.drain(..) {
            self.blocks.entry(key).or_insert(block);
        }
        if let Some(best) = chain.best.take() {
            if best.0 < cost_of(&self.best) {
                self.best = Some(best);
            }
        }
    }
}

/// An incumbent's cost (infinite before any feasible siting).
fn cost_of(best: &Option<Incumbent>) -> f64 {
    best.as_ref().map_or(f64::INFINITY, |(cost, _, _)| *cost)
}

/// Runs the search. `candidates` should already be pre-filtered (cheapest
/// first — the first `n_min` seed the initial siting).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when no explored siting satisfies the
/// constraints.
pub fn anneal(
    params: &CostParams,
    input: &PlacementInput,
    candidates: &[CandidateSite],
    options: &AnnealOptions,
) -> Result<AnnealResult, SolveError> {
    input
        .validate()
        .map_err(|e| SolveError::InvalidModel(e.to_string()))?;
    let n_min = min_datacenters(input.min_availability, input.dc_availability);
    if candidates.len() < n_min {
        return Err(SolveError::InvalidModel(format!(
            "need at least {n_min} candidates for the availability target"
        )));
    }
    let class_for = |count: usize| -> SizeClass {
        // A network split across `count` sites: large class whenever the
        // per-site max power crosses the 10 MW threshold.
        let per_site = input.total_capacity_mw / count as f64 * 1.1;
        if per_site > 9.0 {
            SizeClass::Large
        } else {
            SizeClass::Small
        }
    };
    let initial: Siting = (0..n_min).map(|i| (i, class_for(n_min))).collect();

    let mut shared = Shared::new(params, input, candidates);
    let mut chains: Vec<Chain> = (0..options.chains.max(1))
        .map(|index| Chain::new(index, options.seed, &initial))
        .collect();
    // The first chain solves the initial siting once, in its own counters,
    // and every chain starts from the result.
    let start = chains[0].evaluate(&shared, &initial, None);
    shared.merge(&mut chains[0]);
    if let Some((cost, basis)) = start {
        for chain in &mut chains {
            chain.current_cost = cost;
            chain.current_basis = basis.clone();
            chain.temp = cost * INITIAL_TEMP_FRAC;
            chain.last_best = cost;
        }
    }

    let mut from = 0;
    while from < options.iterations && chains.iter().any(|c| !c.done) {
        // The epoch ends at the next adopting iteration.
        let to = ((from + 1) / SYNC_PERIOD * SYNC_PERIOD + SYNC_PERIOD - 1).min(options.iterations);
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = chains
                .iter_mut()
                .filter(|c| !c.done)
                .map(|chain| scope.spawn(move || chain.run(shared, options, n_min, from..to)))
                .collect();
            for handle in handles {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            }
        });
        for chain in &mut chains {
            shared.merge(chain);
        }
        from = to;
    }

    let mut stats = SearchStats::default();
    for chain in &chains {
        let c = &chain.stats;
        stats.evaluations += c.evaluations;
        stats.cache_hits += c.cache_hits;
        stats.warm_attempts += c.warm_attempts;
        stats.warm_hits += c.warm_hits;
        stats.block_hits += c.block_hits;
        stats.block_misses += c.block_misses;
        stats.simplex_iterations += c.simplex_iterations;
        stats.refactorizations += c.refactorizations;
        stats.ftrans += c.ftrans;
        stats.btrans += c.btrans;
        stats.pricing_ns += c.pricing_ns;
    }
    match shared.best {
        Some((_, siting, dispatch)) => Ok(AnnealResult {
            siting,
            dispatch,
            stats,
        }),
        None => Err(SolveError::Infeasible),
    }
}

/// Initial temperature as a fraction of the initial cost.
const INITIAL_TEMP_FRAC: f64 = 0.05;

/// Geometric cooling factor per iteration.
const COOLING: f64 = 0.96;

/// One annealing chain: its walk and counters, carried from epoch to
/// epoch, and its work since the last barrier, in the order it was done.
/// An epoch adds a handful of entries, so they are searched linearly.
struct Chain {
    rng: ChaCha8Rng,
    /// How eagerly the chain adds, removes and swaps; the rest resizes.
    weights: (f64, f64, f64),
    current: Siting,
    current_cost: f64,
    /// The basis of the chain's current siting; neighbour evaluations of the
    /// same shape warm-start from it (the LP layer falls back to a cold
    /// solve whenever the transfer is unusable).
    current_basis: Option<Arc<Basis>>,
    temp: f64,
    /// Patience counts evaluated neighbours since the incumbent's cost, as
    /// this chain sees it, last dropped below `last_best`.
    last_best: f64,
    since_improvement: usize,
    /// Out of patience: the chain sits out later epochs.
    done: bool,
    stats: SearchStats,
    evaluated: Vec<(Siting, CachedEval)>,
    compiled: Vec<(BlockKey, Arc<SiteBlock>)>,
    /// Set when the chain beats the snapshot's incumbent and its own.
    best: Option<Incumbent>,
}

impl Chain {
    /// Chain `index` at `initial`, before its cost is known.
    fn new(index: usize, seed: u64, initial: &Siting) -> Self {
        Chain {
            rng: ChaCha8Rng::seed_from_u64(seed.wrapping_add(index as u64 * 0x9E37)),
            // Chains differ in how eagerly they add/remove/swap (the paper's
            // "different neighbor generation approaches").
            weights: match index % 4 {
                0 => (0.3, 0.2, 0.3),
                1 => (0.1, 0.35, 0.35),
                2 => (0.35, 0.1, 0.35),
                _ => (0.2, 0.2, 0.4),
            },
            current: initial.clone(),
            current_cost: f64::INFINITY,
            current_basis: None,
            temp: 1e6,
            last_best: f64::INFINITY,
            since_improvement: 0,
            done: false,
            stats: SearchStats::default(),
            evaluated: Vec::new(),
            compiled: Vec::new(),
            best: None,
        }
    }

    /// Runs one epoch: the iterations `iters`, the first of which adopts
    /// the incumbent unless it is the search's first iteration.
    fn run(
        &mut self,
        shared: &Shared,
        options: &AnnealOptions,
        n_min: usize,
        iters: std::ops::Range<usize>,
    ) {
        if iters.start % SYNC_PERIOD == SYNC_PERIOD - 1 {
            if let Some((cost, siting, _)) = &shared.best {
                if *cost < self.current_cost {
                    self.current_cost = *cost;
                    self.current_basis = shared.evals.get(siting).and_then(|e| e.basis.clone());
                    self.current = siting.clone();
                }
            }
        }
        for _ in iters {
            if self.step(shared, options, n_min) {
                self.done = true;
                return;
            }
        }
    }

    /// Proposes, evaluates and maybe accepts one neighbour. Returns `true`
    /// when the chain has run out of patience.
    fn step(&mut self, shared: &Shared, options: &AnnealOptions, n_min: usize) -> bool {
        let candidates = shared.candidates;
        let max_sites = options.max_sites.min(candidates.len());
        let (w_add, w_remove, w_swap) = self.weights;
        let rng = &mut self.rng;
        let mut neighbour = self.current.clone();
        let roll: f64 = rng.gen();
        if roll < w_add && neighbour.len() < max_sites {
            // Add a random unsited candidate.
            let unsited: Vec<usize> = (0..candidates.len())
                .filter(|i| !neighbour.iter().any(|(c, _)| c == i))
                .collect();
            if let Some(&pick) = pick_random(rng, &unsited) {
                let class = if rng.gen_bool(0.5) {
                    SizeClass::Large
                } else {
                    SizeClass::Small
                };
                neighbour.push((pick, class));
            }
        } else if roll < w_add + w_remove && neighbour.len() > n_min {
            let k = rng.gen_range(0..neighbour.len());
            neighbour.remove(k);
        } else if roll < w_add + w_remove + w_swap {
            // Swap a sited candidate for an unsited one (keeps the class).
            let unsited: Vec<usize> = (0..candidates.len())
                .filter(|i| !neighbour.iter().any(|(c, _)| c == i))
                .collect();
            if let (Some(&pick), true) = (pick_random(rng, &unsited), !neighbour.is_empty()) {
                let k = rng.gen_range(0..neighbour.len());
                neighbour[k].0 = pick;
            }
        } else if !neighbour.is_empty() {
            // Resize: toggle the size class of one datacenter.
            let k = rng.gen_range(0..neighbour.len());
            neighbour[k].1 = match neighbour[k].1 {
                SizeClass::Small => SizeClass::Large,
                SizeClass::Large => SizeClass::Small,
            };
        }
        neighbour.sort_unstable();
        neighbour.dedup_by_key(|p| p.0);
        if neighbour.len() < n_min || neighbour == self.current {
            return false;
        }

        // A same-length neighbour keeps the LP shape, so the current basis
        // is a candidate warm start; add/remove moves change dimensions and
        // always solve cold.
        let warm = if neighbour.len() == self.current.len() {
            self.current_basis.clone()
        } else {
            None
        };
        let Some((cost, basis)) = self.evaluate(shared, &neighbour, warm.as_deref()) else {
            return false;
        };
        let accept = cost < self.current_cost || {
            let delta = cost - self.current_cost;
            self.temp > 0.0 && self.rng.gen::<f64>() < (-delta / self.temp).exp()
        };
        if accept {
            self.current = neighbour;
            self.current_cost = cost;
            self.current_basis = basis;
        }
        self.temp *= COOLING;

        let best = self.best_cost(shared);
        if best < self.last_best {
            self.last_best = best;
            self.since_improvement = 0;
            false
        } else {
            self.since_improvement += 1;
            self.since_improvement > options.patience
        }
    }

    /// The incumbent's cost as this chain sees it.
    fn best_cost(&self, shared: &Shared) -> f64 {
        cost_of(&shared.best).min(cost_of(&self.best))
    }

    /// Evaluates a siting (memoized), counting the request into the chain's
    /// stats, and records a new incumbent when the siting beats the one the
    /// chain sees.
    ///
    /// Returns the siting's cost together with its optimal basis (for the
    /// chain to warm-start neighbour evaluations), or `None` for infeasible
    /// sitings. `warm` is a basis from a same-shape siting to seed the solve.
    fn evaluate(
        &mut self,
        shared: &Shared,
        siting: &Siting,
        warm: Option<&Basis>,
    ) -> Option<(f64, Option<Arc<Basis>>)> {
        let known = self
            .evaluated
            .iter()
            .find(|(s, _)| s == siting)
            .map(|(_, e)| e)
            .or_else(|| shared.evals.get(siting));
        if let Some(hit) = known {
            self.stats.cache_hits += 1;
            return hit.cost.map(|c| (c, hit.basis.clone()));
        }
        let sites: Vec<_> = siting
            .iter()
            .map(|&key| (&shared.candidates[key.0], self.block(shared, key)))
            .collect();
        let lp = assemble(shared.input, &sites);
        self.stats.evaluations += 1;
        let outcome = match lp.solve_warm(SimplexOptions::default(), warm) {
            Ok((dispatch, basis)) => {
                if warm.is_some() {
                    self.stats.warm_attempts += 1;
                }
                if dispatch.warm_started {
                    self.stats.warm_hits += 1;
                }
                self.stats.absorb_solve(&dispatch.lp_stats);
                let cost = dispatch.monthly_cost;
                if cost < self.best_cost(shared) {
                    self.best = Some((cost, siting.clone(), dispatch));
                }
                Some((cost, basis.map(Arc::new)))
            }
            Err(_) => None,
        };
        self.evaluated.push((
            siting.clone(),
            CachedEval {
                cost: outcome.as_ref().map(|(c, _)| *c),
                basis: outcome.as_ref().and_then(|(_, b)| b.clone()),
            },
        ));
        outcome
    }

    /// The compiled block for `key`, from the chain's own compilations or
    /// the snapshot; a block in neither is compiled and kept for the
    /// barrier.
    fn block(&mut self, shared: &Shared, key: BlockKey) -> Arc<SiteBlock> {
        let known = self
            .compiled
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, b)| b)
            .or_else(|| shared.blocks.get(&key));
        if let Some(block) = known {
            self.stats.block_hits += 1;
            return Arc::clone(block);
        }
        let (ci, class) = key;
        let block = Arc::new(SiteBlock::build(
            shared.params,
            shared.input,
            ci,
            &shared.candidates[ci],
            class,
        ));
        self.stats.block_misses += 1;
        self.compiled.push((key, Arc::clone(&block)));
        block
    }
}

fn pick_random<'a, R: Rng>(rng: &mut R, xs: &'a [usize]) -> Option<&'a usize> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::filter_candidates;
    use crate::framework::{StorageMode, TechMix};
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;

    fn quick_options() -> AnnealOptions {
        AnnealOptions {
            iterations: 25,
            chains: 2,
            patience: 20,
            seed: 7,
            ..AnnealOptions::default()
        }
    }

    fn brown_input() -> PlacementInput {
        PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        }
    }

    #[test]
    fn finds_a_feasible_brown_network() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        let kept = filter_candidates(&CostParams::default(), &input, &cands, 5);
        let filtered: Vec<CandidateSite> = kept.iter().map(|&i| cands[i].clone()).collect();
        let r = anneal(&CostParams::default(), &input, &filtered, &quick_options()).expect("finds");
        assert!(r.siting.len() >= 2, "availability demands ≥2 DCs");
        assert!(r.dispatch.monthly_cost > 1e6);
        assert!(r.dispatch.total_capacity_mw >= 20.0 - 1e-6);
        assert!(r.stats.evaluations > 0);
    }

    #[test]
    fn green_requirement_finds_windy_site() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.5,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        };
        let r = anneal(&CostParams::default(), &input, &cands, &quick_options()).expect("finds");
        assert!(r.dispatch.green_fraction >= 0.5 - 1e-6);
        // Some green plant must exist.
        let plant: f64 = r
            .dispatch
            .sites
            .iter()
            .map(|s| s.solar_mw + s.wind_mw)
            .sum();
        assert!(plant > 1.0, "plants {plant}");
    }

    #[test]
    fn infeasible_when_capacity_unreachable() {
        let w = WorldCatalog::anchors_only(5);
        let mut cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        for c in &mut cands {
            c.econ.near_plant_cap_kw = 100.0; // 25 kW of brown available
        }
        let input = PlacementInput {
            total_capacity_mw: 500.0,
            ..brown_input()
        };
        let err = anneal(&CostParams::default(), &input, &cands, &quick_options()).unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn search_stats_are_consistent() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.5,
            tech: TechMix::Both,
            storage: StorageMode::NetMetering,
            ..PlacementInput::default()
        };
        let r = anneal(&CostParams::default(), &input, &cands, &quick_options()).expect("finds");
        let st = r.stats;
        assert!(st.evaluations > 0);
        // Swap/resize moves keep the siting length, so warm starts must
        // have been attempted, and most blocks past the first siting build
        // should be found compiled.
        assert!(st.warm_attempts > 0, "stats: {st:?}");
        assert!(st.warm_hits <= st.warm_attempts);
        assert!(st.block_hits > 0, "stats: {st:?}");
        assert!(st.warm_rate() >= 0.0 && st.warm_rate() <= 1.0);
        assert!(st.cache_rate() >= 0.0 && st.cache_rate() <= 1.0);
        // The per-solve solver counters aggregate across every eval-cache
        // miss, so a search that solved anything reports pivot work.
        assert!(st.simplex_iterations > 0, "stats: {st:?}");
        assert!(st.ftrans > 0 && st.btrans > 0, "stats: {st:?}");
        assert!(st.refactorizations > 0, "stats: {st:?}");
    }

    #[test]
    fn slack_starts_are_not_counted_as_warm_hits() {
        // Add/remove moves and the initial siting are solved without a
        // basis, from the slack basis; those solves must not count as
        // warm hits, or the hit rate could pass 1.
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let st = anneal(
            &CostParams::default(),
            &brown_input(),
            &cands,
            &quick_options(),
        )
        .expect("feasible")
        .stats;
        assert!(st.evaluations > st.warm_attempts, "stats: {st:?}");
        assert!(st.warm_hits <= st.warm_attempts, "stats: {st:?}");
    }

    #[test]
    fn warm_attempts_count_only_solved_sitings() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        let params = CostParams::default();
        let shared = Shared::new(&params, &input, &cands);
        let mut chain = Chain::new(0, 7, &Vec::new());
        let large = vec![(0, SizeClass::Large), (1, SizeClass::Large)];
        let (_, basis) = chain
            .evaluate(&shared, &large, None)
            .expect("two large sites reach 20 MW");
        let basis = basis.expect("an optimal solve exports its basis");
        // Two small sites hold at most 2 × 10 MW / PUE: a same-shape
        // neighbour that is infeasible, so no basis is ever installed.
        let small = vec![(0, SizeClass::Small), (1, SizeClass::Small)];
        let infeasible = chain.evaluate(&shared, &small, Some(&basis));
        assert!(infeasible.is_none());
        assert_eq!(chain.stats.warm_attempts, 0);
        let moved = vec![(0, SizeClass::Large), (2, SizeClass::Large)];
        let solved = chain.evaluate(&shared, &moved, Some(&basis));
        assert!(solved.is_some());
        assert_eq!(chain.stats.warm_attempts, 1);
    }

    #[test]
    fn blocks_are_reused_within_a_chain_and_shared_at_the_barrier() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        let params = CostParams::default();
        let mut shared = Shared::new(&params, &input, &cands);
        let (mut a, mut b) = (Chain::new(0, 7, &Vec::new()), Chain::new(1, 7, &Vec::new()));
        let key = (2, SizeClass::Large);
        let a1 = a.block(&shared, key);
        let a2 = a.block(&shared, key);
        assert!(Arc::ptr_eq(&a1, &a2), "one chain compiles a key once");
        assert_eq!((a.stats.block_hits, a.stats.block_misses), (1, 1));
        // A different class is a different block.
        let small = a.block(&shared, (2, SizeClass::Small));
        assert!(!Arc::ptr_eq(&a1, &small));
        assert_eq!(a.stats.block_misses, 2);
        // Within the epoch, another chain does not see the first one's
        // blocks.
        let b1 = b.block(&shared, key);
        assert!(!Arc::ptr_eq(&a1, &b1));
        assert_eq!((b.stats.block_hits, b.stats.block_misses), (0, 1));
        // After the barrier every chain finds the earlier chain's block.
        shared.merge(&mut a);
        shared.merge(&mut b);
        let merged = b.block(&shared, key);
        assert!(Arc::ptr_eq(&a1, &merged));
        assert_eq!((b.stats.block_hits, b.stats.block_misses), (1, 1));
    }

    #[test]
    fn the_barrier_merges_in_chain_order() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        let params = CostParams::default();
        let mut shared = Shared::new(&params, &input, &cands);
        let (mut a, mut b) = (Chain::new(0, 7, &Vec::new()), Chain::new(1, 7, &Vec::new()));
        let siting = vec![(0, SizeClass::Large), (1, SizeClass::Large)];
        let (cost, basis_a) = a.evaluate(&shared, &siting, None).expect("feasible");
        // The other chain solves the same siting again in the same epoch.
        let (_, basis_b) = b.evaluate(&shared, &siting, None).expect("feasible");
        assert_eq!((a.stats.evaluations, b.stats.evaluations), (1, 1));
        // Make the later chain's incumbent tie the earlier one's on cost.
        let (_, _, dispatch) = b.best.take().expect("a first solve sets the incumbent");
        let other = vec![(0, SizeClass::Large), (2, SizeClass::Large)];
        b.best = Some((cost, other, dispatch));
        shared.merge(&mut a);
        shared.merge(&mut b);
        let entry = &shared.evals[&siting];
        let (basis_a, basis_b) = (basis_a.expect("basis"), basis_b.expect("basis"));
        assert!(Arc::ptr_eq(entry.basis.as_ref().expect("kept"), &basis_a));
        assert!(!Arc::ptr_eq(&basis_a, &basis_b));
        assert_eq!(shared.bases_held, 1);
        assert_eq!(shared.best.as_ref().map(|(_, s, _)| s), Some(&siting));
        // After the barrier the siting is a hit for both chains.
        assert!(b.evaluate(&shared, &siting, None).is_some());
        assert_eq!((b.stats.evaluations, b.stats.cache_hits), (1, 1));
    }

    #[test]
    fn patience_counts_from_the_last_global_improvement() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        let run = |iterations, patience| {
            let opts = AnnealOptions {
                iterations,
                chains: 1,
                patience,
                seed: 7,
                ..AnnealOptions::default()
            };
            anneal(&CostParams::default(), &input, &cands, &opts).expect("feasible")
        };
        let requests = |r: &AnnealResult| r.stats.evaluations + r.stats.cache_hits;
        // Premise: the first neighbour is feasible and beats the initial
        // siting, so it lowers the global best.
        let initial = run(0, 0);
        let first = run(1, 0);
        assert!(first.dispatch.monthly_cost < initial.dispatch.monthly_cost);
        assert_eq!(requests(&first), 2);
        // With no patience the chain stops at the first neighbour that
        // leaves the global best where it was, which is not the first one.
        let r = run(30, 0);
        assert!(requests(&r) > 2, "stats: {:?}", r.stats);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = brown_input();
        for chains in [1, 3] {
            let opts = AnnealOptions {
                chains,
                ..quick_options()
            };
            let a = anneal(&CostParams::default(), &input, &cands, &opts).unwrap();
            let b = anneal(&CostParams::default(), &input, &cands, &opts).unwrap();
            assert_eq!(a.siting, b.siting);
            assert_eq!(
                a.dispatch.monthly_cost.to_bits(),
                b.dispatch.monthly_cost.to_bits()
            );
            let counts = |s: &SearchStats| {
                (
                    s.evaluations,
                    s.cache_hits,
                    s.warm_hits,
                    s.block_misses,
                    s.simplex_iterations,
                )
            };
            assert_eq!(counts(&a.stats), counts(&b.stats), "{chains} chains");
        }
    }
}
