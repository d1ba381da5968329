//! Parallel simulated-annealing search over sitings (paper §II-C, step 3).
//!
//! A *siting* is a set of `(candidate index, size class)` pairs. Each siting
//! is evaluated by compiling and solving its LP ([`crate::formulation`]);
//! the SA explores neighbours by adding, removing, swapping, and resizing
//! datacenters. Multiple chains run on separate threads with different
//! move-weight profiles and periodically synchronize on the shared
//! incumbent, as the paper describes. Evaluations are memoized: distinct
//! chains frequently propose the same siting.

use crate::availability::min_datacenters;
use crate::candidate::CandidateSite;
use crate::formulation::{build_network_lp_cached, NetworkDispatch};
use crate::framework::{PlacementInput, SizeClass};
use crate::lock_ok;
use crate::siteblock::SiteBlockCache;
use greencloud_cost::params::CostParams;
use greencloud_lp::{Basis, SimplexOptions, SolveError, SolveStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

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
    /// Solves that actually started from the warm basis (skipped phase 1).
    pub warm_hits: usize,
    /// Site blocks reused from the block cache.
    pub block_hits: usize,
    /// Site blocks compiled (block-cache misses).
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

/// What the eval cache remembers per siting: the LP outcome (`None` cost =
/// infeasible) and, for solvable sitings, the optimal basis so later
/// same-shape evaluations can warm-start from it.
#[derive(Clone, Default)]
struct CachedEval {
    cost: Option<f64>,
    basis: Option<Arc<Basis>>,
}

/// Sharded siting → outcome map. Chains mostly touch different shards, so
/// the old single global `Mutex<HashMap>` bottleneck disappears.
///
/// Costs are memoized forever (they are one `f64` each), but basis
/// snapshots are kilobytes apiece and only useful as warm-start seeds, so
/// each shard keeps at most [`EvalCache::BASIS_CAP_PER_SHARD`] of them —
/// a dropped basis merely costs one cold solve on a revisit.
struct EvalCache {
    shards: Vec<Mutex<EvalShard>>,
}

#[derive(Default)]
struct EvalShard {
    map: HashMap<Siting, CachedEval>,
    bases_held: usize,
}

impl EvalCache {
    const BASIS_CAP_PER_SHARD: usize = 64;

    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(EvalShard::default()))
                .collect(),
        }
    }

    fn shard(&self, siting: &Siting) -> &Mutex<EvalShard> {
        let mut h = DefaultHasher::new();
        siting.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn get(&self, siting: &Siting) -> Option<CachedEval> {
        lock_ok(self.shard(siting)).map.get(siting).cloned()
    }

    fn insert(&self, siting: Siting, mut entry: CachedEval) {
        let mut shard = lock_ok(self.shard(&siting));
        if entry.basis.is_some() {
            if shard.bases_held >= Self::BASIS_CAP_PER_SHARD {
                entry.basis = None;
            } else {
                shard.bases_held += 1;
            }
        }
        shard.map.insert(siting, entry);
    }
}

/// What the chains share: the incumbent and the two caches. Each chain
/// counts its own [`SearchStats`].
struct Shared {
    best: RwLock<Option<(f64, Siting, NetworkDispatch)>>,
    cache: EvalCache,
    blocks: SiteBlockCache,
}

impl Shared {
    fn new() -> Self {
        Self {
            best: RwLock::new(None),
            cache: EvalCache::new(16),
            blocks: SiteBlockCache::new(),
        }
    }

    /// The incumbent's cost (infinite before any feasible siting).
    fn best_cost(&self) -> f64 {
        self.best
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(f64::INFINITY, |(bc, _, _)| *bc)
    }
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
    let shared = Shared::new();

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

    let chains = options.chains.max(1);
    // Integer sums do not depend on the order the chains finish in.
    let mut stats = SearchStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..chains)
            .map(|chain| {
                let shared = &shared;
                let initial = initial.clone();
                scope.spawn(move || {
                    run_chain(
                        params, input, candidates, options, chain, initial, shared, n_min,
                    )
                })
            })
            .collect();
        for handle in handles {
            let chain = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            stats.evaluations += chain.evaluations;
            stats.cache_hits += chain.cache_hits;
            stats.warm_attempts += chain.warm_attempts;
            stats.warm_hits += chain.warm_hits;
            stats.simplex_iterations += chain.simplex_iterations;
            stats.refactorizations += chain.refactorizations;
            stats.ftrans += chain.ftrans;
            stats.btrans += chain.btrans;
            stats.pricing_ns += chain.pricing_ns;
        }
    });
    stats.block_hits = shared.blocks.hits();
    stats.block_misses = shared.blocks.misses();
    let best = shared
        .best
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    match best {
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

/// Runs one annealing chain and returns what it counted.
#[allow(clippy::too_many_arguments)]
fn run_chain(
    params: &CostParams,
    input: &PlacementInput,
    candidates: &[CandidateSite],
    options: &AnnealOptions,
    chain: usize,
    initial: Siting,
    shared: &Shared,
    n_min: usize,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let mut rng = ChaCha8Rng::seed_from_u64(options.seed.wrapping_add(chain as u64 * 0x9E37));
    let mut current = initial;
    // The basis of the chain's current siting; neighbour evaluations of the
    // same shape warm-start from it (the LP layer falls back to a cold
    // solve whenever the transfer is unusable).
    let mut current_basis: Option<Arc<Basis>> = None;
    let mut current_cost = match evaluate(
        params, input, candidates, &current, shared, &mut stats, None,
    ) {
        Some((c, basis)) => {
            current_basis = basis;
            c
        }
        None => f64::INFINITY,
    };
    let mut temp = if current_cost.is_finite() {
        current_cost * INITIAL_TEMP_FRAC
    } else {
        1e6
    };
    let max_sites = options.max_sites.min(candidates.len());
    // Patience counts evaluated neighbours since the global best (any
    // chain's) last dropped below `last_best`.
    let mut last_best = shared.best_cost();
    let mut since_improvement = 0usize;

    // Chains differ in how eagerly they add/remove/swap (the paper's
    // "different neighbor generation approaches").
    let (w_add, w_remove, w_swap) = match chain % 4 {
        0 => (0.3, 0.2, 0.3),
        1 => (0.1, 0.35, 0.35),
        2 => (0.35, 0.1, 0.35),
        _ => (0.2, 0.2, 0.4),
    };

    for iter in 0..options.iterations {
        // Periodic synchronization: adopt the global best.
        if iter % 8 == 7 {
            let adopted = {
                let best = shared.best.read().unwrap_or_else(PoisonError::into_inner);
                match best.as_ref() {
                    Some((bc, bs, _)) if *bc < current_cost => Some((*bc, bs.clone())),
                    _ => None,
                }
            };
            if let Some((bc, bs)) = adopted {
                current_cost = bc;
                current_basis = shared.cache.get(&bs).and_then(|e| e.basis);
                current = bs;
            }
        }

        let mut neighbour = current.clone();
        let roll: f64 = rng.gen();
        if roll < w_add && neighbour.len() < max_sites {
            // Add a random unsited candidate.
            let unsited: Vec<usize> = (0..candidates.len())
                .filter(|i| !neighbour.iter().any(|(c, _)| c == i))
                .collect();
            if let Some(&pick) = pick_random(&mut rng, &unsited) {
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
            if let (Some(&pick), true) = (pick_random(&mut rng, &unsited), !neighbour.is_empty()) {
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
        if neighbour.len() < n_min || neighbour == current {
            continue;
        }

        // A same-length neighbour keeps the LP shape, so the current basis
        // is a candidate warm start; add/remove moves change dimensions and
        // always solve cold.
        let warm = if neighbour.len() == current.len() {
            current_basis.as_deref()
        } else {
            None
        };
        let (cost, basis) = match evaluate(
            params, input, candidates, &neighbour, shared, &mut stats, warm,
        ) {
            Some(r) => r,
            None => continue,
        };
        let accept = cost < current_cost || {
            let delta = cost - current_cost;
            temp > 0.0 && rng.gen::<f64>() < (-delta / temp).exp()
        };
        if accept {
            current = neighbour;
            current_cost = cost;
            current_basis = basis;
        }
        temp *= COOLING;

        let best = shared.best_cost();
        if best < last_best {
            last_best = best;
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement > options.patience {
                break;
            }
        }
    }
    stats
}

fn pick_random<'a, R: Rng>(rng: &mut R, xs: &'a [usize]) -> Option<&'a usize> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

/// Evaluates a siting (memoized); updates the shared best on improvement
/// and counts the request into the chain's `stats`.
///
/// Returns the siting's cost together with its optimal basis (for the
/// chain to warm-start neighbour evaluations), or `None` for infeasible
/// sitings. `warm` is a basis from a same-shape siting to seed the solve.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    params: &CostParams,
    input: &PlacementInput,
    candidates: &[CandidateSite],
    siting: &Siting,
    shared: &Shared,
    stats: &mut SearchStats,
    warm: Option<&Basis>,
) -> Option<(f64, Option<Arc<Basis>>)> {
    if let Some(hit) = shared.cache.get(siting) {
        stats.cache_hits += 1;
        return hit.cost.map(|c| (c, hit.basis));
    }
    let lp = build_network_lp_cached(params, input, candidates, siting, &shared.blocks);
    stats.evaluations += 1;
    let outcome = match lp.solve_warm(SimplexOptions::default(), warm) {
        Ok((dispatch, basis)) => {
            if warm.is_some() {
                stats.warm_attempts += 1;
            }
            if dispatch.warm_started {
                stats.warm_hits += 1;
            }
            stats.absorb_solve(&dispatch.lp_stats);
            let cost = dispatch.monthly_cost;
            let basis = basis.map(Arc::new);
            let better = shared
                .best
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .is_none_or(|(bc, _, _)| cost < *bc);
            if better {
                // Re-check under the write lock; another chain may have won.
                let mut best = shared.best.write().unwrap_or_else(PoisonError::into_inner);
                if best.as_ref().is_none_or(|(bc, _, _)| cost < *bc) {
                    *best = Some((cost, siting.clone(), dispatch));
                }
            }
            Some((cost, basis))
        }
        Err(_) => None,
    };
    shared.cache.insert(
        siting.clone(),
        CachedEval {
            cost: outcome.as_ref().map(|(c, _)| *c),
            basis: outcome.as_ref().and_then(|(_, b)| b.clone()),
        },
    );
    outcome
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

    #[test]
    fn finds_a_feasible_brown_network() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
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
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
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
        // have been attempted, and every block past the first siting build
        // should come from the cache.
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
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
        let st = anneal(&CostParams::default(), &input, &cands, &quick_options())
            .expect("feasible")
            .stats;
        assert!(st.evaluations > st.warm_attempts, "stats: {st:?}");
        assert!(st.warm_hits <= st.warm_attempts, "stats: {st:?}");
    }

    #[test]
    fn warm_attempts_count_only_solved_sitings() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
        let params = CostParams::default();
        let shared = Shared::new();
        let mut stats = SearchStats::default();
        let large = vec![(0, SizeClass::Large), (1, SizeClass::Large)];
        let (_, basis) = evaluate(&params, &input, &cands, &large, &shared, &mut stats, None)
            .expect("two large sites reach 20 MW");
        let basis = basis.expect("an optimal solve exports its basis");
        // Two small sites hold at most 2 × 10 MW / PUE: a same-shape
        // neighbour that is infeasible, so no basis is ever installed.
        let small = vec![(0, SizeClass::Small), (1, SizeClass::Small)];
        let infeasible = evaluate(
            &params,
            &input,
            &cands,
            &small,
            &shared,
            &mut stats,
            Some(&basis),
        );
        assert!(infeasible.is_none());
        assert_eq!(stats.warm_attempts, 0);
        let moved = vec![(0, SizeClass::Large), (2, SizeClass::Large)];
        let solved = evaluate(
            &params,
            &input,
            &cands,
            &moved,
            &shared,
            &mut stats,
            Some(&basis),
        );
        assert!(solved.is_some());
        assert_eq!(stats.warm_attempts, 1);
    }

    #[test]
    fn patience_counts_from_the_last_global_improvement() {
        let w = WorldCatalog::anchors_only(5);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
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
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
        let mut opts = quick_options();
        opts.chains = 1;
        let a = anneal(&CostParams::default(), &input, &cands, &opts).unwrap();
        let b = anneal(&CostParams::default(), &input, &cands, &opts).unwrap();
        assert_eq!(a.siting, b.siting);
        assert!((a.dispatch.monthly_cost - b.dispatch.monthly_cost).abs() < 1e-6);
    }
}
