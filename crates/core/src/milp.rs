//! The exact solving path for small candidate sets.
//!
//! The paper formulates siting as a MILP whose binaries are `at(d)` (is a
//! datacenter placed at location d?) and the construction size class. For
//! the candidate-set sizes where the exact path is tractable at all (the
//! paper reports days of runtime at 50–100 locations), enumerating the
//! binary assignments and solving the LP for each is equivalent to branch &
//! bound over them — with far better numerical behaviour than big-M
//! couplings, because each subproblem is exactly the heuristic's LP. That is
//! what this module does, with a simple bound-based pruning rule (a superset
//! of an infeasible-capacity siting stays infeasible; costs of supersets are
//! not monotone, so only availability pruning applies).
//!
//! General-purpose branch & bound over arbitrary integer variables lives in
//! [`greencloud_lp::BranchAndBound`] and is exercised by the GreenNebula
//! scheduler's integral mode.

use crate::availability::min_datacenters;
use crate::candidate::CandidateSite;
use crate::formulation::{assemble, NetworkDispatch};
use crate::framework::{PlacementInput, SizeClass};
use crate::siteblock::SiteBlock;
use greencloud_cost::params::CostParams;
use greencloud_lp::{Basis, SimplexOptions, SolveError};
use std::collections::HashMap;
use std::sync::Arc;

/// Options for the exhaustive exact search.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Hard cap on candidate-set size (the enumeration is exponential).
    pub max_candidates: usize,
    /// Largest siting cardinality to consider.
    pub max_sites: usize,
}

impl Default for ExactOptions {
    fn default() -> Self {
        Self {
            max_candidates: 10,
            max_sites: 4,
        }
    }
}

/// A candidate incumbent: `(cost, siting, dispatch)`.
type BestSiting = (f64, Vec<(usize, SizeClass)>, NetworkDispatch);

/// The proven-optimal siting over the candidate set (within `options`).
///
/// # Errors
///
/// [`SolveError::InvalidModel`] if the candidate set exceeds
/// `options.max_candidates`; [`SolveError::Infeasible`] when no siting
/// satisfies the constraints.
pub fn solve_exact(
    params: &CostParams,
    input: &PlacementInput,
    candidates: &[CandidateSite],
    options: &ExactOptions,
) -> Result<(Vec<(usize, SizeClass)>, NetworkDispatch), SolveError> {
    input
        .validate()
        .map_err(|e| SolveError::InvalidModel(e.to_string()))?;
    let n = candidates.len();
    if n > options.max_candidates {
        return Err(SolveError::InvalidModel(format!(
            "exact path caps at {} candidates, got {n}",
            options.max_candidates
        )));
    }
    let n_min = min_datacenters(input.min_availability, input.dc_availability);
    let n_max = options.max_sites.min(n);
    if n_min > n_max {
        return Err(SolveError::Infeasible);
    }

    let mut best: Option<BestSiting> = None;
    // Per-site blocks are identical across the enumeration, so compile each
    // (candidate, class) pair once and reuse it for every subset.
    let mut blocks: HashMap<(usize, SizeClass), Arc<SiteBlock>> = HashMap::new();
    // Enumerate subsets by bitmask, then size classes per member.
    for mask in 1u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
        if members.len() < n_min || members.len() > n_max {
            continue;
        }
        let k = members.len();
        // Class re-assignments keep the LP shape: warm-start each solve
        // from the previous class mask's basis for this member set.
        let mut last_basis: Option<Basis> = None;
        for classes in 0u32..(1 << k) {
            let siting: Vec<(usize, SizeClass)> = members
                .iter()
                .enumerate()
                .map(|(j, &ci)| {
                    let class = if classes >> j & 1 == 1 {
                        SizeClass::Large
                    } else {
                        SizeClass::Small
                    };
                    (ci, class)
                })
                .collect();
            // Quick prune: small-class sites cap at 10 MW of max power; if
            // even all-large cannot host the demand it stays infeasible —
            // but capacity is unbounded for Large, so only prune the
            // all-small case.
            let all_small = siting.iter().all(|(_, c)| *c == SizeClass::Small);
            if all_small {
                let cap: f64 = siting
                    .iter()
                    .map(|&(ci, _)| 10.0 / candidates[ci].max_pue())
                    .sum();
                if cap < input.total_capacity_mw {
                    continue;
                }
            }
            let sites: Vec<_> = siting
                .iter()
                .map(|&(ci, class)| {
                    let block = blocks.entry((ci, class)).or_insert_with(|| {
                        Arc::new(SiteBlock::build(params, input, ci, &candidates[ci], class))
                    });
                    (&candidates[ci], Arc::clone(block))
                })
                .collect();
            let lp = assemble(input, &sites);
            if let Ok((dispatch, basis)) =
                lp.solve_warm(SimplexOptions::default(), last_basis.as_ref())
            {
                last_basis = basis;
                let better = best
                    .as_ref()
                    .is_none_or(|(bc, _, _)| dispatch.monthly_cost < *bc);
                if better {
                    best = Some((dispatch.monthly_cost, siting, dispatch));
                }
            }
        }
    }
    match best {
        Some((_, siting, dispatch)) => Ok((siting, dispatch)),
        None => Err(SolveError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{anneal, AnnealOptions};
    use crate::framework::TechMix;
    use greencloud_climate::catalog::WorldCatalog;
    use greencloud_climate::profiles::ProfileConfig;

    #[test]
    fn exact_and_heuristic_agree_on_small_instance() {
        // The paper verified its heuristic "found equally good solutions" in
        // the cases where the MILP was solvable; reproduce that check.
        let w = WorldCatalog::anchors_only(5);
        let cands: Vec<CandidateSite> = CandidateSite::build_all(&w, &ProfileConfig::coarse())
            .into_iter()
            .take(4)
            .collect();
        let input = PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        };
        let params = CostParams::default();
        let (siting, exact) =
            solve_exact(&params, &input, &cands, &ExactOptions::default()).expect("exact");
        let sa = anneal(
            &params,
            &input,
            &cands,
            &AnnealOptions {
                iterations: 60,
                chains: 2,
                seed: 3,
                ..AnnealOptions::default()
            },
        )
        .expect("sa");
        assert!(siting.len() >= 2);
        // SA should match the exact optimum within a small tolerance.
        let gap = (sa.dispatch.monthly_cost - exact.monthly_cost) / exact.monthly_cost;
        assert!(
            gap.abs() < 0.02,
            "SA ${:.0} vs exact ${:.0} (gap {gap:.4})",
            sa.dispatch.monthly_cost,
            exact.monthly_cost
        );
        assert!(gap >= -1e-9, "heuristic cannot beat the exact optimum");
    }

    #[test]
    fn candidate_cap_is_enforced() {
        let w = WorldCatalog::synthetic(40, 2);
        let cands = CandidateSite::build_all(&w, &ProfileConfig::coarse());
        let err = solve_exact(
            &CostParams::default(),
            &PlacementInput::default(),
            &cands,
            &ExactOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::InvalidModel(_)));
    }
}
