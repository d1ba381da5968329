//! Branch & bound for mixed-integer linear programs.
//!
//! The siting problem uses binaries for "is a datacenter placed at location
//! d" and "is it in the large construction-cost class"; the GreenNebula
//! scheduler optionally rounds VM counts. Those MILPs are small (tens of
//! integer variables), so a classic LP-relaxation branch & bound with
//! most-fractional branching and best-first exploration is entirely
//! adequate — and is exactly what the paper's formulation needs.

use crate::model::{Model, Solution, SolveError, VarId};
use crate::revised::RevisedSimplex;

/// Tolerance under which a fractional value counts as integral.
const INT_TOL: f64 = 1e-6;

/// Give up (returning the incumbent if any) after this many nodes.
const MAX_NODES: usize = 50_000;

/// Relative optimality gap at which search stops.
const REL_GAP: f64 = 1e-9;

/// Mixed-integer solver; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

#[derive(Debug)]
struct Node {
    /// Bound overrides accumulated along the branch: `(var, lb, ub)`.
    bounds: Vec<(VarId, f64, f64)>,
    /// LP bound of the parent (for best-first ordering).
    parent_bound: f64,
}

impl BranchAndBound {
    /// Solves `model` enforcing integrality of its [`VarId`]s declared
    /// integer.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no integral point exists,
    /// [`SolveError::Unbounded`] when the relaxation is unbounded,
    /// [`SolveError::IterationLimit`] when the node budget (50,000) is
    /// exhausted without an incumbent, plus any LP-level error.
    pub fn solve(&self, model: &Model) -> Result<Solution, SolveError> {
        let int_vars = model.integer_vars();
        if int_vars.is_empty() {
            return model.solve();
        }
        let lp = RevisedSimplex::default();

        let mut incumbent: Option<Solution> = None;
        // Solver work accumulated across every explored node, so the
        // returned solution reports the whole tree's effort rather than
        // the incumbent node's single LP solve.
        let mut total_stats = crate::revised::SolveStats::default();
        let mut nodes_explored = 0usize;
        // Best-first: nodes sorted by parent LP bound (min-heap behaviour via
        // sorted insertion into a Vec used as a stack from the back).
        let mut open: Vec<Node> = vec![Node {
            bounds: Vec::new(),
            parent_bound: f64::NEG_INFINITY,
        }];

        while let Some(node) = open.pop() {
            nodes_explored += 1;
            if nodes_explored > MAX_NODES {
                return match incumbent {
                    Some(mut sol) => {
                        sol.stats = total_stats;
                        Ok(sol)
                    }
                    None => Err(SolveError::IterationLimit),
                };
            }
            // Prune against the incumbent before solving.
            if let Some(inc) = &incumbent {
                if node.parent_bound >= inc.objective - REL_GAP * inc.objective.abs() {
                    continue;
                }
            }

            let mut sub = model.clone();
            let mut conflict = false;
            for &(v, lb, ub) in &node.bounds {
                let (cur_lb, cur_ub) = sub.bounds(v);
                let new_lb = cur_lb.max(lb);
                let new_ub = cur_ub.min(ub);
                if new_lb > new_ub {
                    conflict = true;
                    break;
                }
                sub.set_bounds(v, new_lb, new_ub);
            }
            if conflict {
                continue;
            }

            let relax = match lp.solve(&sub) {
                Ok(s) => s,
                Err(SolveError::Infeasible) => continue,
                Err(SolveError::Unbounded) if node.bounds.is_empty() => {
                    return Err(SolveError::Unbounded)
                }
                Err(SolveError::Unbounded) => continue,
                Err(e) => return Err(e),
            };
            total_stats.absorb(&relax.stats);
            if let Some(inc) = &incumbent {
                if relax.objective >= inc.objective - REL_GAP * inc.objective.abs() {
                    continue;
                }
            }

            // Most-fractional branching variable.
            let mut branch: Option<(VarId, f64, f64)> = None; // (var, value, frac-distance)
            for &v in &int_vars {
                let x = relax.values[v.index()];
                let frac = (x - x.round()).abs();
                if frac > INT_TOL {
                    let dist = (x - x.floor() - 0.5).abs(); // 0 = most fractional
                    if branch.is_none_or(|(_, _, d)| dist < d) {
                        branch = Some((v, x, dist));
                    }
                }
            }

            match branch {
                None => {
                    // Integral: new incumbent.
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|inc| relax.objective < inc.objective);
                    if better {
                        incumbent = Some(relax);
                    }
                }
                Some((v, x, _)) => {
                    let bound = relax.objective;
                    let mut lo = node.bounds.clone();
                    lo.push((v, f64::NEG_INFINITY, x.floor()));
                    let mut hi = node.bounds;
                    hi.push((v, x.ceil(), f64::INFINITY));
                    // Push the child whose rounded side is nearer first so it
                    // is explored second (Vec-pop order), keeping a mild
                    // best-first flavour.
                    open.push(Node {
                        bounds: lo,
                        parent_bound: bound,
                    });
                    open.push(Node {
                        bounds: hi,
                        parent_bound: bound,
                    });
                    // Keep the most promising node at the back.
                    let k = open.len();
                    if k >= 2 && open[k - 2].parent_bound < open[k - 1].parent_bound {
                        open.swap(k - 2, k - 1);
                    }
                }
            }
        }

        match incumbent {
            Some(mut sol) => {
                sol.stats = total_stats;
                Ok(sol)
            }
            None => Err(SolveError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn milp(m: &Model) -> Solution {
        BranchAndBound.solve(m).expect("milp solve")
    }

    #[test]
    fn knapsack() {
        // max 8a + 11b + 6c + 4d  (weights 5,7,4,3; capacity 14)
        let mut m = Model::new();
        let items = [(8.0, 5.0), (11.0, 7.0), (6.0, 4.0), (4.0, 3.0)];
        let vars: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, &(value, _))| m.add_bin_var(format!("x{i}"), -value))
            .collect();
        m.add_con(
            "cap",
            vars.iter().zip(items.iter()).map(|(&v, &(_, w))| (v, w)),
            Sense::Le,
            14.0,
        );
        let s = milp(&m);
        assert!(
            (s.objective + 21.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        // Optimal picks b + c + d (weight 14, value 21).
        assert!(s[vars[1]] > 0.5 && s[vars[2]] > 0.5 && s[vars[3]] > 0.5);
        assert!(s[vars[0]] < 0.5);
    }

    #[test]
    fn pure_lp_falls_through() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 4.0, -1.0);
        let s = milp(&m);
        assert!((s[x] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn integer_rounding_matters() {
        // LP optimum is fractional; MILP must drop to the integral one.
        // max x + y s.t. 2x + y <= 3.5, x,y integer >= 0.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, -1.0);
        let y = m.add_int_var("y", 0.0, 10.0, -1.0);
        m.add_con("c", [(x, 2.0), (y, 1.0)], Sense::Le, 3.5);
        let s = milp(&m);
        assert!((s.objective + 3.0).abs() < 1e-6);
        assert!((s[x] - s[x].round()).abs() < 1e-6);
        assert!((s[y] - s[y].round()).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 1 has no integer solution.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, 0.0);
        m.add_con("eq", [(x, 2.0)], Sense::Eq, 1.0);
        assert_eq!(
            BranchAndBound.solve(&m).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -y - 0.5 x, y integer, x continuous; x <= 2.5, y <= x.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 2.5, -0.5);
        let y = m.add_int_var("y", 0.0, 10.0, -1.0);
        m.add_con("link", [(y, 1.0), (x, -1.0)], Sense::Le, 0.0);
        let s = milp(&m);
        assert!((s[y] - 2.0).abs() < 1e-6);
        assert!((s[x] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn binary_facility_location_toy() {
        // Two facilities with opening costs, three demands; the classic
        // structure of the paper's at(d) binaries in miniature.
        let mut m = Model::new();
        let open0 = m.add_bin_var("open0", 10.0);
        let open1 = m.add_bin_var("open1", 6.0);
        let mut total = Vec::new();
        for j in 0..3 {
            let a0 = m.add_var(format!("a0_{j}"), 0.0, f64::INFINITY, 1.0);
            let a1 = m.add_var(format!("a1_{j}"), 0.0, f64::INFINITY, 2.0);
            m.add_con(format!("demand{j}"), [(a0, 1.0), (a1, 1.0)], Sense::Ge, 1.0);
            // Capacity only if open (big-M link).
            m.add_con(
                format!("cap0_{j}"),
                [(a0, 1.0), (open0, -10.0)],
                Sense::Le,
                0.0,
            );
            m.add_con(
                format!("cap1_{j}"),
                [(a1, 1.0), (open1, -10.0)],
                Sense::Le,
                0.0,
            );
            total.push((a0, a1));
        }
        let s = milp(&m);
        // Opening only facility 1 costs 6 + 3*2 = 12; only facility 0 costs
        // 10 + 3*1 = 13; both costs 16+. Optimum = 12.
        assert!(
            (s.objective - 12.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!(s[open1] > 0.5 && s[open0] < 0.5);
    }
}
