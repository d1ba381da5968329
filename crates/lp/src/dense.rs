//! Two-phase full-tableau simplex: the reference LP solver.
//!
//! This implementation favours auditability over speed: it converts the
//! model to standard form (shifted/split variables, explicit upper-bound
//! rows, artificials for `≥`/`=` rows) and pivots on a dense tableau. It is
//! used by tests as an independent oracle for
//! [`crate::revised::RevisedSimplex`], and is perfectly adequate for models
//! with up to a few hundred rows.

// Index loops here sweep multiple parallel arrays of the numerical kernel;
// iterator rewrites obscure the linear algebra.
#![allow(clippy::needless_range_loop)]
use crate::model::{Model, Sense, Solution, SolveError};

/// Dense two-phase tableau simplex solver.
#[derive(Debug, Clone, Default)]
pub struct DenseSimplex {
    /// Iteration cap; `0` auto-scales with problem size.
    pub max_iterations: usize,
}

const EPS: f64 = 1e-9;
const FEAS: f64 = 1e-7;

/// How an original variable maps onto standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lb + x'`, column `c`.
    Shifted { c: usize, lb: f64 },
    /// `x = ub − x'`, column `c` (upper bound only).
    Mirrored { c: usize, ub: f64 },
    /// `x = x⁺ − x⁻`, columns `p` and `n` (free variable).
    Split { p: usize, n: usize },
    /// `lb == ub`: no column at all.
    Fixed(f64),
}

impl DenseSimplex {
    /// Creates a solver with the default iteration cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the LP relaxation of `model`.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve(&self, model: &Model) -> Result<Solution, SolveError> {
        model.validate()?;

        // --- Standard-form conversion -----------------------------------
        let mut n_cols = 0usize;
        let mut maps = Vec::with_capacity(model.num_vars());
        // Extra rows for finite upper bounds of shifted variables.
        let mut ub_rows: Vec<(usize, f64)> = Vec::new(); // (column, bound width)
        for v in &model.vars {
            if v.lb == v.ub {
                maps.push(VarMap::Fixed(v.lb));
            } else if v.lb.is_finite() {
                let c = n_cols;
                n_cols += 1;
                if v.ub.is_finite() {
                    ub_rows.push((c, v.ub - v.lb));
                }
                maps.push(VarMap::Shifted { c, lb: v.lb });
            } else if v.ub.is_finite() {
                let c = n_cols;
                n_cols += 1;
                maps.push(VarMap::Mirrored { c, ub: v.ub });
            } else {
                let p = n_cols;
                let n = n_cols + 1;
                n_cols += 2;
                maps.push(VarMap::Split { p, n });
            }
        }

        // Rows: original constraints (with substituted variables) + ub rows.
        struct Row {
            coeffs: Vec<f64>,
            sense: Sense,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(model.num_cons() + ub_rows.len());
        for con in &model.cons {
            let mut coeffs = vec![0.0; n_cols];
            let mut rhs = con.rhs;
            for &(var, a) in &con.terms {
                match maps[var.index()] {
                    VarMap::Fixed(v) => rhs -= a * v,
                    VarMap::Shifted { c, lb } => {
                        coeffs[c] += a;
                        rhs -= a * lb;
                    }
                    VarMap::Mirrored { c, ub } => {
                        coeffs[c] -= a;
                        rhs -= a * ub;
                    }
                    VarMap::Split { p, n } => {
                        coeffs[p] += a;
                        coeffs[n] -= a;
                    }
                }
            }
            rows.push(Row {
                coeffs,
                sense: con.sense,
                rhs,
            });
        }
        for &(c, width) in &ub_rows {
            let mut coeffs = vec![0.0; n_cols];
            coeffs[c] = 1.0;
            rows.push(Row {
                coeffs,
                sense: Sense::Le,
                rhs: width,
            });
        }

        // Objective over standard-form columns (constant parts fold into the
        // final `objective_value` call, so they are not tracked here).
        let mut obj = vec![0.0; n_cols];
        for (v, map) in model.vars.iter().zip(&maps) {
            match *map {
                VarMap::Fixed(_) => {}
                VarMap::Shifted { c, .. } => obj[c] += v.obj,
                VarMap::Mirrored { c, .. } => obj[c] -= v.obj,
                VarMap::Split { p, n } => {
                    obj[p] += v.obj;
                    obj[n] -= v.obj;
                }
            }
        }

        // Normalize rhs ≥ 0, then add slacks/artificials.
        let m = rows.len();
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for r in &mut rows {
            if r.rhs < 0.0 {
                for c in &mut r.coeffs {
                    *c = -*c;
                }
                r.rhs = -r.rhs;
                r.sense = match r.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
            match r.sense {
                Sense::Le => n_slack += 1,
                Sense::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }

        let width = n_cols + n_slack + n_art + 1; // +1 rhs column
        let mut t = vec![vec![0.0; width]; m + 1]; // last row = objective
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = n_cols;
        let mut next_art = n_cols + n_slack;
        let art_start = n_cols + n_slack;
        for (i, r) in rows.iter().enumerate() {
            t[i][..n_cols].copy_from_slice(&r.coeffs);
            t[i][width - 1] = r.rhs;
            match r.sense {
                Sense::Le => {
                    t[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Sense::Ge => {
                    t[i][next_slack] = -1.0;
                    next_slack += 1;
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Sense::Eq => {
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        let max_iter = if self.max_iterations == 0 {
            (50 * (m + n_cols)).max(2_000)
        } else {
            self.max_iterations
        };
        let mut iterations = 0usize;

        // --- Phase 1 ------------------------------------------------------
        if n_art > 0 {
            // Objective row: minimize sum of artificials, expressed over the
            // current basis.
            for c in 0..width {
                t[m][c] = 0.0;
            }
            for c in art_start..art_start + n_art {
                t[m][c] = 1.0;
            }
            for i in 0..m {
                if basis[i] >= art_start {
                    let row = t[i].clone();
                    for c in 0..width {
                        t[m][c] -= row[c];
                    }
                }
            }
            pivot_until_optimal(&mut t, &mut basis, width, m, max_iter, &mut iterations)?;
            let p1 = -t[m][width - 1];
            if p1 > FEAS * 10.0 {
                return Err(SolveError::Infeasible);
            }
            // Drive basic artificials out, drop redundant rows implicitly by
            // leaving the artificial basic at zero but barring re-entry.
            for i in 0..m {
                if basis[i] >= art_start {
                    if let Some(c) = (0..art_start).find(|&c| t[i][c].abs() > 1e-7) {
                        pivot(&mut t, i, c, width, m);
                        basis[i] = c;
                    }
                }
            }
        }

        // --- Phase 2 ------------------------------------------------------
        // Bar artificial columns from re-entering.
        for row in t.iter_mut().take(m + 1) {
            for c in art_start..art_start + n_art {
                row[c] = 0.0;
            }
        }
        for c in 0..width {
            t[m][c] = 0.0;
        }
        t[m][..n_cols].copy_from_slice(&obj);
        for i in 0..m {
            let b = basis[i];
            if b < n_cols && obj[b] != 0.0 {
                let coeff = t[m][b];
                if coeff != 0.0 {
                    let row = t[i].clone();
                    for c in 0..width {
                        t[m][c] -= coeff * row[c];
                    }
                }
            }
        }
        pivot_until_optimal(&mut t, &mut basis, width, m, max_iter, &mut iterations)?;

        // --- Extraction ----------------------------------------------------
        let mut std_vals = vec![0.0; n_cols];
        for i in 0..m {
            if basis[i] < n_cols {
                std_vals[basis[i]] = t[i][width - 1];
            }
        }
        let mut values = vec![0.0; model.num_vars()];
        for (j, map) in maps.iter().enumerate() {
            values[j] = match *map {
                VarMap::Fixed(v) => v,
                VarMap::Shifted { c, lb } => lb + std_vals[c],
                VarMap::Mirrored { c, ub } => ub - std_vals[c],
                VarMap::Split { p, n } => std_vals[p] - std_vals[n],
            };
        }
        let objective = model.objective_value(&values);
        Ok(Solution {
            objective,
            values,
            basis: None,
            warm_started: false,
            stats: crate::revised::SolveStats {
                iterations,
                ..Default::default()
            },
        })
    }
}

fn pivot(t: &mut [Vec<f64>], pr: usize, pc: usize, width: usize, m: usize) {
    let pv = t[pr][pc];
    for c in 0..width {
        t[pr][c] /= pv;
    }
    for r in 0..=m {
        if r != pr {
            let f = t[r][pc];
            if f != 0.0 {
                let prow = t[pr].clone();
                for c in 0..width {
                    t[r][c] -= f * prow[c];
                }
            }
        }
    }
}

fn pivot_until_optimal(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    width: usize,
    m: usize,
    max_iter: usize,
    iterations: &mut usize,
) -> Result<(), SolveError> {
    let mut stall = 0usize;
    loop {
        if *iterations >= max_iter {
            return Err(SolveError::IterationLimit);
        }
        // Entering column: Dantzig, or Bland when stalled.
        let bland = stall > 200;
        let mut pc = usize::MAX;
        let mut best = -EPS;
        for c in 0..width - 1 {
            let rc = t[m][c];
            if rc < best {
                pc = c;
                best = rc;
                if bland {
                    break;
                }
            }
        }
        if pc == usize::MAX {
            return Ok(());
        }
        // Leaving row: minimum ratio.
        let mut pr = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = t[r][pc];
            if a > EPS {
                let ratio = t[r][width - 1] / a;
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12 && pr != usize::MAX && basis[r] < basis[pr])
                {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if pr == usize::MAX {
            return Err(SolveError::Unbounded);
        }
        if best_ratio < 1e-10 {
            stall += 1;
        } else {
            stall = 0;
        }
        pivot(t, pr, pc, width, m);
        basis[pr] = pc;
        *iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve(m: &Model) -> Solution {
        DenseSimplex::new().solve(m).expect("solve")
    }

    #[test]
    fn matches_textbook_example() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_con("c1", [(x, 1.0)], Sense::Le, 4.0);
        m.add_con("c2", [(y, 2.0)], Sense::Le, 12.0);
        m.add_con("c3", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve(&m);
        assert!((s.objective + 36.0).abs() < 1e-7);
    }

    #[test]
    fn handles_bounds_via_rows() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0, 3.0, -1.0);
        let s = solve(&m);
        assert!((s[x] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn handles_free_and_mirrored_vars() {
        let mut m = Model::new();
        let f = m.add_var("f", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let u = m.add_var("u", f64::NEG_INFINITY, 2.0, -1.0);
        m.add_con("lo", [(f, 1.0)], Sense::Ge, -4.0);
        let s = solve(&m);
        assert!((s[f] + 4.0).abs() < 1e-7);
        assert!((s[u] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_con("a", [(x, 1.0)], Sense::Ge, 3.0);
        assert_eq!(
            DenseSimplex::new().solve(&m).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn unbounded() {
        let mut m = Model::new();
        let _x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        assert_eq!(
            DenseSimplex::new().solve(&m).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn fixed_vars_fold_into_rhs() {
        let mut m = Model::new();
        let x = m.add_var("x", 2.0, 2.0, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_con("c", [(x, 3.0), (y, 1.0)], Sense::Ge, 10.0);
        let s = solve(&m);
        assert!((s[y] - 4.0).abs() < 1e-7);
        assert!((s.objective - 6.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_equalities() {
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_con("eq", [(x, 1.0), (y, -1.0)], Sense::Eq, -3.0);
        m.add_con("lo", [(x, 1.0)], Sense::Ge, 1.0);
        let s = solve(&m);
        assert!((s[y] - (s[x] + 3.0)).abs() < 1e-7);
        assert!((s[x] - 1.0).abs() < 1e-7);
    }
}
