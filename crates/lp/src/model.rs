//! Problem definition: variables, constraints, objective.

use crate::revised::{RevisedSimplex, SimplexOptions};
use std::fmt;
use std::ops::Index;

/// Handle to a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based position of the variable in its model.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a raw index. Intended for callers that
    /// assemble models from pre-compiled blocks and track offsets
    /// themselves; the index must refer to a variable that exists in the
    /// target model by the time the handle is used.
    pub fn from_index(index: usize) -> Self {
        VarId(index)
    }
}

/// Handle to a constraint in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConId(pub(crate) usize);

impl ConId {
    /// Zero-based position of the constraint in its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        })
    }
}

/// Continuity class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VarKind {
    /// Real-valued.
    #[default]
    Continuous,
    /// Integer-valued (enforced by [`crate::BranchAndBound`], relaxed by the
    /// pure-LP solvers).
    Integer,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub kind: VarKind,
}

#[derive(Debug, Clone)]
pub(crate) struct ConDef {
    pub name: String,
    pub terms: Vec<(VarId, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

/// Error returned by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit,
    /// Numerical difficulty the solver could not recover from.
    Numerical(String),
    /// The model is malformed (e.g. a variable with `lb > ub`).
    InvalidModel(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::IterationLimit => write!(f, "iteration limit exceeded"),
            SolveError::Numerical(msg) => write!(f, "numerical trouble: {msg}"),
            SolveError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution to a [`Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value (minimization).
    pub objective: f64,
    /// Value of every variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Final simplex basis, when the solver maintains one (the revised
    /// simplex does; the dense tableau and branch & bound report `None`).
    /// Feed it to [`Model::solve_with_basis`] to warm-start a re-solve.
    pub basis: Option<crate::revised::Basis>,
    /// `true` when the solve started from a supplied warm basis, or a
    /// kept solver's own, and finished from it. `false` for a solve
    /// offered no basis (it starts from the all-slack basis), for a basis
    /// that could not be installed, and for a warm attempt that stalled and
    /// restarted from the slack basis.
    pub warm_started: bool,
    /// Per-solve solver counters (iterations, refactorizations,
    /// FTRAN/BTRAN counts, pricing time). The revised simplex fills every
    /// field; branch & bound reports the totals accumulated across every
    /// node relaxation it solved; the dense tableau reports iterations
    /// only.
    pub stats: crate::revised::SolveStats,
}

impl Solution {
    /// Value of `var` in this solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }
}

impl Index<VarId> for Solution {
    type Output = f64;
    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.index()]
    }
}

/// A linear (or mixed-integer) program in minimization form.
///
/// Variables carry bounds and objective coefficients; constraints are linear
/// expressions compared against a right-hand side. The model is solved with
/// [`Model::solve`] (LP, integrality relaxed) or
/// [`crate::BranchAndBound`] (MILP).
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<ConDef>,
    pub(crate) obj_offset: f64,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with bounds `[lb, ub]` and objective
    /// coefficient `obj`; returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var_kind(name, lb, ub, obj, VarKind::Continuous)
    }

    /// Adds an integer variable (see [`VarKind::Integer`]).
    pub fn add_int_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var_kind(name, lb, ub, obj, VarKind::Integer)
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_bin_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var_kind(name, 0.0, 1.0, obj, VarKind::Integer)
    }

    fn add_var_kind(
        &mut self,
        name: impl Into<String>,
        lb: f64,
        ub: f64,
        obj: f64,
        kind: VarKind,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            lb,
            ub,
            obj,
            kind,
        });
        id
    }

    /// Adds the constraint `Σ coeff·var  sense  rhs` from an iterator of
    /// terms; returns its handle. A variable may appear more than once: its
    /// coefficients are summed, and zero coefficients are dropped.
    pub fn add_con<I>(&mut self, name: impl Into<String>, terms: I, sense: Sense, rhs: f64) -> ConId
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        let id = ConId(self.cons.len());
        self.cons.push(ConDef {
            name: name.into(),
            terms: compress_terms(terms),
            sense,
            rhs,
        });
        id
    }

    /// Adds a constant offset to the objective (reported in
    /// [`Solution::objective`]).
    pub fn add_obj_offset(&mut self, offset: f64) {
        self.obj_offset += offset;
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_obj(&mut self, var: VarId, obj: f64) {
        self.vars[var.index()].obj = obj;
    }

    /// Tightens/replaces the bounds of `var`.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        let v = &mut self.vars[var.index()];
        v.lb = lb;
        v.ub = ub;
    }

    /// Overwrites the right-hand side of `con`. Together with
    /// [`Model::set_con_term`] this lets rolling-horizon callers shift a
    /// model in place between solves instead of rebuilding it.
    pub fn set_rhs(&mut self, con: ConId, rhs: f64) {
        self.cons[con.index()].rhs = rhs;
    }

    /// The right-hand side of `con`.
    pub fn rhs(&self, con: ConId) -> f64 {
        self.cons[con.index()].rhs
    }

    /// Sets the coefficient of `var` in `con`, updating the existing term or
    /// appending a new one when `var` does not yet appear.
    pub fn set_con_term(&mut self, con: ConId, var: VarId, coeff: f64) {
        let terms = &mut self.cons[con.index()].terms;
        if let Some(t) = terms.iter_mut().find(|(v, _)| *v == var) {
            t.1 = coeff;
        } else {
            terms.push((var, coeff));
        }
    }

    /// The bounds `[lb, ub]` of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.index()];
        (v.lb, v.ub)
    }

    /// The name of `var`.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// The name of `con`.
    pub fn con_name(&self, con: ConId) -> &str {
        &self.cons[con.index()].name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Handles of all integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Returns `true` if any variable is integer.
    pub fn is_mip(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Validates structural sanity (finite coefficients, `lb ≤ ub`).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidModel`] describing the first defect found.
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{i}) has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
            if !v.obj.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{i}) has non-finite objective coefficient",
                    v.name
                )));
            }
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {} (#{i}) has NaN bound",
                    v.name
                )));
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "constraint {} (#{i}) has non-finite rhs",
                    c.name
                )));
            }
            for &(v, coeff) in &c.terms {
                if v.index() >= self.vars.len() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint {} (#{i}) references unknown variable",
                        c.name
                    )));
                }
                if !coeff.is_finite() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint {} (#{i}) has non-finite coefficient",
                        c.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves the LP relaxation with the production revised simplex and
    /// default options.
    ///
    /// Integer variables are treated as continuous; use
    /// [`crate::BranchAndBound`] to enforce integrality.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] / [`SolveError::Unbounded`] for the
    /// corresponding problem statuses, [`SolveError::InvalidModel`] for
    /// malformed input, and [`SolveError::Numerical`] /
    /// [`SolveError::IterationLimit`] when the solver gives up.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        RevisedSimplex::new(SimplexOptions::default()).solve(self)
    }

    /// Solves with explicit simplex options, warm-starting from a basis
    /// previously exported in [`Solution::basis`] (from this model or a
    /// same-shape neighbour). An unusable basis silently gives way to the
    /// all-slack basis; see [`crate::revised::Basis`].
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_with_basis(
        &self,
        options: SimplexOptions,
        warm: Option<&crate::revised::Basis>,
    ) -> Result<Solution, SolveError> {
        RevisedSimplex::new(options).solve_warm(self, warm)
    }

    /// Objective value of an assignment (including the constant offset).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.obj_offset
            + self
                .vars
                .iter()
                .enumerate()
                .map(|(i, v)| v.obj * values[i])
                .sum::<f64>()
    }
}

/// A constraint row's stored terms: zero coefficients dropped, each
/// variable's coefficients summed in insertion order, sums that cancel to
/// zero dropped, and the rest sorted by variable.
fn compress_terms(terms: impl IntoIterator<Item = (VarId, f64)>) -> Vec<(VarId, f64)> {
    let mut terms: Vec<(VarId, f64)> = terms.into_iter().filter(|&(_, c)| c != 0.0).collect();
    if terms.len() > 1 {
        // Stable, so a variable's duplicates stay in insertion order.
        terms.sort_by_key(|&(v, _)| v);
        terms.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        terms.retain(|&(_, c)| c != 0.0);
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        let y = m.add_int_var("y", 0.0, 3.0, -2.0);
        let c = m.add_con("c", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 1);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.con_name(c), "c");
        assert_eq!(m.bounds(y), (0.0, 3.0));
        assert!(m.is_mip());
        assert_eq!(m.integer_vars(), vec![y]);
    }

    #[test]
    fn compress_merges_duplicates() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        let y = m.add_var("y", 0.0, 1.0, 0.0);
        m.add_con(
            "c",
            [(x, 1.0), (x, 2.0), (y, -1.0), (y, 1.0)],
            Sense::Le,
            5.0,
        );
        assert_eq!(m.cons[0].terms, [(x, 3.0)]);
        assert_eq!(m.cons[0].rhs, 5.0);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        let y = m.add_var("y", 0.0, 1.0, 0.0);
        m.add_con("c", [(x, 0.0)], Sense::Le, 5.0);
        assert!(m.cons[0].terms.is_empty());
        m.add_con("d", [(y, 2.0), (x, 0.0), (x, 1.0)], Sense::Le, 5.0);
        assert_eq!(m.cons[1].terms, [(x, 1.0), (y, 2.0)]);
        assert_eq!(m.cons[1].rhs, 5.0);
    }

    #[test]
    fn in_place_mutation_shifts_the_solved_problem() {
        // min x subject to x ≥ rhs: the mutated model re-solves correctly,
        // both cold and warm-started from the previous basis.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 100.0, 1.0);
        let c = m.add_con("c", [(x, 1.0)], Sense::Ge, 3.0);
        let first = m.solve().expect("solve");
        assert!((first.value(x) - 3.0).abs() < 1e-9);
        m.set_rhs(c, 7.0);
        assert_eq!(m.rhs(c), 7.0);
        let warm = m
            .solve_with_basis(SimplexOptions::default(), first.basis.as_ref())
            .expect("warm");
        assert!((warm.value(x) - 7.0).abs() < 1e-9);
        // Doubling the coefficient halves the optimum.
        m.set_con_term(c, x, 2.0);
        let again = m.solve().expect("resolve");
        assert!((again.value(x) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn set_con_term_appends_missing_vars() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        let c = m.add_con("c", [(x, 1.0)], Sense::Ge, 4.0);
        m.set_con_term(c, y, 1.0);
        let sol = m.solve().expect("solve");
        assert!((sol.value(x) + sol.value(y) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new();
        m.add_var("x", 1.0, 0.0, 0.0);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_con("c", [(x, f64::NAN)], Sense::Le, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn objective_value_includes_offset() {
        let mut m = Model::new();
        let _x = m.add_var("x", 0.0, 1.0, 2.0);
        m.add_obj_offset(10.0);
        assert_eq!(m.objective_value(&[3.0]), 16.0);
    }

    #[test]
    fn solve_error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
        assert!(SolveError::Numerical("x".into()).to_string().contains("x"));
    }
}
