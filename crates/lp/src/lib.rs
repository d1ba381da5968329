//! Linear and mixed-integer programming for the `greencloud` workspace.
//!
//! The green-datacenter siting problem of Berral et al. (ICDCS 2014) is a
//! mixed-integer linear program; its heuristic solver evaluates thousands of
//! pure-LP subproblems. No external solver is available in this workspace, so
//! this crate implements the whole stack from scratch:
//!
//! * [`Model`] — a builder for LPs/MILPs with named, bounded variables and
//!   linear constraints given as `(variable, coefficient)` terms.
//! * [`dense::DenseSimplex`] — a two-phase full-tableau simplex. Simple and
//!   easy to audit; used as the reference implementation in tests and for
//!   small models.
//! * [`revised::RevisedSimplex`] — a bounded-variable revised simplex with a
//!   sparse LU factorization of the basis ([`lu::SparseLu`]), product-form
//!   eta updates, and periodic refactorization. Every solve starts from a
//!   warm basis or the all-slack basis, restores primal feasibility by
//!   dual-simplex pivots (dual steepest edge on slack starts) and finishes
//!   with primal phase 2, one path that proves infeasibility and
//!   unboundedness itself; a warm start that stalls restarts from the
//!   slack basis. A kept solver re-solves an edited model from its last
//!   basis, factors and eta file. This is the production path and
//!   comfortably solves the multi-thousand-variable siting LPs.
//! * [`branch::BranchAndBound`] — mixed-integer solving by branch & bound on
//!   the LP relaxation.
//! * [`validate`] — independent feasibility checking of solutions, used by
//!   tests and debug assertions.
//!
//! # Example
//!
//! ```
//! use greencloud_lp::{Model, Sense};
//!
//! # fn main() -> Result<(), greencloud_lp::SolveError> {
//! // minimize  -3x - 5y   subject to  x <= 4, 2y <= 12, 3x + 2y <= 18
//! let mut m = Model::new();
//! let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
//! m.add_con("cap_x", [(x, 1.0)], Sense::Le, 4.0);
//! m.add_con("cap_y", [(y, 2.0)], Sense::Le, 12.0);
//! m.add_con("mix", [(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
//! let sol = m.solve()?;
//! assert!((sol.objective - (-36.0)).abs() < 1e-6);
//! assert!((sol[x] - 2.0).abs() < 1e-6);
//! assert!((sol[y] - 6.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod dense;
pub mod lu;
pub mod model;
mod propagate;
pub mod revised;
pub mod validate;
pub mod wallclock;

pub use branch::BranchAndBound;
pub use lu::FactorizeError;
pub use model::{ConId, Model, Sense, Solution, SolveError, VarId, VarKind};
pub use revised::{Basis, BasisStatus, PricingMode, RevisedSimplex, SimplexOptions, SolveStats};
