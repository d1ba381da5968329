//! Warm-start behaviour: basis round-tripping, repair of stale or singular
//! snapshots, and cross-model basis transfer. The invariant throughout:
//! supplying *any* basis never changes the reported optimum, only the work
//! needed to reach it.

use greencloud_lp::dense::DenseSimplex;
use greencloud_lp::revised::{Basis, BasisStatus, RevisedSimplex, SimplexOptions};
use greencloud_lp::{Model, Sense, SolveError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn solver() -> RevisedSimplex {
    RevisedSimplex::new(SimplexOptions::default())
}

/// A small production-style LP with a unique optimum.
fn sample_model() -> Model {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    let y = m.add_var("y", 0.0, 10.0, 2.0);
    let z = m.add_var("z", 0.0, 10.0, 0.5);
    m.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 12.0);
    m.add_con("mix", [(x, 1.0), (y, -1.0)], Sense::Le, 4.0);
    m.add_con("zcap", [(z, 1.0)], Sense::Le, 5.0);
    m
}

#[test]
fn round_trip_converges_in_at_most_one_iteration() {
    let m = sample_model();
    let cold = solver().solve(&m).expect("cold solve");
    let basis = cold.basis.as_ref().expect("basis exported");
    let warm = solver().solve_warm(&m, Some(basis)).expect("warm solve");
    assert!(
        warm.warm_started,
        "identical re-solve must accept the basis"
    );
    assert!(
        warm.stats.iterations <= 1,
        "took {} iterations",
        warm.stats.iterations
    );
    assert!((warm.objective - cold.objective).abs() < 1e-9);
    for (a, b) in warm.values.iter().zip(cold.values.iter()) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn a_solve_offered_no_basis_is_not_a_warm_start() {
    // The slack start runs the warm path's restoration and phase 2 (row
    // `need` is violated at the slack basis), yet no basis was offered.
    let m = sample_model();
    for sol in [
        solver().solve(&m).expect("solve"),
        solver().solve_warm(&m, None).expect("solve"),
    ] {
        assert!(!sol.warm_started, "a slack start is not a warm start");
        assert_eq!(sol.stats.fallbacks, 0, "stats: {:?}", sol.stats);
        assert!(sol.stats.iterations > 0);
        assert!((sol.objective - 11.0).abs() < 1e-9, "{}", sol.objective);
    }
}

#[test]
fn singular_basis_is_repaired_to_cold_optimum() {
    // x and y have linearly dependent columns; forcing both basic with all
    // slacks nonbasic builds a singular basis. The installer repairs it by
    // swapping the dependent column for an uncovered row's slack, and the
    // repaired warm solve still reaches the cold optimum.
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
    m.add_con("r1", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
    m.add_con("r2", [(x, 2.0), (y, 2.0)], Sense::Ge, 4.0);
    let cold = solver().solve(&m).expect("cold solve");

    let singular = Basis::from_statuses(vec![
        BasisStatus::Basic,   // x
        BasisStatus::Basic,   // y  (dependent with x)
        BasisStatus::AtLower, // slack r1
        BasisStatus::AtLower, // slack r2
    ]);
    let warm = solver()
        .solve_warm(&m, Some(&singular))
        .expect("repairs or falls back");
    assert!((warm.objective - cold.objective).abs() < 1e-9);

    // A snapshot that is beyond repair (more basics than rows) is ignored:
    // the solve starts from the slack basis.
    let overfull = Basis::from_statuses(vec![BasisStatus::Basic; 4]);
    let cold2 = solver()
        .solve_warm(&m, Some(&overfull))
        .expect("falls back");
    assert!(!cold2.warm_started, "malformed snapshot must be rejected");
    assert!((cold2.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn wrong_shape_basis_falls_back() {
    let m = sample_model();
    let alien = Basis::from_statuses(vec![BasisStatus::Basic; 2]);
    let cold = solver().solve(&m).expect("cold");
    let warm = solver().solve_warm(&m, Some(&alien)).expect("fallback");
    assert!(!warm.warm_started);
    assert!((warm.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn a_rejected_basis_solves_bit_for_bit_like_no_basis() {
    // The installer rejects a basis of the wrong shape, or with more basic
    // columns than rows, before it touches the slack basis. The solve then
    // starts from the slack basis exactly as one offered no basis does:
    // the same values, objective, exported basis and work counters, bit
    // for bit.
    let mut rng = ChaCha8Rng::seed_from_u64(0x51AC_0B17);
    let mut models = vec![sample_model()];
    for (n, k) in [(6, 4), (12, 9), (40, 30)] {
        models.push(BoxedLp::random(&mut rng, n, k).build(&mut rng));
    }
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (case, m) in models.iter().enumerate() {
        let none = solver().solve_warm(m, None).expect("slack start");
        assert!(none.stats.iterations > 0, "case {case}: {:?}", none.stats);
        let columns = m.num_vars() + m.num_cons();
        let rejected = [
            Basis::from_statuses(vec![BasisStatus::Basic; columns - 1]),
            Basis::from_statuses(vec![BasisStatus::Basic; columns]),
        ];
        for basis in &rejected {
            let sol = solver().solve_warm(m, Some(basis)).expect("slack start");
            assert!(!sol.warm_started, "case {case}");
            assert_eq!(
                sol.objective.to_bits(),
                none.objective.to_bits(),
                "case {case}"
            );
            assert_eq!(bits(&sol.values), bits(&none.values), "case {case}");
            assert_eq!(sol.basis, none.basis, "case {case}");
            assert_eq!(sol.stats, none.stats, "case {case}");
        }
    }
}

#[test]
fn stale_bound_statuses_are_repaired() {
    // Solve a model where y sits at its upper bound, then relax that bound
    // to infinity: the exported `AtUpper` status no longer refers to a
    // finite bound and must be remapped, not trusted.
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    let y = m.add_var("y", 0.0, 3.0, -1.0);
    m.add_con("link", [(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
    let first = solver().solve(&m).expect("solve");
    assert!((first.values[y.index()] - 3.0).abs() < 1e-9, "y at ub");
    let basis = first.basis.clone().expect("basis");

    let mut relaxed = m.clone();
    relaxed.set_bounds(y, 0.0, f64::INFINITY);
    relaxed.set_obj(y, 1.0); // keep it bounded
    let cold = solver().solve(&relaxed).expect("cold");
    let warm = solver()
        .solve_warm(&relaxed, Some(&basis))
        .expect("warm or fallback");
    assert!((warm.objective - cold.objective).abs() < 1e-9);
}

#[test]
fn basis_transfers_to_perturbed_neighbour() {
    // Same shape, slightly different RHS/objective: the old optimal basis
    // stays primal feasible here, so the warm path engages and agrees with
    // the cold solve.
    let m = sample_model();
    let cold_a = solver().solve(&m).expect("solve A");
    let basis = cold_a.basis.as_ref().expect("basis");

    let mut n = Model::new();
    let x = n.add_var("x", 0.0, 10.0, 1.1);
    let y = n.add_var("y", 0.0, 10.0, 1.9);
    let z = n.add_var("z", 0.0, 10.0, 0.6);
    n.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 11.5);
    n.add_con("mix", [(x, 1.0), (y, -1.0)], Sense::Le, 4.0);
    n.add_con("zcap", [(z, 1.0)], Sense::Le, 5.0);

    let cold_b = solver().solve(&n).expect("cold B");
    let warm_b = solver().solve_warm(&n, Some(basis)).expect("warm B");
    assert!(
        (warm_b.objective - cold_b.objective).abs() < 1e-9,
        "warm {} vs cold {}",
        warm_b.objective,
        cold_b.objective
    );
    if warm_b.warm_started {
        assert!(
            warm_b.stats.iterations <= cold_b.stats.iterations,
            "warm start must not take more pivots (warm {}, cold {})",
            warm_b.stats.iterations,
            cold_b.stats.iterations
        );
    }
}

#[test]
fn primal_infeasible_warm_basis_is_restored_by_dual_pivots() {
    // Rolling-horizon pattern: same model shape, drastically moved RHS.
    // The exported basis is far from primal feasible for the new data; the
    // dual-simplex restoration must still deliver the cold optimum (and,
    // being warm, in no more iterations than the slack start).
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 100.0, 2.0);
    let y = m.add_var("y", 0.0, 100.0, 3.0);
    let z = m.add_var("z", 0.0, 10.0, 1.0);
    let need = m.add_con("need", [(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 8.0);
    let cap = m.add_con("cap", [(x, 1.0), (y, -1.0)], Sense::Le, 3.0);
    let first = solver().solve(&m).expect("first");
    let basis = first.basis.clone().expect("basis");

    for rhs in [40.0, 95.0, 1.0, 60.0] {
        m.set_rhs(need, rhs);
        m.set_rhs(cap, rhs / 4.0);
        let cold = solver().solve(&m).expect("cold");
        let warm = solver().solve_warm(&m, Some(&basis)).expect("warm");
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "rhs {rhs}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        if warm.warm_started {
            assert!(
                warm.stats.iterations <= cold.stats.iterations,
                "rhs {rhs}: warm {} > cold {} iterations",
                warm.stats.iterations,
                cold.stats.iterations
            );
        }
    }
}

#[test]
fn infeasible_and_unbounded_unaffected_by_warm_basis() {
    let mut inf = Model::new();
    let x = inf.add_var("x", 0.0, 1.0, 1.0);
    inf.add_con("hi", [(x, 1.0)], Sense::Ge, 2.0);
    let junk = Basis::from_statuses(vec![BasisStatus::Basic, BasisStatus::AtLower]);
    assert_eq!(
        solver().solve_warm(&inf, Some(&junk)).unwrap_err(),
        SolveError::Infeasible
    );

    let mut unb = Model::new();
    let y = unb.add_var("y", 0.0, f64::INFINITY, -1.0);
    unb.add_con("lo", [(y, 1.0)], Sense::Ge, 0.0);
    let junk = Basis::from_statuses(vec![BasisStatus::AtLower, BasisStatus::Basic]);
    assert_eq!(
        solver().solve_warm(&unb, Some(&junk)).unwrap_err(),
        SolveError::Unbounded
    );
}

/// A random boxed LP, feasible by construction: `(lo, hi, cost)` per
/// variable and `(coefficients, sense, slack)` per row, whose right-hand
/// side [`BoxedLp::build`] places `slack` away from the row's activity at
/// a point inside the boxes.
struct BoxedLp {
    vars: Vec<(f64, f64, f64)>,
    rows: Vec<(Vec<f64>, Sense, f64)>,
}

impl BoxedLp {
    /// `n` variables with boxes 0.2–4 wide and `k` rows of mixed sense
    /// over a sparse coefficient pattern.
    fn random(rng: &mut ChaCha8Rng, n: usize, k: usize) -> Self {
        let vars = (0..n)
            .map(|_| {
                let lo = rng.gen_range(-2.0..2.0);
                (lo, lo + rng.gen_range(0.2..4.0), rng.gen_range(-3.0..3.0))
            })
            .collect();
        let rows = (0..k)
            .map(|_| {
                let coeffs = (0..n)
                    .map(|_| match rng.gen_range(0..3u32) {
                        0 => 0.0,
                        _ => rng.gen_range(-4.0..4.0),
                    })
                    .collect();
                let sense = match rng.gen_range(0..4u32) {
                    0 => Sense::Eq,
                    1 => Sense::Ge,
                    _ => Sense::Le,
                };
                (coeffs, sense, rng.gen_range(0.0..2.0))
            })
            .collect();
        BoxedLp { vars, rows }
    }

    /// A neighbour of the same shape: costs shifted, a quarter of the
    /// coefficients scaled by 0.5–1.5, and new row slacks.
    fn neighbour(&self, rng: &mut ChaCha8Rng) -> Self {
        let vars = self
            .vars
            .iter()
            .map(|&(lo, hi, c)| (lo, hi, c + rng.gen_range(-0.5..0.5)))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|(coeffs, sense, _)| {
                let coeffs = coeffs
                    .iter()
                    .map(|&a| match rng.gen_range(0..4u32) {
                        0 => a * rng.gen_range(0.5..1.5),
                        _ => a,
                    })
                    .collect();
                (coeffs, *sense, rng.gen_range(0.0..2.0))
            })
            .collect();
        BoxedLp { vars, rows }
    }

    /// The model whose rows hold at a random point of the boxes.
    fn build(&self, rng: &mut ChaCha8Rng) -> Model {
        let mut m = Model::new();
        let mut point = Vec::with_capacity(self.vars.len());
        let mut ids = Vec::with_capacity(self.vars.len());
        for (i, &(lo, hi, c)) in self.vars.iter().enumerate() {
            ids.push(m.add_var(format!("x{i}"), lo, hi, c));
            point.push(rng.gen_range(lo..hi));
        }
        for (r, (coeffs, sense, slack)) in self.rows.iter().enumerate() {
            let activity: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
            let rhs = match sense {
                Sense::Le => activity + slack,
                Sense::Ge => activity - slack,
                Sense::Eq => activity,
            };
            let terms = ids
                .iter()
                .zip(coeffs)
                .filter(|&(_, &a)| a != 0.0)
                .map(|(&v, &a)| (v, a));
            m.add_con(format!("r{r}"), terms, *sense, rhs);
        }
        m
    }
}

#[test]
fn random_boxed_neighbours_warm_start_to_the_dense_optimum() {
    // Solve a random boxed LP, then warm-start a neighbour (new costs,
    // coefficients and right-hand sides) from its optimal basis: the
    // neighbour's objective must match the dense tableau's. Every variable
    // is boxed, so the restoration meets bound flips; a restoration that
    // flipped one column per step fell back cold on 5 of these 300.
    let mut rng = ChaCha8Rng::seed_from_u64(0x1096_57E9);
    let mut cold_cases = Vec::new();
    for case in 0..300 {
        let n = rng.gen_range(3..9usize);
        let k = rng.gen_range(2..7usize);
        let lp = BoxedLp::random(&mut rng, n, k);
        let first = solver()
            .solve(&lp.build(&mut rng))
            .expect("feasible by construction");
        let basis = first.basis.expect("basis exported");
        let neighbour = lp.neighbour(&mut rng).build(&mut rng);
        let dense = DenseSimplex::new().solve(&neighbour).expect("dense");
        let warm = solver().solve_warm(&neighbour, Some(&basis)).expect("warm");
        let scale = 1.0 + dense.objective.abs();
        assert!(
            (dense.objective - warm.objective).abs() < 1e-6 * scale,
            "case {case}: dense {} warm {} (warm started: {})",
            dense.objective,
            warm.objective,
            warm.warm_started
        );
        if !warm.warm_started {
            cold_cases.push(case);
        }
    }
    assert!(cold_cases.is_empty(), "fell back cold: {cold_cases:?}");
}
