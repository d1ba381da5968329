//! Property tests: the dense tableau and the revised simplex are two
//! independent implementations — on random models they must agree on
//! status and objective, and any reported solution must verify feasible.
//!
//! Originally written against `proptest`; the offline build environment has
//! no registry access, so the random-model generator is hand-rolled on the
//! vendored ChaCha8 RNG instead. Coverage is the same shape (512 random
//! LPs, mixed bound kinds, all three senses) and fully deterministic.

use greencloud_lp::dense::DenseSimplex;
use greencloud_lp::revised::{Basis, RevisedSimplex, SimplexOptions};
use greencloud_lp::validate::check_feasible;
use greencloud_lp::{Model, Sense, SolveError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    bounds: Vec<(f64, f64)>,
    obj: Vec<f64>,
    cons: Vec<(Vec<f64>, Sense, f64)>,
}

fn arb_bound<R: Rng>(rng: &mut R) -> (f64, f64) {
    match rng.gen_range(0..4u32) {
        // Finite box.
        0 => {
            let lo = rng.gen_range(-5.0..5.0);
            (lo, lo + rng.gen_range(0.0..10.0))
        }
        // Lower-bounded only.
        1 => (rng.gen_range(-5.0..5.0), f64::INFINITY),
        // Upper-bounded only.
        2 => (f64::NEG_INFINITY, rng.gen_range(-5.0..5.0)),
        // Fixed.
        _ => {
            let v = rng.gen_range(-3.0..3.0);
            (v, v)
        }
    }
}

fn arb_sense<R: Rng>(rng: &mut R) -> Sense {
    match rng.gen_range(0..3u32) {
        0 => Sense::Le,
        1 => Sense::Ge,
        _ => Sense::Eq,
    }
}

fn arb_lp<R: Rng>(rng: &mut R) -> RandomLp {
    let n = rng.gen_range(1..6usize);
    let bounds: Vec<(f64, f64)> = (0..n).map(|_| arb_bound(rng)).collect();
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let n_cons = rng.gen_range(0..7usize);
    let cons: Vec<(Vec<f64>, Sense, f64)> = (0..n_cons)
        .map(|_| {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            (coeffs, arb_sense(rng), rng.gen_range(-8.0..8.0))
        })
        .collect();
    RandomLp {
        n,
        bounds,
        obj,
        cons,
    }
}

fn build(lp: &RandomLp) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..lp.n)
        .map(|i| m.add_var(format!("x{i}"), lp.bounds[i].0, lp.bounds[i].1, lp.obj[i]))
        .collect();
    for (k, (coeffs, sense, rhs)) in lp.cons.iter().enumerate() {
        m.add_con(
            format!("c{k}"),
            vars.iter().zip(coeffs.iter()).map(|(&v, &c)| (v, c)),
            *sense,
            *rhs,
        );
    }
    m
}

#[test]
fn revised_and_dense_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_A9EE);
    for case in 0..512 {
        let lp = arb_lp(&mut rng);
        let m = build(&lp);
        let r = m.solve();
        let d = DenseSimplex::new().solve(&m);
        match (&r, &d) {
            (Ok(rs), Ok(ds)) => {
                let scale = 1.0 + rs.objective.abs().max(ds.objective.abs());
                assert!(
                    (rs.objective - ds.objective).abs() < 1e-5 * scale,
                    "case {case}: objectives differ: revised={} dense={} lp={lp:?}",
                    rs.objective,
                    ds.objective
                );
                assert!(
                    check_feasible(&m, &rs.values, 1e-6).is_empty(),
                    "case {case}: revised solution infeasible: {lp:?}"
                );
                assert!(
                    check_feasible(&m, &ds.values, 1e-6).is_empty(),
                    "case {case}: dense solution infeasible: {lp:?}"
                );
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
            // A genuinely borderline model may be classed infeasible by one
            // solver and solved with a near-violating point by the other;
            // only accept that disagreement when a tiny tolerance bridge
            // exists. Anything else is a real bug.
            (Ok(rs), Err(SolveError::Infeasible)) => {
                let v = check_feasible(&m, &rs.values, 1e-9);
                assert!(
                    !v.is_empty() || m.num_cons() == 0,
                    "case {case}: revised says optimal (clean), dense says infeasible: {lp:?}"
                );
            }
            (Err(SolveError::Infeasible), Ok(ds)) => {
                let v = check_feasible(&m, &ds.values, 1e-9);
                assert!(
                    !v.is_empty() || m.num_cons() == 0,
                    "case {case}: dense says optimal (clean), revised says infeasible: {lp:?}"
                );
            }
            (a, b) => {
                panic!("case {case}: solver disagreement: revised={a:?} dense={b:?} lp={lp:?}");
            }
        }
    }
}

#[test]
fn optimal_beats_random_feasible_points() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEA7_F00D);
    for case in 0..512 {
        let lp = arb_lp(&mut rng);
        let probe: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
        let m = build(&lp);
        if let Ok(sol) = m.solve() {
            // Sample a point inside the variable box; if it happens to be
            // feasible, the reported optimum must not be worse.
            let mut point = vec![0.0; lp.n];
            for i in 0..lp.n {
                let (lo, hi) = lp.bounds[i];
                let lo_f = if lo.is_finite() { lo } else { -10.0 };
                let hi_f = if hi.is_finite() { hi } else { 10.0 };
                point[i] = lo_f + (hi_f - lo_f) * probe[i % probe.len()];
            }
            if check_feasible(&m, &point, 1e-9).is_empty() {
                let obj = m.objective_value(&point);
                assert!(
                    sol.objective <= obj + 1e-6 * (1.0 + obj.abs()),
                    "case {case}: random feasible point beats 'optimal': {} < {}",
                    obj,
                    sol.objective
                );
            }
        }
    }
}

/// Warm starts must not change what the solver reports: re-solving any
/// solvable random LP from its own exported basis reproduces the cold
/// objective to 1e-6 and converges without pivoting.
#[test]
fn warm_start_agrees_with_cold_solve() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x3A5E_11FE);
    let solver = RevisedSimplex::new(SimplexOptions::default());
    let mut warmed = 0usize;
    for case in 0..512 {
        let lp = arb_lp(&mut rng);
        let m = build(&lp);
        let Ok(cold) = solver.solve(&m) else {
            continue;
        };
        let basis: &Basis = cold.basis.as_ref().expect("solution exports basis");
        let warm = solver
            .solve_warm(&m, Some(basis))
            .expect("warm re-solve of a solved LP succeeds");
        let scale = 1.0 + cold.objective.abs();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6 * scale,
            "case {case}: warm {} vs cold {} ({lp:?})",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.stats.iterations <= 1,
            "case {case}: warm re-solve took {} iterations ({lp:?})",
            warm.stats.iterations
        );
        assert!(
            check_feasible(&m, &warm.values, 1e-6).is_empty(),
            "case {case}: warm solution infeasible"
        );
        warmed += 1;
    }
    assert!(warmed > 100, "too few solvable cases warmed: {warmed}");
}

#[test]
fn milp_relaxation_bound_holds() {
    use greencloud_lp::BranchAndBound;
    // On a deterministic family of knapsacks, the MILP optimum is never
    // better than the LP relaxation and matches brute force.
    for seed in 0..20u64 {
        let weights: Vec<f64> = (0..6).map(|i| 1.0 + ((seed * 7 + i) % 9) as f64).collect();
        let values: Vec<f64> = (0..6).map(|i| 1.0 + ((seed * 5 + i) % 7) as f64).collect();
        let cap = weights.iter().sum::<f64>() * 0.5;
        let mut m = Model::new();
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_bin_var(format!("x{i}"), -values[i]))
            .collect();
        m.add_con(
            "cap",
            vars.iter().zip(weights.iter()).map(|(&v, &w)| (v, w)),
            Sense::Le,
            cap,
        );
        let relax = m.solve().unwrap();
        let milp = BranchAndBound.solve(&m).unwrap();
        assert!(milp.objective >= relax.objective - 1e-9);
        // Brute force.
        let mut best = 0.0f64;
        for mask in 0u32..64 {
            let w: f64 = (0..6)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| weights[i])
                .sum();
            if w <= cap + 1e-9 {
                let v: f64 = (0..6)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| values[i])
                    .sum();
                best = best.max(v);
            }
        }
        assert!(
            (milp.objective + best).abs() < 1e-6,
            "seed {seed}: milp {} vs brute {}",
            -milp.objective,
            best
        );
    }
}

/// A random LP that is feasible by construction: `n` columns (some boxed,
/// some unbounded above) and `m` rows of mixed sense whose right-hand
/// sides hold at a random point inside the bounds. With `dual_feasible`
/// every column sits at a lower bound of 0 with a nonnegative cost, so the
/// all-slack basis is dual feasible; otherwise costs have mixed signs and
/// lower bounds go negative (some instances are then unbounded).
fn arb_feasible_lp<R: Rng>(rng: &mut R, dual_feasible: bool) -> Model {
    let n = rng.gen_range(5..61usize);
    let m = rng.gen_range(3..51usize);
    let mut model = Model::new();
    let mut vars = Vec::with_capacity(n);
    let mut point = Vec::with_capacity(n);
    for j in 0..n {
        let (lo, cost) = if dual_feasible {
            (0.0, rng.gen_range(0.0..3.0))
        } else {
            (rng.gen_range(-4.0..0.0), rng.gen_range(-3.0..3.0))
        };
        let hi = if rng.gen_bool(0.5) {
            lo + rng.gen_range(0.5..6.0)
        } else {
            f64::INFINITY
        };
        vars.push(model.add_var(format!("x{j}"), lo, hi, cost));
        let width = if hi.is_finite() { hi - lo } else { 6.0 };
        point.push(lo + rng.gen_range(0.0..width));
    }
    for i in 0..m {
        let mut terms = Vec::new();
        for (&v, &x) in vars.iter().zip(&point) {
            if rng.gen_bool(0.3) {
                terms.push((v, rng.gen_range(-3.0..3.0), x));
            }
        }
        let activity: f64 = terms.iter().map(|&(_, a, x)| a * x).sum();
        let (sense, rhs) = match rng.gen_range(0..3u32) {
            0 => (Sense::Le, activity + rng.gen_range(0.0..2.0)),
            1 => (Sense::Ge, activity - rng.gen_range(0.0..2.0)),
            _ => (Sense::Eq, activity),
        };
        model.add_con(
            format!("r{i}"),
            terms.into_iter().map(|(v, a, _)| (v, a)),
            sense,
            rhs,
        );
    }
    model
}

#[test]
fn slack_starts_agree_with_the_dense_oracle() {
    // Solves offered no basis start from the all-slack basis and restore
    // feasibility by dual steepest edge. On 600 feasible LPs they must match
    // the dense tableau: the same objective, or both unbounded, which
    // phase 2 proves from the restored basis. A slack start has no other
    // basis to restart from, so none counts a fallback.
    let mut rng = ChaCha8Rng::seed_from_u64(0xC01D_57A7);
    let (mut optima, mut unbounded) = (0, 0);
    for case in 0..600 {
        let model = arb_feasible_lp(&mut rng, case % 2 == 0);
        let dense = DenseSimplex::new().solve(&model);
        match (model.solve(), dense) {
            (Ok(r), Ok(d)) => {
                let scale = 1.0 + d.objective.abs();
                assert!(
                    (r.objective - d.objective).abs() < 1e-6 * scale,
                    "case {case}: revised {} dense {}",
                    r.objective,
                    d.objective
                );
                assert!(!r.warm_started, "case {case}: no basis was offered");
                assert_eq!(r.stats.fallbacks, 0, "case {case}: fell back");
                optima += 1;
            }
            (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => unbounded += 1,
            (r, d) => panic!("case {case}: revised {r:?} dense {d:?}"),
        }
    }
    assert!(
        optima > 400 && unbounded > 0,
        "{optima} optima, {unbounded} unbounded"
    );
}
