//! Pricing-mode agreement: devex and Dantzig pricing are two routes
//! through the same revised simplex, and the dense tableau is an
//! independent implementation — on randomly generated *bounded* LPs
//! (finite boxes, so every instance has an optimum) all three must report
//! the same objective, and every reported point must verify feasible.

use greencloud_lp::dense::DenseSimplex;
use greencloud_lp::revised::{PricingMode, RevisedSimplex, SimplexOptions};
use greencloud_lp::validate::check_feasible;
use greencloud_lp::{Model, Sense};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct BoundedLp {
    n: usize,
    bounds: Vec<(f64, f64)>,
    obj: Vec<f64>,
    cons: Vec<(Vec<f64>, Sense, f64)>,
}

/// A random LP whose variables all live in finite boxes: never unbounded,
/// and infeasibility can only come from the constraints.
fn arb_bounded_lp<R: Rng>(rng: &mut R) -> BoundedLp {
    let n = rng.gen_range(1..8usize);
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(-6.0..6.0);
            (lo, lo + rng.gen_range(0.0..12.0))
        })
        .collect();
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let n_cons = rng.gen_range(0..9usize);
    let cons: Vec<(Vec<f64>, Sense, f64)> = (0..n_cons)
        .map(|_| {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let sense = match rng.gen_range(0..3u32) {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            (coeffs, sense, rng.gen_range(-10.0..10.0))
        })
        .collect();
    BoundedLp {
        n,
        bounds,
        obj,
        cons,
    }
}

fn build(lp: &BoundedLp) -> Model {
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
fn all_pricing_modes_and_dense_agree_on_bounded_lps() {
    let modes = [PricingMode::Devex, PricingMode::Dantzig];
    let mut rng = ChaCha8Rng::seed_from_u64(0x9D1C_E5EE);
    let mut solved = 0usize;
    for case in 0..512 {
        let lp = arb_bounded_lp(&mut rng);
        let m = build(&lp);
        let dense = DenseSimplex::new().solve(&m);
        let revised: Vec<_> = modes
            .iter()
            .map(|&pricing| {
                RevisedSimplex::new(SimplexOptions {
                    pricing,
                    ..SimplexOptions::default()
                })
                .solve(&m)
            })
            .collect();
        // Both runs must agree on solvability; bounded boxes rule out
        // Unbounded, so Ok/Infeasible is the whole space (modulo borderline
        // tolerance cases, which the plain-mode agreement suite covers —
        // here the *modes* must agree with each other exactly).
        let ok_count = revised.iter().filter(|r| r.is_ok()).count();
        assert!(
            ok_count == 0 || ok_count == modes.len(),
            "case {case}: pricing modes disagree on solvability: {revised:?}"
        );
        let Ok(first) = &revised[0] else {
            continue;
        };
        solved += 1;
        let scale = 1.0 + first.objective.abs();
        for (mode, r) in modes.iter().zip(&revised) {
            let sol = r.as_ref().expect("all Ok per the gate above");
            assert!(
                (sol.objective - first.objective).abs() < 1e-6 * scale,
                "case {case}: {mode:?} objective {} vs devex {}",
                sol.objective,
                first.objective
            );
            assert!(
                check_feasible(&m, &sol.values, 1e-6).is_empty(),
                "case {case}: {mode:?} solution infeasible"
            );
        }
        if let Ok(d) = &dense {
            assert!(
                (d.objective - first.objective).abs() < 1e-5 * scale,
                "case {case}: dense {} vs revised {}",
                d.objective,
                first.objective
            );
        }
    }
    assert!(solved > 100, "too few solvable cases: {solved}");
}

#[test]
fn pricing_modes_agree_on_degenerate_chains() {
    // Battery-style level-linking chains are the degenerate stress case
    // that historically separated the pricing modes; both must reach
    // the known optimum.
    let n = 60;
    let mut m = Model::new();
    let mut vars = Vec::new();
    for i in 0..n {
        vars.push(m.add_var(
            format!("x{i}"),
            0.0,
            4.0,
            if i % 2 == 0 { 1.0 } else { -1.0 },
        ));
    }
    for i in 1..n {
        m.add_con(
            format!("link{i}"),
            [(vars[i - 1], 0.75), (vars[i], -1.0)],
            Sense::Le,
            0.5,
        );
    }
    m.add_con("anchor", [(vars[0], 1.0)], Sense::Ge, 1.0);
    let reference = m.solve().expect("solvable");
    for pricing in [PricingMode::Devex, PricingMode::Dantzig] {
        let sol = RevisedSimplex::new(SimplexOptions {
            pricing,
            ..SimplexOptions::default()
        })
        .solve(&m)
        .expect("solvable in every mode");
        assert!(
            (sol.objective - reference.objective).abs() < 1e-6,
            "{pricing:?}: {} vs {}",
            sol.objective,
            reference.objective
        );
        let violations = check_feasible(&m, &sol.values, 1e-6);
        assert!(
            violations.is_empty(),
            "{pricing:?}: violations {violations:?}"
        );
    }
}

#[test]
fn solve_stats_travel_with_the_solution() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0, -1.0);
    let y = m.add_var("y", 0.0, 10.0, -2.0);
    m.add_con("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 12.0);
    let sol = m.solve().expect("solvable");
    assert!(sol.stats.iterations > 0);
    assert!(sol.stats.ftrans > 0);
    assert!(sol.stats.btrans > 0);
    // A warm re-solve from the optimal basis should pivot less than the
    // cold solve did and keep its counters consistent.
    let warm = m
        .solve_with_basis(SimplexOptions::default(), sol.basis.as_ref())
        .expect("warm");
    assert!(warm.warm_started);
    assert!(warm.stats.iterations <= sol.stats.iterations);
}
