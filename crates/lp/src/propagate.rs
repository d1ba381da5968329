//! Row-activity bound propagation: a cheap proof that an LP is infeasible,
//! run before the simplex builds a basis.
//!
//! Each pass computes, for every row, the least and greatest activity
//! `Σ aⱼ·xⱼ` the current variable bounds allow (infinite contributions are
//! counted apart from the finite sum). A row whose activity range misses
//! its right-hand side by more than a margin proves the model infeasible.
//! Otherwise each term's bound is tightened from the residual activity of
//! the other terms, and the next pass works with the tighter bounds. A
//! contradiction often takes several passes to surface: in a siting LP a
//! capped site's redundancy row caps every other site's capacity, the
//! capacity links then cap the per-slot load, and only then does the
//! demand row come up short.
//!
//! The answer is a verdict only. Tightened bounds live in scratch vectors
//! and are dropped, so the simplex always sees the unmodified model. The
//! proof is deliberately weaker than the simplex's own: every row may miss
//! its right-hand side by `10·feas_tol` (ten times the tolerance the
//! simplex allows a basic variable past its bound) scaled by the row's
//! size, and every derived bound is relaxed by that margin plus a relative
//! round-off guard, so a model the simplex would solve is not called
//! infeasible here.

use crate::model::{Model, Sense};

/// Passes over the rows before propagation gives up.
const MAX_PASSES: usize = 8;
/// A tightening is applied, and counts as progress, only when it moves a
/// bound by more than this fraction of `max(1, |bound|)`.
const SIGNIFICANT: f64 = 1e-3;
/// Relative outward relaxation of every derived bound, so accumulated
/// round-off cannot tip a near-feasible model into a false proof.
const BOUND_EPS: f64 = 1e-9;

/// The least or greatest activity of a row: a finite sum plus the number of
/// terms whose contribution is infinite.
#[derive(Clone, Copy, Default)]
struct Activity {
    finite: f64,
    infinite: usize,
}

impl Activity {
    fn add(&mut self, term: Option<f64>) {
        match term {
            Some(c) => self.finite += c,
            None => self.infinite += 1,
        }
    }

    /// The activity of the row without one of its terms (`None` when the
    /// rest is still infinite).
    fn without(self, term: Option<f64>) -> Option<f64> {
        match (term, self.infinite) {
            (Some(c), 0) => Some(self.finite - c),
            (None, 1) => Some(self.finite),
            _ => None,
        }
    }
}

/// The least and greatest value of `a·x` over `x ∈ [lo, hi]`; `None` where
/// it is infinite.
fn extremes(a: f64, lo: f64, hi: f64) -> (Option<f64>, Option<f64>) {
    let (least, most) = if a > 0.0 {
        (a * lo, a * hi)
    } else {
        (a * hi, a * lo)
    };
    (
        least.is_finite().then_some(least),
        most.is_finite().then_some(most),
    )
}

/// The width of a contribution's range, infinite when either end is.
fn span(least: Option<f64>, most: Option<f64>) -> f64 {
    match (least, most) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => f64::INFINITY,
    }
}

/// Lowers the upper bound `ub` to the derived bound `x`, relaxed upward,
/// when that moves it significantly; reports whether it moved.
fn lower_ub(ub: &mut f64, x: f64) -> bool {
    let cand = x + BOUND_EPS * x.abs().max(1.0);
    let moved = cand.is_finite()
        && cand < *ub
        && (!ub.is_finite() || *ub - cand > SIGNIFICANT * ub.abs().max(1.0));
    if moved {
        *ub = cand;
    }
    moved
}

/// Raises the lower bound `lb` to the derived bound `x`, relaxed downward,
/// when that moves it significantly; reports whether it moved.
fn raise_lb(lb: &mut f64, x: f64) -> bool {
    let cand = x - BOUND_EPS * x.abs().max(1.0);
    let moved = cand.is_finite()
        && cand > *lb
        && (!lb.is_finite() || cand - *lb > SIGNIFICANT * lb.abs().max(1.0));
    if moved {
        *lb = cand;
    }
    moved
}

/// Returns the 1-based pass at which propagation proves `model` infeasible
/// under the primal tolerance `feas_tol`, or `None` when it finds no
/// contradiction. `None` says nothing about feasibility.
///
/// The model must have passed [`Model::validate`] (finite coefficients and
/// right-hand sides, no NaN bounds).
pub(crate) fn infeasible_at_pass(model: &Model, feas_tol: f64) -> Option<usize> {
    let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    for pass in 1..=MAX_PASSES {
        let mut progress = false;
        for con in &model.cons {
            let caps_above = matches!(con.sense, Sense::Le | Sense::Eq);
            let caps_below = matches!(con.sense, Sense::Ge | Sense::Eq);
            let (mut least, mut most) = (Activity::default(), Activity::default());
            let mut scale = con.rhs.abs().max(1.0);
            // The widest range one term's contribution spans.
            let mut widest = 0.0f64;
            for &(v, a) in &con.terms {
                let (lo, hi) = extremes(a, lb[v.index()], ub[v.index()]);
                for c in [lo, hi].into_iter().flatten() {
                    scale = scale.max(c.abs());
                }
                widest = widest.max(span(lo, hi));
                least.add(lo);
                most.add(hi);
            }
            // An overflowed sum has lost its finite part: the row proves
            // nothing.
            if !least.finite.is_finite() || !most.finite.is_finite() {
                continue;
            }
            let margin = 10.0 * feas_tol * scale;
            let (cap, floor) = (con.rhs + margin, con.rhs - margin);
            // Room between each finite extreme activity and the right-hand
            // side: negative room is a contradiction, and a term's bound can
            // tighten only where its span exceeds the room.
            let (room_above, room_below) = (cap - least.finite, most.finite - floor);
            if (caps_above && least.infinite == 0 && room_above < 0.0)
                || (caps_below && most.infinite == 0 && room_below < 0.0)
            {
                return Some(pass);
            }
            let above = caps_above && least.infinite <= 1 && widest > room_above;
            let below = caps_below && most.infinite <= 1 && widest > room_below;
            if !above && !below {
                continue;
            }
            for &(v, a) in &con.terms {
                let j = v.index();
                let (lo, hi) = extremes(a, lb[j], ub[j]);
                let width = span(lo, hi);
                // a·xⱼ ≤ cap − (least activity of the other terms) and
                // a·xⱼ ≥ floor − (greatest activity of the other terms).
                let from_above = least
                    .without(lo)
                    .filter(|_| above && width > room_above)
                    .map(|rest| (cap - rest) / a);
                let from_below = most
                    .without(hi)
                    .filter(|_| below && width > room_below)
                    .map(|rest| (floor - rest) / a);
                // Dividing by a negative coefficient swaps the sides.
                let (upper, lower) = if a > 0.0 {
                    (from_above, from_below)
                } else {
                    (from_below, from_above)
                };
                if let Some(x) = upper {
                    progress |= lower_ub(&mut ub[j], x);
                }
                if let Some(x) = lower {
                    progress |= raise_lb(&mut lb[j], x);
                }
                if lb[j] > ub[j] {
                    return Some(pass);
                }
            }
        }
        if !progress {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseSimplex;
    use crate::model::{SolveError, VarId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const FEAS_TOL: f64 = 1e-7;

    /// A siting LP in miniature: site `s` has capacity in `caps[s]`, and per
    /// slot a load `comp ≤ capacity`; the slots' loads must meet `demand`,
    /// and the redundancy rows `capacity_s ≥ Σ capacity / n` force equal
    /// shares. Rows come in the siting LP's order: site links first, then
    /// demand, then redundancy.
    fn siting_toy(caps: &[(f64, f64)], slots: usize, demand: f64) -> Model {
        let mut m = Model::new();
        let n = caps.len();
        let cap: Vec<VarId> = caps
            .iter()
            .enumerate()
            .map(|(s, &(lo, hi))| m.add_var(format!("cap{s}"), lo, hi, 1.0))
            .collect();
        let comp: Vec<Vec<VarId>> = (0..n)
            .map(|s| {
                (0..slots)
                    .map(|t| m.add_var(format!("comp{s},{t}"), 0.0, f64::INFINITY, 0.0))
                    .collect()
            })
            .collect();
        for (s, (&c, loads)) in cap.iter().zip(&comp).enumerate() {
            for (t, &load) in loads.iter().enumerate() {
                m.add_con(
                    format!("link{s},{t}"),
                    [(load, 1.0), (c, -1.0)],
                    Sense::Le,
                    0.0,
                );
            }
        }
        for t in 0..slots {
            m.add_con(
                format!("demand{t}"),
                comp.iter().map(|loads| (loads[t], 1.0)),
                Sense::Ge,
                demand,
            );
        }
        let share = 1.0 / n as f64;
        for s in 0..n {
            m.add_con(
                format!("redundancy{s}"),
                cap.iter()
                    .enumerate()
                    .map(|(k, &c)| (c, if k == s { 1.0 - share } else { -share })),
                Sense::Ge,
                0.0,
            );
        }
        m
    }

    /// One `Small` site capped at `cap` MW; the others are `Large`, at least
    /// `cap` MW.
    fn one_small(sites: usize, cap: f64) -> Vec<(f64, f64)> {
        let mut caps = vec![(cap, f64::INFINITY); sites];
        if let Some(first) = caps.first_mut() {
            *first = (0.0, cap);
        }
        caps
    }

    #[test]
    fn capped_siting_is_proved_infeasible_after_several_passes() {
        for sites in [2, 3] {
            let toy = siting_toy(&one_small(sites, 8.0), 4, 50.0);
            let pass = infeasible_at_pass(&toy, FEAS_TOL);
            // Pass 1 caps the large sites through the redundancy rows; only
            // pass 2 carries that cap through the links to the demand rows.
            assert!(matches!(pass, Some(p) if p > 1), "{sites} sites: {pass:?}");
            assert_eq!(toy.solve().unwrap_err(), SolveError::Infeasible);
            assert_eq!(
                DenseSimplex::new().solve(&toy).unwrap_err(),
                SolveError::Infeasible
            );
        }
    }

    #[test]
    fn exactly_enough_capacity_is_not_proved_infeasible() {
        for sites in [2, 3] {
            let toy = siting_toy(&one_small(sites, 8.0), 4, 8.0 * sites as f64);
            assert_eq!(infeasible_at_pass(&toy, FEAS_TOL), None, "{sites} sites");
            let sol = toy.solve().expect("n·cap = demand is feasible");
            assert!((sol.objective - 8.0 * sites as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn feasible_models_are_not_proved_infeasible() {
        // Equality rows, fixed variables among them.
        let mut eq = Model::new();
        let x = eq.add_var("x", 0.0, 10.0, 1.0);
        let y = eq.add_var("y", 0.0, 10.0, 1.0);
        let z = eq.add_var("z", 2.0, 2.0, 0.0);
        eq.add_con("sum", [(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        eq.add_con("diff", [(x, 1.0), (y, -1.0), (z, 1.0)], Sense::Eq, 3.0);
        // Free variables, alone and in rows with bounded ones.
        let mut free = Model::new();
        let f = free.add_var("f", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let g = free.add_var("g", f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let h = free.add_var("h", 0.0, 1.0, 0.0);
        free.add_con("lo", [(f, 1.0), (g, 1.0)], Sense::Ge, 3.0);
        free.add_con("hi", [(f, 1.0), (g, -1.0), (h, 2.0)], Sense::Le, 1.0);
        free.add_con("pin", [(g, 1.0), (h, -1.0)], Sense::Eq, 4.0);
        // 1e9-scale terms whose rows hold with 1e-3 to spare, and a row
        // that propagates their derived bounds on.
        let mut big = Model::new();
        let p = big.add_var("p", 0.0, 1.0, 1.0);
        let q = big.add_var("q", 0.0, 1.0, 1.0);
        let r = big.add_var("r", 0.0, f64::INFINITY, 1.0);
        big.add_con("most", [(p, 1e9), (q, 1e9)], Sense::Ge, 2e9 - 1e-3);
        big.add_con("least", [(p, -1e9), (q, 1e9)], Sense::Le, 1e-3);
        big.add_con("chain", [(r, 1.0), (p, -1e9)], Sense::Le, 0.0);
        big.add_con("floor", [(r, 1.0)], Sense::Ge, 1e9 - 1e-3);
        for (name, model) in [("eq", eq), ("free", free), ("big", big)] {
            assert_eq!(infeasible_at_pass(&model, FEAS_TOL), None, "{name}");
            assert!(model.solve().is_ok(), "{name}: {:?}", model.solve());
        }
    }

    /// A random small LP: every bound kind, every row sense.
    fn random_lp(rng: &mut ChaCha8Rng) -> Model {
        let mut m = Model::new();
        let n = rng.gen_range(1..6usize);
        let vars: Vec<VarId> = (0..n)
            .map(|i| {
                let (lo, hi) = match rng.gen_range(0..5u32) {
                    0 => {
                        let lo = rng.gen_range(-5.0..5.0);
                        (lo, lo + rng.gen_range(0.0..10.0))
                    }
                    1 => (rng.gen_range(-5.0..5.0), f64::INFINITY),
                    2 => (f64::NEG_INFINITY, rng.gen_range(-5.0..5.0)),
                    3 => (f64::NEG_INFINITY, f64::INFINITY),
                    _ => {
                        let v = rng.gen_range(-3.0..3.0);
                        (v, v)
                    }
                };
                m.add_var(format!("x{i}"), lo, hi, rng.gen_range(-3.0..3.0))
            })
            .collect();
        for k in 0..rng.gen_range(1..7usize) {
            let sense = match rng.gen_range(0..3u32) {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.7) {
                    terms.push((v, rng.gen_range(-2.0..2.0)));
                }
            }
            m.add_con(format!("c{k}"), terms, sense, rng.gen_range(-8.0..8.0));
        }
        m
    }

    /// Moves one row's right-hand side to `rel` (relative) inside or past
    /// the activity limit its original bounds allow, when that is finite.
    fn near_boundary(rng: &mut ChaCha8Rng, m: &mut Model) {
        let k = rng.gen_range(0..m.cons.len());
        let con = &m.cons[k];
        let upper = match con.sense {
            Sense::Le => false,
            Sense::Ge => true,
            Sense::Eq => rng.gen_bool(0.5),
        };
        let mut limit = 0.0;
        for &(v, a) in &con.terms {
            let def = &m.vars[v.index()];
            let (lo, hi) = extremes(a, def.lb, def.ub);
            match if upper { hi } else { lo } {
                Some(c) => limit += c,
                None => return,
            }
        }
        let rel = 10f64.powf(rng.gen_range(-9.0..-3.0));
        let past = rng.gen_bool(0.5);
        // Past the greatest activity is above it; past the least is below.
        let outward = if upper == past { 1.0 } else { -1.0 };
        m.cons[k].rhs = limit + outward * rel * limit.abs().max(1.0);
    }

    #[test]
    fn proofs_agree_with_the_dense_oracle() {
        // Miri interprets every dense pivot, so it checks fewer draws.
        let cases = if cfg!(miri) { 48 } else { 1500 };
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let (mut proved, mut multi_pass) = (0, 0);
        for case in 0..cases {
            let model = match case % 3 {
                0 => random_lp(&mut rng),
                1 => {
                    let mut m = random_lp(&mut rng);
                    near_boundary(&mut rng, &mut m);
                    m
                }
                _ => {
                    // Siting toys with demand within 1e-9..1e-3 of n·cap.
                    let sites = rng.gen_range(2..4usize);
                    let cap = rng.gen_range(1.0..10.0);
                    let rel = 10f64.powf(rng.gen_range(-9.0..-3.0));
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    let demand = sites as f64 * cap * (1.0 + sign * rel);
                    siting_toy(&one_small(sites, cap), 2, demand)
                }
            };
            let Some(pass) = infeasible_at_pass(&model, FEAS_TOL) else {
                continue;
            };
            assert_eq!(
                DenseSimplex::new().solve(&model).err(),
                Some(SolveError::Infeasible),
                "case {case}: propagation proved infeasible at pass {pass}: {model:?}"
            );
            proved += 1;
            if pass > 1 {
                multi_pass += 1;
            }
        }
        // The draws must exercise the proof, including multi-pass ones.
        let (min_proved, min_multi) = if cfg!(miri) { (10, 1) } else { (500, 80) };
        assert!(
            proved >= min_proved && multi_pass >= min_multi,
            "proved {proved}, after more than one pass {multi_pass}"
        );
    }

    #[test]
    fn a_looser_tolerance_relaxes_the_proof() {
        // Demand beyond n·cap by 1e-5 relative: proved at the default
        // tolerance, tolerated at the ×100 the scheduler's recovery uses.
        let toy = siting_toy(&one_small(2, 8.0), 2, 16.0 * (1.0 + 1e-5));
        assert!(infeasible_at_pass(&toy, FEAS_TOL).is_some());
        assert_eq!(infeasible_at_pass(&toy, FEAS_TOL * 100.0), None);
    }
}
