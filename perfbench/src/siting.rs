//! `siting`: the paper's §III planner, candidate filter → simulated
//! annealing → one LP per siting.
//!
//! A round builds the world and its candidates, then runs the Fig. 7 case
//! (50 MW, 50% green, net metering) and the Table III case (100% green,
//! wind and solar, no storage) through `Engine::run`. The search runs one
//! chain on one thread, so its LP count does not depend on thread timing.
//! Traced rounds call `Engine::candidates` → `filter_candidates` →
//! `anneal` themselves, which is what `Engine::run` does, with a span
//! around each call.

use crate::trace::{SpanId, Tracer};
use crate::{Finish, Round, Workload};
use greencloud_api::harness::{repro_search, world};
use greencloud_api::{Engine, ExperimentSpec, ReportBody, SearchSpec, SitingSpec};
use greencloud_core::anneal::{anneal, SearchStats};
use greencloud_core::candidate::CandidateSite;
use greencloud_core::filter::filter_candidates;
use greencloud_core::formulation::build_network_lp;
use greencloud_core::framework::{PlacementInput, SizeClass, StorageMode, TechMix};
use greencloud_lp::SimplexOptions;
use std::time::Instant;

/// World size of the paper's search (`repro fig7` and `repro tab3`).
const LOCATIONS: usize = 150;

/// One siting request and the outcome of its last round.
struct Case {
    label: &'static str,
    input: PlacementInput,
    /// Final siting as `(candidate index, size class)`, catalog order.
    siting: Vec<(usize, SizeClass)>,
    cost: f64,
    green_fraction: f64,
    capacity_mw: f64,
}

pub struct Siting {
    search: SearchSpec,
    cases: Vec<Case>,
    /// The engine of the latest round, kept for the output checks.
    engine: Option<Engine>,
    /// Layer counters of the latest traced round.
    stats: Vec<SearchStats>,
}

impl Siting {
    /// The two requests run in an order drawn from `seed`; their inputs do
    /// not depend on it, so every run does the same work.
    pub fn new(seed: u64) -> Self {
        let fig7 = PlacementInput::default();
        let tab3 = PlacementInput {
            storage: StorageMode::None,
            ..PlacementInput::default()
        }
        .with_green(1.0, TechMix::Both);
        let mut cases = vec![case("fig7_s", fig7), case("tab3_s", tab3)];
        if seed % 2 == 1 {
            cases.reverse();
        }
        Siting {
            // The paper's default profile and pre-filter, with a search
            // budget sized so that a round takes a few seconds.
            search: SearchSpec {
                chains: 1,
                iterations: 4,
                patience: 4,
                ..repro_search(false)
            },
            cases,
            engine: None,
            stats: Vec::new(),
        }
    }
}

fn case(label: &'static str, input: PlacementInput) -> Case {
    Case {
        label,
        input,
        siting: Vec::new(),
        cost: 0.0,
        green_fraction: 0.0,
        capacity_mw: 0.0,
    }
}

impl Workload for Siting {
    const OP: &'static str = "request";

    fn round(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Round, String> {
        let t0 = Instant::now();
        let catalog = tracer.time("climate.world", parent, || world(LOCATIONS));
        let engine = Engine::new(catalog).with_threads(1);
        let candidates = tracer.time("core.candidates", parent, || {
            engine.candidates(&self.search.profile)
        });
        let mut round = Round {
            setup_s: t0.elapsed().as_secs_f64(),
            ..Round::default()
        };
        let cpu0 = crate::sys::cpu_seconds();
        let timed = Instant::now();
        if tracer.on() {
            self.stats.clear();
        }
        for (k, case) in self.cases.iter_mut().enumerate() {
            let start = Instant::now();
            let stats = if tracer.on() {
                let req = tracer.open("siting.request", parent, k as u64);
                let params = engine.params();
                let kept = tracer.time("core.filter", req, || {
                    filter_candidates(params, &case.input, &candidates, self.search.filter_keep)
                });
                let filtered: Vec<CandidateSite> =
                    kept.iter().map(|&i| candidates[i].clone()).collect();
                let found = tracer.time("core.anneal", req, || {
                    anneal(
                        params,
                        &case.input,
                        &filtered,
                        &self.search.anneal_options(),
                    )
                });
                tracer.close(req);
                let found = found.map_err(|e| format!("{}: {e}", case.label))?;
                case.siting = found.siting.iter().map(|&(f, c)| (kept[f], c)).collect();
                case.cost = found.dispatch.monthly_cost;
                case.green_fraction = found.dispatch.green_fraction;
                case.capacity_mw = found.dispatch.total_capacity_mw;
                self.stats.push(found.stats);
                found.stats
            } else {
                let spec = ExperimentSpec::Siting(SitingSpec {
                    input: case.input.clone(),
                    search: self.search.clone(),
                });
                let report = engine
                    .run(&spec)
                    .map_err(|e| format!("{}: {e}", case.label))?;
                let ReportBody::Siting(s) = report.body else {
                    return Err(format!("{}: not a siting report", case.label));
                };
                case.siting = s
                    .sites
                    .iter()
                    .map(|site| locate(&candidates, &site.name, &site.size_class))
                    .collect::<Result<_, _>>()?;
                case.cost = s.monthly_cost_usd;
                case.green_fraction = s.green_fraction;
                case.capacity_mw = s.total_capacity_mw;
                let solver = s.solver.unwrap_or_default();
                SearchStats {
                    evaluations: solver.solves,
                    simplex_iterations: solver.iterations,
                    ..SearchStats::default()
                }
            };
            let secs = start.elapsed().as_secs_f64();
            round.latencies_ms.push(secs * 1e3);
            round.parts.push((case.label, secs));
            round.attempted += 1;
            let name = case.label.trim_end_matches("_s");
            round
                .counts
                .push((format!("{name}.lp_solves"), stats.evaluations.to_string()));
            round.counts.push((
                format!("{name}.simplex_iterations"),
                stats.simplex_iterations.to_string(),
            ));
            round
                .counts
                .push((format!("{name}.cost_usd"), case.cost.to_string()));
        }
        round.wall_s = timed.elapsed().as_secs_f64();
        round.cpu_s = crate::sys::cpu_seconds() - cpu0;
        // Parts are reported in a fixed order whatever order the seed chose.
        round.parts.sort_by_key(|p| p.0);
        round.counts.sort();
        self.engine = Some(engine);
        Ok(round)
    }

    fn finish(&mut self, tracer: &Tracer) -> Finish {
        let mut finish = Finish::default();
        let Some(engine) = &self.engine else {
            return finish;
        };
        let candidates = engine.candidates(&self.search.profile);
        let params = engine.params();
        let replay = tracer.open("siting.replay", None, 0);
        let (mut cold_s, mut cold_iters, mut warm_s) = (0.0, 0usize, 0.0);
        for case in &self.cases {
            let input = &case.input;
            finish.checks.push((
                format!(
                    "{}: green fraction {:.6} meets {:.2}",
                    case.label, case.green_fraction, input.min_green_fraction
                ),
                case.green_fraction >= input.min_green_fraction - 1e-6,
            ));
            finish.checks.push((
                format!(
                    "{}: capacity {:.4} MW meets {:.1} MW",
                    case.label, case.capacity_mw, input.total_capacity_mw
                ),
                case.capacity_mw >= input.total_capacity_mw * (1.0 - 1e-9) - 1e-6,
            ));
            let sites: Vec<(&CandidateSite, SizeClass)> = case
                .siting
                .iter()
                .map(|&(i, c)| (&candidates[i], c))
                .collect();
            if sites.is_empty() {
                finish
                    .checks
                    .push((format!("{}: no siting to re-solve", case.label), false));
                continue;
            }
            let lp = tracer.time("core.assemble", replay, || {
                build_network_lp(params, input, &sites)
            });
            let t = Instant::now();
            let cold = tracer.time("lp.cold_solve", replay, || {
                lp.solve_warm(SimplexOptions::default(), None)
            });
            let elapsed = t.elapsed().as_secs_f64();
            let (dispatch, basis) = match cold {
                Ok(x) => x,
                Err(e) => {
                    finish
                        .checks
                        .push((format!("{}: cold re-solve failed: {e}", case.label), false));
                    continue;
                }
            };
            let rel = (dispatch.monthly_cost - case.cost).abs() / case.cost.abs().max(1.0);
            finish.checks.push((
                format!(
                    "{}: cold re-solve cost {} vs reported {} (relative {rel:.2e})",
                    case.label, dispatch.monthly_cost, case.cost
                ),
                rel <= 1e-6,
            ));
            if !tracer.on() {
                continue;
            }
            cold_s += elapsed;
            cold_iters += dispatch.iterations;
            println!(
                "lp.cold_solve {}: {} sites, {} rows x {} cols, {} iterations, {:.3} ms",
                case.label,
                sites.len(),
                lp.num_cons(),
                lp.num_vars(),
                dispatch.iterations,
                elapsed * 1e3
            );
            // A same-shape neighbour takes the final basis as its warm
            // start: one site resized, or failing that (shrinking a large
            // site is often infeasible) one site swapped for the cheapest
            // unsited candidate the filter kept. The first feasible one is
            // timed.
            let kept = filter_candidates(params, input, &candidates, self.search.filter_keep);
            let spare = kept
                .into_iter()
                .find(|&i| case.siting.iter().all(|s| s.0 != i));
            let mut neighbours = Vec::new();
            for k in 0..sites.len() {
                let mut n = sites.clone();
                n[k].1 = match n[k].1 {
                    SizeClass::Small => SizeClass::Large,
                    SizeClass::Large => SizeClass::Small,
                };
                neighbours.push((format!("site {k} resized"), n));
            }
            if let Some(i) = spare {
                for k in 0..sites.len() {
                    let mut n = sites.clone();
                    n[k].0 = &candidates[i];
                    neighbours.push((format!("site {k} swapped"), n));
                }
            }
            let mut timed = false;
            for (what, neighbour) in neighbours {
                let nlp = build_network_lp(params, input, &neighbour);
                let t = Instant::now();
                let Ok((d, _)) = nlp.solve_warm(SimplexOptions::default(), basis.as_ref()) else {
                    continue;
                };
                let end = Instant::now();
                tracer.record("lp.warm_solve", replay, 0, t, end);
                warm_s += (end - t).as_secs_f64();
                println!(
                    "lp.warm_solve {}: {what}, warm start {}, {} iterations, {:.3} ms",
                    case.label,
                    d.warm_started,
                    d.iterations,
                    (end - t).as_secs_f64() * 1e3
                );
                timed = true;
                break;
            }
            if !timed {
                println!(
                    "lp.warm_solve {}: no feasible same-shape neighbour",
                    case.label
                );
            }
        }
        tracer.close(replay);
        if tracer.on() {
            let spans = tracer.spans();
            let per_parent = |name| crate::med(crate::trace::totals_per_parent(&spans, name));
            let l = &mut finish.layer;
            l.insert(
                "climate.world_s",
                crate::med(crate::trace::durations(&spans, "climate.world")),
            );
            l.insert(
                "core.candidates_s",
                crate::med(crate::trace::durations(&spans, "core.candidates")),
            );
            // Filter and anneal spans sit under one span per request; sum the
            // two requests of a round, then take the median over rounds.
            let per_round_of_requests = |name: &str| {
                let mut by_round: std::collections::BTreeMap<Option<SpanId>, f64> =
                    Default::default();
                for s in spans.iter().filter(|s| s.name == name) {
                    let round = s.parent.and_then(|p| spans[p].parent);
                    *by_round.entry(round).or_default() += s.duration();
                }
                crate::med(by_round.into_values())
            };
            l.insert("core.filter_ms", per_round_of_requests("core.filter") * 1e3);
            l.insert("core.anneal_s", per_round_of_requests("core.anneal"));
            l.insert("core.assemble_ms", per_parent("core.assemble") * 1e3);
            l.insert("lp.cold_solve_ms", cold_s * 1e3);
            l.insert(
                "lp.us_per_iter",
                if cold_iters > 0 {
                    cold_s * 1e6 / cold_iters as f64
                } else {
                    0.0
                },
            );
            l.insert("lp.warm_solve_ms", warm_s * 1e3);
            let mut s = SearchStats::default();
            for st in &self.stats {
                s.evaluations += st.evaluations;
                s.cache_hits += st.cache_hits;
                s.warm_attempts += st.warm_attempts;
                s.warm_hits += st.warm_hits;
                s.block_hits += st.block_hits;
                s.block_misses += st.block_misses;
                s.simplex_iterations += st.simplex_iterations;
                s.refactorizations += st.refactorizations;
                s.ftrans += st.ftrans;
                s.btrans += st.btrans;
                s.pricing_ns += st.pricing_ns;
            }
            let ratio = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
            l.insert("core.anneal.lp_solves", s.evaluations as f64);
            l.insert("core.anneal.cache_hit_rate", s.cache_rate());
            l.insert("core.anneal.warm_share", ratio(s.warm_hits, s.evaluations));
            l.insert("core.anneal.warm_hit_rate", s.warm_rate());
            l.insert(
                "core.siteblock.hit_rate",
                ratio(s.block_hits, s.block_hits + s.block_misses),
            );
            l.insert("lp.iterations", s.simplex_iterations as f64);
            l.insert(
                "lp.iters_per_solve",
                ratio(s.simplex_iterations, s.evaluations),
            );
            l.insert("lp.refactorizations", s.refactorizations as f64);
            l.insert("lp.ftrans", s.ftrans as f64);
            l.insert("lp.btrans", s.btrans as f64);
            l.insert("lp.pricing_ms", s.pricing_ms());
        }
        finish
    }
}

/// The catalog index of the candidate a report names.
fn locate(
    candidates: &[CandidateSite],
    name: &str,
    class: &str,
) -> Result<(usize, SizeClass), String> {
    let mut hits = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.name == name);
    let (Some((i, _)), None) = (hits.next(), hits.next()) else {
        return Err(format!(
            "report site {name:?} does not name exactly one candidate"
        ));
    };
    let class = match class {
        "small" => SizeClass::Small,
        "large" => SizeClass::Large,
        other => return Err(format!("unknown size class {other:?}")),
    };
    Ok((i, class))
}
