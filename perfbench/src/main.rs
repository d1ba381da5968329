//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <siting|operate|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats a fixed unit of work ("round") until `--seconds`
//! have passed, checks its outputs, and prints its metrics with units and
//! sample counts. Every round must repeat the first round's work counts
//! exactly. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A traced run alternates untraced and
//! traced rounds, so `trace.overhead` compares the two under the same
//! machine load; per-layer numbers come from the traced rounds' spans.
//! `--workload all` runs the three workloads one after another, each in a
//! fresh process. See `README.md` beside this crate.

mod metrics;
mod operate;
mod serve;
mod siting;
mod stats;
mod sys;
mod trace;

use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::{SpanId, Tracer};

const WORKLOADS: [&str; 3] = ["siting", "operate", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// One round of a workload's fixed work.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    /// Set-up before the timed phase, seconds.
    pub setup_s: f64,
    /// The timed phase, seconds.
    pub wall_s: f64,
    /// CPU seconds the process spent in the timed phase.
    pub cpu_s: f64,
    /// Per-operation latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Named parts of the timed phase, seconds (e.g. `fig7_s`).
    pub parts: Vec<(&'static str, f64)>,
    /// Work counts and costs that every round must repeat exactly.
    pub counts: Vec<(String, String)>,
    pub attempted: u64,
    /// Failed operations: errors, non-2xx answers, a moved work count.
    pub failed: u64,
    /// What failed, for the report.
    pub errors: Vec<String>,
}

/// Output checks and per-layer numbers, produced after the timed rounds.
#[derive(Default)]
pub struct Finish {
    /// `(what was checked, passed)`.
    pub checks: Vec<(String, bool)>,
    pub layer: BTreeMap<&'static str, f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// The operation each latency sample times.
    const OP: &'static str;
    /// Runs one round; `tracer` records spans only in traced rounds, under
    /// `parent`.
    fn round(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Round, String>;
    /// Checks outputs and, when `tracer` is on, replays single layers.
    fn finish(&mut self, tracer: &Tracer) -> Finish;
}

/// The first count of `round` that differs from `first`, as a message.
fn moved_count(first: &Round, round: &Round) -> Option<String> {
    if first.counts.len() != round.counts.len() {
        return Some("the set of work counts changed".to_string());
    }
    first
        .counts
        .iter()
        .zip(&round.counts)
        .find(|(a, b)| a != b)
        .map(|((name, a), (_, b))| format!("work count {name} moved: {a} in round 1, {b} here"))
}

/// Where runs keep their journals and span files: beside the build.
pub fn run_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    );
    target.join("perfbench-run")
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn drive<W: Workload>(w: &mut W, args: &Args) -> i32 {
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds: Vec<Round> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let traced = args.trace && rounds.len() % 2 == 1;
        let tracer = if traced { &on } else { &off };
        let span = tracer.open("bench.round", None, rounds.len() as u64);
        let round = w.round(tracer, span);
        tracer.close(span);
        let mut round = match round {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: round {} failed: {e}", args.workload, rounds.len() + 1);
                return 1;
            }
        };
        round.traced = traced;
        if let Some(first) = rounds.first() {
            if let Some(msg) = moved_count(first, &round) {
                problems.push(format!("round {}: {msg}", rounds.len() + 1));
                round.failed += 1;
            }
        }
        println!(
            "round {:>2}{} setup {:.4} s, wall {:.4} s, {} {}s, {} failed",
            rounds.len() + 1,
            if traced { " (traced)" } else { "" },
            round.setup_s,
            round.wall_s,
            round.latencies_ms.len(),
            W::OP,
            round.failed
        );
        problems.extend(
            round
                .errors
                .drain(..)
                .map(|e| format!("round {}: {e}", rounds.len() + 1)),
        );
        if rounds.is_empty() {
            // Later rounds repeat the same work; the peak over the first
            // one does not grow with how many rounds fit in the run.
            peak_rss_mb = sys::peak_rss_mb();
        }
        rounds.push(round);
    }
    if let Some(first) = rounds.first() {
        let counts: Vec<String> = first
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("counts (every round): {}", counts.join(" "));
    }
    let finish = w.finish(if args.trace { &on } else { &off });
    let failed_checks = finish.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    for (what, ok) in &finish.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let attempted: u64 =
        rounds.iter().map(|r| r.attempted).sum::<u64>() + finish.checks.len() as u64;
    let failed: u64 = rounds.iter().map(|r| r.failed).sum::<u64>() + failed_checks;
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = failed == 0 && problems.is_empty();

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let wall = med(plain.iter().map(|r| r.wall_s));
    let n = plain.len();
    let mut values: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    if args.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let mut layer = finish.layer;
        let cpu = med(plain.iter().map(|r| r.cpu_s));
        layer.insert("proc.cpu_s", cpu);
        layer.insert("proc.cpu_util", if wall > 0.0 { cpu / wall } else { 0.0 });
        let traced_wall = med(traced.iter().map(|r| r.wall_s));
        layer.insert(
            "trace.overhead",
            if wall > 0.0 {
                traced_wall / wall - 1.0
            } else {
                0.0
            },
        );
        println!(
            "per-layer metrics ({} traced and {n} untraced rounds):",
            traced.len()
        );
        for m in PER_LAYER {
            let v = layer.get(m.name).copied().unwrap_or(0.0);
            println!(
                "  {:<30} {:>14} {:<5} ({} is better)",
                m.name,
                metrics::num(v),
                m.unit,
                m.better
            );
            values.insert(m.name.to_string(), (v, m.unit));
        }
        println!("spans (count, total s, self s, median s):");
        let spans = on.spans();
        for (name, (count, total, own, median)) in trace::summary(&spans) {
            println!("  {name:<30} {count:>7} {total:>12.6} {own:>12.6} {median:>12.6}");
        }
        let dir = run_dir();
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| on.write(&path)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("could not write spans to {}: {e}", path.display()),
        }
    } else {
        let e2e = [
            ("setup_s", med(plain.iter().map(|r| r.setup_s)), n, "rounds"),
            ("wall_s", wall, n, "rounds"),
            (
                "lat_p50_ms",
                med(latencies.iter().copied()),
                latencies.len(),
                W::OP,
            ),
            ("peak_rss_mb", peak_rss_mb, 1, "first round"),
        ];
        println!("end-to-end metrics:");
        for (m, (name, v, count, what)) in END_TO_END.iter().zip(e2e) {
            debug_assert_eq!(m.name, name);
            println!(
                "  {}/{:<16} {:>14} {:<3} (n={count} {what}; {} is better)",
                args.workload,
                name,
                metrics::num(v),
                m.unit,
                m.better
            );
            values.insert(name.to_string(), (v, m.unit));
        }
        match stats::percentile(&latencies, 99.0) {
            Some(v) => println!(
                "  {}/lat_p99_ms       {:>14} ms  (n={})",
                args.workload,
                metrics::num(v),
                latencies.len()
            ),
            None => println!(
                "  {}/lat_p99_ms       not reported: {} {}s < 1000",
                args.workload,
                latencies.len(),
                W::OP
            ),
        }
        if let Some((p, v)) = stats::tail(&latencies) {
            println!(
                "  {}/lat_tail_ms      {:>14} ms  (p{p}, the highest with >=10 samples beyond)",
                args.workload,
                metrics::num(v)
            );
        }
        if let Some(first) = plain.first() {
            for (k, (name, _)) in first.parts.iter().enumerate() {
                let v = med(plain.iter().filter_map(|r| r.parts.get(k).map(|p| p.1)));
                println!(
                    "  {}/{name:<16} {:>14} s   (n={n} rounds)",
                    args.workload,
                    metrics::num(v)
                );
            }
        }
        let rate = if attempted > 0 {
            failed as f64 / attempted as f64
        } else {
            0.0
        };
        println!(
            "  {}/fail_rate        {:>14} ratio ({failed} of {attempted})",
            args.workload,
            metrics::num(rate)
        );
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &values)
    );
    i32::from(!correct)
}

/// Runs every workload in a fresh process of this binary and prints one
/// combined result line with `<workload>/<metric>` keys.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return 1;
        }
    };
    let mut values: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        println!("==== {w} ====");
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot start the {w} workload: {e}");
                return 1;
            }
        };
        let mut last = String::new();
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
        let status = child.wait();
        let doc = greencloud_api::json::Json::parse(&last).ok();
        let ok = status.is_ok_and(|s| s.success());
        let Some(doc) = doc else {
            println!("{last}");
            eprintln!("{w}: no result line");
            return 1;
        };
        correct &= ok && doc.get("correct").and_then(|c| c.as_bool()) == Some(true);
        attempted += doc.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += doc.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        for m in table {
            let v = doc
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            values.insert(format!("{w}/{}", m.name), (v, m.unit));
        }
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &values)
    );
    i32::from(!correct)
}

fn main() {
    sys::single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <siting|operate|serve|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "all" => run_all(&args),
        "siting" => drive(&mut siting::Siting::new(args.seed), &args),
        "operate" => drive(&mut operate::Operate::new(), &args),
        _ => match serve::Serve::new(args.seed) {
            Ok(mut w) => drive(&mut w, &args),
            Err(e) => {
                eprintln!("serve: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(counts: &[(&str, &str)]) -> Round {
        Round {
            counts: counts
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            ..Round::default()
        }
    }

    #[test]
    fn a_moved_work_count_is_named() {
        let first = counted(&[("lp_solves", "5"), ("iterations", "1589")]);
        assert_eq!(
            moved_count(
                &first,
                &counted(&[("lp_solves", "5"), ("iterations", "1589")])
            ),
            None
        );
        let moved = moved_count(
            &first,
            &counted(&[("lp_solves", "5"), ("iterations", "1590")]),
        )
        .expect("a moved count");
        assert!(moved.contains("iterations") && moved.contains("1589") && moved.contains("1590"));
        assert!(moved_count(&first, &counted(&[("lp_solves", "5")])).is_some());
    }
}
