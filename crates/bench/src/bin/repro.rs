//! `repro` — regenerates every table and figure of the paper's evaluation,
//! as a thin CLI over [`greencloud_api::Engine`].
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--locations N] [--fast] [--threads N]
//! repro all [--locations N] [--fast]
//! repro run <spec.json> [--json] [--timeout-ms N] [--world anchors|synthetic] [--locations N]
//! repro serve [--addr A] [--max-inflight N] [--queue-depth N] [--default-deadline-ms N]
//!             [--journal-path F | --no-persist] [--max-redeliveries N]
//! repro router --backends a:p,b:p[,...] [--addr A] [--vnodes N] [--probe-ms N] [--drain-ms N]
//! repro lint
//! ```
//!
//! Experiments: `tab1 fig3 fig4 fig5 fig6 tab2 fig7 fig8 fig9 fig10 fig11
//! fig12 fig13 tab3 fig15 annual timing quick`. Output is plain text shaped
//! like the paper's tables/series. `timing` also writes the LP timing
//! records and the full-budget search rows to `BENCH_lp.json`, whose
//! committed snapshots in `bench/trajectory/` form the LP perf curve.
//! `annual` goes beyond the paper — a year-long storage-aware
//! operational simulation plus a parallel scenario sweep — and, like
//! `quick` (the CI smoke, exits nonzero on failure), must be requested by
//! name: neither runs under `all`, which regenerates exactly the paper's
//! artifacts.
//!
//! `repro run spec.json` deserializes a [`greencloud_api::ExperimentSpec`]
//! (schema `greencloud-spec/1`) and runs it — exactly the same code path
//! as the named experiments, which are all expressed as specs themselves.
//! `--timeout-ms N` bounds the run with the engine's deadline machinery
//! (nonzero exit with the typed `deadline exceeded` message), and with
//! `--json` failures print the same `greencloud-error/1` body the serve
//! endpoints return.
//!
//! `repro serve` runs the overload-safe experiment service
//! ([`greencloud_api::serve`]) until SIGTERM/SIGINT, then drains
//! gracefully and exits 0 with the run's counters. Jobs submitted via
//! `POST /v1/jobs` are journaled to `repro-jobs.wal` (override with
//! `--journal-path`, disable with `--no-persist`) so acknowledged work
//! survives a crash: on restart the journal is replayed and unfinished
//! jobs re-run, at most `--max-redeliveries` times each.
//!
//! `repro router` fronts a fleet of `repro serve` backends with the
//! consistent-hash, streaming reverse proxy ([`greencloud_api::router`]):
//! identical specs route to the same backend (its report cache stays
//! hot), failed backends are failed over automatically, and chunked
//! progress streams relay without buffering. Same signal discipline as
//! `serve`: SIGTERM/SIGINT drains in-flight relays and exits 0.

use greencloud_api::report::{ReportBody, TimingRecord};
use greencloud_api::{
    AnnualSpec, Engine, ExperimentSpec, Report, RunCtx, SearchSpec, SitingSpec, SweepAxes,
    SweepMode, SweepSpec, TimingSpec,
};
use greencloud_bench::bench_json::write_bench_json;
use greencloud_bench::{repro_search, sweep_inputs, tech_label, world, REPRO_SEED};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_core::formulation::solve_single;
use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
use greencloud_cost::params::CostParams;
use greencloud_energy::capacity_factor::CapacityFactors;
use greencloud_energy::pue::PueModel;
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::scheduler::SchedulerConfig;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut spec_path: Option<String> = None;
    let mut locations = 0usize; // 0 = per-experiment default
    let mut fast = false;
    let mut threads = 0usize; // 0 = auto
    let mut as_json = false;
    let mut world_kind = String::from("anchors");
    let mut timeout_ms = 0u64; // 0 = no deadline
    let mut serve_cfg = greencloud_api::ServeConfig::default();
    let mut router_cfg = greencloud_api::RouterConfig::default();
    let mut journal_path: Option<String> = None;
    let mut no_persist = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--locations" => {
                i += 1;
                locations = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--world" => {
                i += 1;
                world_kind = args.get(i).cloned().unwrap_or_default();
            }
            "--timeout-ms" => {
                i += 1;
                timeout_ms = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--addr" => {
                i += 1;
                if let Some(a) = args.get(i) {
                    serve_cfg.addr = a.clone();
                    router_cfg.addr = a.clone();
                }
            }
            "--backends" => {
                i += 1;
                router_cfg.backends = args
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .map(str::trim)
                            .filter(|b| !b.is_empty())
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
            }
            "--vnodes" => {
                i += 1;
                router_cfg.virtual_nodes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(router_cfg.virtual_nodes);
            }
            "--probe-ms" => {
                i += 1;
                router_cfg.probe_interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(router_cfg.probe_interval_ms);
            }
            "--max-inflight" => {
                i += 1;
                serve_cfg.max_inflight = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_cfg.max_inflight);
            }
            "--queue-depth" => {
                i += 1;
                serve_cfg.queue_depth = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_cfg.queue_depth);
            }
            "--default-deadline-ms" => {
                i += 1;
                serve_cfg.default_deadline_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_cfg.default_deadline_ms);
            }
            "--drain-ms" => {
                i += 1;
                if let Some(ms) = args.get(i).and_then(|s| s.parse().ok()) {
                    serve_cfg.drain_ms = ms;
                    router_cfg.drain_ms = ms;
                }
            }
            "--cache-capacity" => {
                i += 1;
                serve_cfg.cache_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_cfg.cache_capacity);
            }
            "--journal-path" => {
                i += 1;
                journal_path = args.get(i).cloned();
            }
            "--no-persist" => no_persist = true,
            "--max-redeliveries" => {
                i += 1;
                serve_cfg.max_redeliveries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(serve_cfg.max_redeliveries);
            }
            "--fast" => fast = true,
            "--json" => as_json = true,
            "--quick" => experiment = "quick".to_string(),
            other if !other.starts_with("--") => {
                if experiment == "run" && spec_path.is_none() {
                    spec_path = Some(other.to_string());
                } else {
                    experiment = other.to_string();
                }
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
        i += 1;
    }

    if experiment == "lint" {
        std::process::exit(run_lint());
    }

    if experiment == "serve" {
        // Durable by default: the journal's whole point is surviving an
        // unplanned restart, so opting *out* is the explicit flag.
        serve_cfg.journal_path = if no_persist {
            None
        } else {
            journal_path.or_else(|| Some("repro-jobs.wal".to_string()))
        };
        std::process::exit(run_serve(serve_cfg, &world_kind, locations, threads));
    }

    if experiment == "router" {
        std::process::exit(run_router(router_cfg));
    }

    if experiment == "run" {
        let Some(path) = spec_path else {
            eprintln!(
                "usage: repro run <spec.json> [--json] [--timeout-ms N] \
                 [--world anchors|synthetic]"
            );
            std::process::exit(2);
        };
        if !run_spec_file(&path, &world_kind, locations, threads, as_json, timeout_ms) {
            std::process::exit(1);
        }
        return;
    }

    let ctx = Ctx { fast, threads };
    let run = |name: &str| experiment == "all" || experiment == name;
    let mut ran = false;
    if run("tab1") {
        tab1();
        ran = true;
    }
    if run("fig3") {
        fig3(pick(locations, 1373));
        ran = true;
    }
    if run("fig4") {
        fig4();
        ran = true;
    }
    if run("fig5") {
        fig5(pick(locations, 400));
        ran = true;
    }
    if run("fig6") {
        fig6(&ctx, pick(locations, if fast { 200 } else { 1373 }));
        ran = true;
    }
    if run("tab2") {
        tab2();
        ran = true;
    }
    if run("fig7") {
        fig7(&ctx, pick(locations, 150));
        ran = true;
    }
    if run("fig8") || run("fig11") {
        sweep_fig(
            &ctx,
            "fig8/fig11 (net metering)",
            StorageMode::NetMetering,
            pick(locations, 150),
        );
        ran = true;
    }
    if run("fig9") {
        sweep_fig(
            &ctx,
            "fig9 (batteries)",
            StorageMode::Batteries,
            pick(locations, 150),
        );
        ran = true;
    }
    if run("fig10") || run("fig12") {
        sweep_fig(
            &ctx,
            "fig10/fig12 (no storage)",
            StorageMode::None,
            pick(locations, 150),
        );
        ran = true;
    }
    if run("fig13") {
        fig13(&ctx, pick(locations, 150));
        ran = true;
    }
    if run("tab3") {
        tab3(&ctx, pick(locations, 150));
        ran = true;
    }
    if run("fig15") {
        fig15(&ctx);
        ran = true;
    }
    if experiment == "annual" {
        annual(&ctx);
        ran = true;
    }
    if run("timing") {
        timing(&ctx);
        ran = true;
    }
    if experiment == "quick" {
        if !quick(&ctx) {
            std::process::exit(1);
        }
        ran = true;
    }
    if !ran {
        eprintln!("unknown experiment '{experiment}'");
        std::process::exit(2);
    }
}

/// CLI-wide context: fast mode and the engine thread knob.
struct Ctx {
    fast: bool,
    threads: usize,
}

impl Ctx {
    /// An engine over `n` synthetic locations.
    fn synthetic_engine(&self, n: usize) -> Engine {
        Engine::new(world(n)).with_threads(self.threads)
    }

    /// An engine over the paper's anchor locations.
    fn anchors_engine(&self) -> Engine {
        Engine::new(WorldCatalog::anchors_only(REPRO_SEED)).with_threads(self.threads)
    }

    /// A heuristic siting spec with the standard reproduction search.
    fn siting(&self, input: PlacementInput) -> ExperimentSpec {
        ExperimentSpec::Siting(SitingSpec {
            input,
            search: repro_search(self.fast),
        })
    }
}

fn pick(cli: usize, default: usize) -> usize {
    if cli == 0 {
        default
    } else {
        cli
    }
}

fn header(title: &str) {
    println!("\n==== {title} ====");
}

/// `repro lint` — the gclint static-analysis pass over the workspace
/// (determinism, panic-freedom, float-safety; see `cargo run -p gclint --
/// --help` for the rule catalog). Returns the process exit code.
fn run_lint() -> i32 {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let Some(root) = gclint::find_workspace_root(&cwd) else {
        eprintln!("repro lint: no workspace root above {}", cwd.display());
        return 2;
    };
    match gclint::lint_workspace(&root) {
        Ok(report) => {
            print!("{}", report.render());
            i32::from(!report.is_clean())
        }
        Err(e) => {
            eprintln!("repro lint: {e}");
            2
        }
    }
}

/// Loads, runs, and prints one serialized spec. Returns `false` on any
/// failure.
fn run_spec_file(
    path: &str,
    world_kind: &str,
    locations: usize,
    threads: usize,
    as_json: bool,
    timeout_ms: u64,
) -> bool {
    // Failures funnel through one typed ApiError so `--json` can emit the
    // same `greencloud-error/1` body the serve endpoints return.
    let result = (|| -> Result<(ExperimentSpec, Report), greencloud_api::ApiError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| greencloud_api::ApiError::Io(format!("cannot read {path}: {e}")))?;
        let spec = ExperimentSpec::from_json_str(&text)?;
        let catalog = match world_kind {
            "anchors" => WorldCatalog::anchors_only(REPRO_SEED),
            "synthetic" => world(pick(locations, 150)),
            other => {
                return Err(greencloud_api::ApiError::Io(format!(
                    "unknown world {other:?} (use anchors or synthetic)"
                )))
            }
        };
        let engine = Engine::new(catalog).with_threads(threads);
        let ctx = RunCtx {
            deadline: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
            ..RunCtx::default()
        };
        let report = engine.run_with(&spec, ctx)?;
        Ok((spec, report))
    })();
    match result {
        Ok((spec, report)) => {
            if as_json {
                print!("{}", report.to_json_string());
            } else {
                header(&format!("{} ({path})", spec.kind()));
                print!("{}", report.render_text());
            }
            true
        }
        Err(e) => {
            if as_json {
                print!("{}", e.to_error_json());
            }
            eprintln!("experiment failed: {e}");
            false
        }
    }
}

/// POSIX signal bridge for `repro serve`: a raw `signal(2)` declaration
/// (the workspace vendors no libc crate) installing a handler that flips
/// one atomic, polled by a shutdown thread. Applies to this binary only —
/// the library keeps `#![forbid(unsafe_code)]`.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the handler on SIGTERM/SIGINT.
    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    // SAFETY: `signal` is the POSIX libc function with this exact C
    // signature; declaring it does not call it.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        let h = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: libc `signal` with a valid signal number and a handler
        // that only performs an async-signal-safe atomic store.
        unsafe {
            signal(2, h);
            signal(15, h);
        }
    }

    /// True once a termination signal arrived.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal bridge off unix; `repro serve` runs until killed.
    pub fn install() {}
    pub fn triggered() -> bool {
        false
    }
}

/// `repro serve` — binds the overload-safe experiment service and blocks
/// until SIGTERM/SIGINT, then drains gracefully. Returns the process exit
/// code (0 on a clean drain).
fn run_serve(
    cfg: greencloud_api::ServeConfig,
    world_kind: &str,
    locations: usize,
    threads: usize,
) -> i32 {
    let catalog = match world_kind {
        "anchors" => WorldCatalog::anchors_only(REPRO_SEED),
        "synthetic" => world(pick(locations, 150)),
        other => {
            eprintln!("unknown world {other:?} (use anchors or synthetic)");
            return 2;
        }
    };
    let engine = Engine::new(catalog).with_threads(threads);
    let server = match greencloud_api::Server::bind(engine, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro serve: bind failed: {e}");
            return 1;
        }
    };
    println!("repro serve: listening on http://{}", server.local_addr());
    sig::install();
    let handle = server.handle();
    let poller = std::thread::spawn(move || loop {
        if sig::triggered() {
            handle.trigger_shutdown();
            return;
        }
        if handle.is_draining() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let summary = server.join();
    let _ = poller.join();
    println!("repro serve: drained cleanly");
    print!("{}", summary.render_text());
    0
}

/// `repro router` — binds the sharding front-end over `--backends` and
/// blocks until SIGTERM/SIGINT, then drains in-flight relays. Returns the
/// process exit code (0 on a clean drain).
fn run_router(cfg: greencloud_api::RouterConfig) -> i32 {
    if cfg.backends.is_empty() {
        eprintln!("usage: repro router --backends host:port[,host:port...] [--addr A]");
        return 2;
    }
    let router = match greencloud_api::Router::bind(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro router: bind failed: {e}");
            return 1;
        }
    };
    println!("repro router: listening on http://{}", router.local_addr());
    sig::install();
    let handle = router.handle();
    let poller = std::thread::spawn(move || loop {
        if sig::triggered() {
            handle.trigger_shutdown();
            return;
        }
        if handle.is_draining() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let summary = router.join();
    let _ = poller.join();
    println!("repro router: drained cleanly");
    print!("{}", summary.render_text());
    0
}

/// Writes the timing records to `path` and checks that what actually
/// landed on disk parses back into the same rows; returns `false` on any
/// failure. A run with `snapshot` unset (a reduced run) writes to a scratch
/// file instead and removes it after the check, leaving the committed
/// `BENCH_lp.json` alone.
fn write_bench_lp_json(records: &[TimingRecord], snapshot: bool) -> bool {
    let path = if snapshot {
        PathBuf::from("BENCH_lp.json")
    } else {
        std::env::temp_dir().join(format!("BENCH_lp.{}.json", std::process::id()))
    };
    let written = write_bench_json(&path, records);
    if !snapshot {
        let _ = std::fs::remove_file(&path);
    }
    match written {
        Ok(()) => {
            println!(
                "{}: {} records written and validated",
                path.display(),
                records.len()
            );
            true
        }
        Err(e) => {
            println!("{} FAILED: {e}", path.display());
            false
        }
    }
}

/// The timing records of a report (none for other report kinds).
fn timing_records(report: &Report) -> &[TimingRecord] {
    match &report.body {
        ReportBody::Timing(t) => &t.records,
        _ => &[],
    }
}

/// Table I: the instantiated framework defaults.
fn tab1() {
    header("Table I — framework parameter defaults");
    let p = CostParams::default();
    println!("interest rate                {:>10.4}", p.interest_rate);
    println!("areaDC        [m2/kW]        {:>10.3}", p.area_dc_m2_per_kw);
    println!(
        "areaSolar     [m2/kW]        {:>10.2}",
        p.area_solar_m2_per_kw
    );
    println!(
        "areaWind      [m2/kW]        {:>10.2}",
        p.area_wind_m2_per_kw
    );
    println!(
        "priceBuildDC  [$/W]          {:>6}(small) / {}(large)",
        p.price_build_dc_small_per_w, p.price_build_dc_large_per_w
    );
    println!(
        "priceBuildSolar [$/W]        {:>10.2}",
        p.price_build_solar_per_w
    );
    println!(
        "priceBuildWind  [$/W]        {:>10.2}",
        p.price_build_wind_per_w
    );
    println!("priceServer   [$]            {:>10.0}", p.price_server);
    println!("serverPower   [W]            {:>10.0}", p.server_power_w);
    println!("priceSwitch   [$]            {:>10.0}", p.price_switch);
    println!("switchPower   [W]            {:>10.0}", p.switch_power_w);
    println!(
        "serversSwitch                {:>10.0}",
        p.servers_per_switch
    );
    println!(
        "priceBatt     [$/kWh]        {:>10.0}",
        p.price_batt_per_kwh
    );
    println!("battEff                      {:>10.2}", p.batt_efficiency);
    println!(
        "priceBWServer [$/serv-month] {:>10.2}",
        p.price_bw_per_server_month
    );
    println!(
        "costLineNet   [$/km]         {:>10.0}",
        p.cost_line_net_per_km
    );
    println!(
        "costLinePow   [$/km]         {:>10.0}",
        p.cost_line_pow_per_km
    );
    println!("creditNetMeter               {:>10.2}", p.credit_net_meter);
}

/// Fig. 3: cumulative capacity factors across the world.
fn fig3(n: usize) {
    header(&format!("Fig. 3 — capacity-factor CDF over {n} locations"));
    let w = world(n);
    let mut solar = Vec::with_capacity(n);
    let mut wind = Vec::with_capacity(n);
    for loc in w.iter() {
        let cf = CapacityFactors::with_default_models(&w.tmy(loc.id));
        solar.push(cf.solar);
        wind.push(cf.wind);
    }
    solar.sort_by(|a, b| a.partial_cmp(b).unwrap());
    wind.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{:>12} {:>12} {:>12}",
        "percentile", "solar CF %", "wind CF %"
    );
    for pct in [5, 25, 50, 75, 90, 95, 99, 100] {
        let idx = ((pct as f64 / 100.0 * n as f64) as usize).clamp(1, n) - 1;
        println!(
            "{:>11}% {:>12.1} {:>12.1}",
            pct,
            solar[idx] * 100.0,
            wind[idx] * 100.0
        );
    }
    println!("(paper: most locations solar 10–25%; wind long tail to ~56%)");
}

/// Fig. 4: PUE vs outside temperature.
fn fig4() {
    header("Fig. 4 — PUE vs outside temperature");
    let m = PueModel::new();
    println!("{:>8} {:>8}", "temp C", "PUE");
    for t in (10..=45).step_by(5) {
        println!("{:>8} {:>8.3}", t, m.pue(t as f64));
    }
}

/// Fig. 5: PUE vs capacity factor.
fn fig5(n: usize) {
    header(&format!(
        "Fig. 5 — mean PUE vs capacity factor ({n} locations)"
    ));
    let w = world(n);
    let mut rows: Vec<(f64, f64, f64)> = Vec::new();
    for loc in w.iter() {
        let cf = CapacityFactors::with_default_models(&w.tmy(loc.id));
        rows.push((cf.solar, cf.wind, cf.mean_pue));
    }
    let bins = [(0.0, 0.10), (0.10, 0.20), (0.20, 0.30), (0.30, 0.60)];
    println!(
        "{:>14} {:>14} {:>14}",
        "CF bin", "PUE | solar", "PUE | wind"
    );
    for (lo, hi) in bins {
        let mean = |sel: &dyn Fn(&(f64, f64, f64)) -> f64| -> String {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| sel(r) >= lo && sel(r) < hi)
                .map(|r| r.2)
                .collect();
            if v.is_empty() {
                "-".into()
            } else {
                format!("{:.3}", v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        println!(
            "{:>6.0}-{:<3.0}% {:>14} {:>14}",
            lo * 100.0,
            hi * 100.0,
            mean(&|r: &(f64, f64, f64)| r.0),
            mean(&|r: &(f64, f64, f64)| r.1)
        );
    }
    println!("(paper: the windiest sites run coolest; sunny sites run warmer)");
}

/// Fig. 6: single 25 MW datacenter cost CDF (per-location solves through
/// the engine's cached candidate set).
fn fig6(ctx: &Ctx, n: usize) {
    header(&format!(
        "Fig. 6 — 25 MW single-DC monthly cost CDF ({n} locations, net metering)"
    ));
    let engine = ctx.synthetic_engine(n);
    let candidates = engine.candidates(&repro_search(true).profile);
    let configs: [(&str, PlacementInput); 3] = [
        (
            "brown",
            PlacementInput::default().with_green(0.0, TechMix::BrownOnly),
        ),
        (
            "solar 50%",
            PlacementInput::default().with_green(0.5, TechMix::SolarOnly),
        ),
        (
            "wind 50%",
            PlacementInput::default().with_green(0.5, TechMix::WindOnly),
        ),
    ];
    let mut table: Vec<Vec<f64>> = Vec::new();
    for (_, input) in &configs {
        let mut costs = Vec::new();
        for site in candidates.iter() {
            if let Ok(d) = solve_single(engine.params(), site, 25.0, input) {
                costs.push(d.monthly_cost / 1e6);
            }
        }
        costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        table.push(costs);
    }
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "percentile", "brown $M", "solar50 $M", "wind50 $M"
    );
    for pct in [10, 25, 50, 75, 80, 90] {
        print!("{pct:>11}%");
        for costs in &table {
            let idx =
                ((pct as f64 / 100.0 * costs.len() as f64) as usize).clamp(1, costs.len()) - 1;
            print!(" {:>12.1}", costs[idx]);
        }
        println!();
    }
    println!(
        "feasible locations: brown {} solar {} wind {}",
        table[0].len(),
        table[1].len(),
        table[2].len()
    );
    println!("(paper at 80%: brown 8.7–12.8, wind 9.1–16, solar 10.9–23.3 $M/month)");
}

/// Table II: the anchor locations.
fn tab2() {
    header("Table II — anchor locations");
    let w = WorldCatalog::anchors_only(REPRO_SEED);
    println!(
        "{:<30} {:>9} {:>9} {:>8} {:>10} {:>9} {:>8} {:>8}",
        "location", "solarCF%", "windCF%", "maxPUE", "elec$/MWh", "land$/m2", "dPow km", "dNet km"
    );
    for loc in w.iter() {
        let cf = CapacityFactors::with_default_models(&w.tmy(loc.id));
        println!(
            "{:<30} {:>9.1} {:>9.1} {:>8.2} {:>10.0} {:>9.1} {:>8.0} {:>8.0}",
            loc.name,
            cf.solar * 100.0,
            cf.wind * 100.0,
            cf.max_pue,
            loc.econ.elec_usd_per_kwh * 1000.0,
            loc.econ.land_usd_per_m2,
            loc.econ.dist_power_km,
            loc.econ.dist_network_km
        );
    }
}

/// Fig. 7: the 50 MW / 50% green case study cost breakdown. The green and
/// brown sitings run concurrently through the engine.
fn fig7(ctx: &Ctx, n: usize) {
    header("Fig. 7 — case study: 50 MW, 50% green, net metering");
    let engine = ctx.synthetic_engine(n);
    let specs = fig7_inputs().map(|input| ctx.siting(input));
    let mut results = engine.run_all(&specs).into_iter();
    let green = results.next().expect("green report");
    let brown = results.next().expect("brown report");
    match green {
        Ok(report) => {
            print!("{}", report.render_text());
            if let ReportBody::Siting(s) = &report.body {
                println!(
                    "{:<28} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    "site", "buildDC", "IT", "land", "plants", "batt", "lines", "bw", "energy"
                );
                for dc in &s.sites {
                    let b = &dc.breakdown;
                    println!(
                        "{:<28} {:>9.2} {:>9.2} {:>7.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                        dc.name,
                        b.building_dc / 1e6,
                        b.it_equipment / 1e6,
                        b.land / 1e6,
                        b.plants / 1e6,
                        b.batteries / 1e6,
                        b.connections / 1e6,
                        b.bandwidth / 1e6,
                        b.energy / 1e6
                    );
                }
                // The paper's headline: +13% over the best brown network.
                if let Ok(brown) = brown {
                    if let ReportBody::Siting(bs) = &brown.body {
                        println!(
                            "green ${:.2}M vs brown ${:.2}M → {:+.1}% (paper: +13%)",
                            s.monthly_cost_usd / 1e6,
                            bs.monthly_cost_usd / 1e6,
                            (s.monthly_cost_usd / bs.monthly_cost_usd - 1.0) * 100.0
                        );
                    }
                }
            }
        }
        Err(e) => println!("case study failed: {e}"),
    }
}

/// Figs. 8–12: cost and provisioned capacity vs green fraction. All 15
/// sitings of a panel run concurrently on the engine's shared candidates.
fn sweep_fig(ctx: &Ctx, title: &str, storage: StorageMode, n: usize) {
    header(&format!("{title} — 50 MW network sweeps"));
    let engine = ctx.synthetic_engine(n);
    let inputs = sweep_inputs(storage);
    let specs: Vec<ExperimentSpec> = inputs
        .iter()
        .map(|(_, _, input)| ctx.siting(input.clone()))
        .collect();
    let results = engine.run_all(&specs);
    println!(
        "{:>7} {:>12} {:>14} {:>14} {:>10}",
        "green%", "tech", "cost $M/mo", "capacity MW", "sites"
    );
    for ((g, tech, _), result) in inputs.iter().zip(results) {
        match result {
            Ok(report) => {
                if let ReportBody::Siting(s) = &report.body {
                    println!(
                        "{:>6.0}% {:>12} {:>14.2} {:>14.1} {:>10}",
                        g * 100.0,
                        tech_label(*tech),
                        s.monthly_cost_usd / 1e6,
                        s.total_capacity_mw,
                        s.sites.len()
                    );
                }
            }
            Err(e) => println!(
                "{:>6.0}% {:>12} {:>14} {:>14} {:>10}",
                g * 100.0,
                tech_label(*tech),
                format!("{e}"),
                "-",
                "-"
            ),
        }
    }
}

/// Fig. 13: migration overhead sweep at 100% green without storage.
fn fig13(ctx: &Ctx, n: usize) {
    header("Fig. 13 — migration fraction sweep (100% green, no storage)");
    let engine = ctx.synthetic_engine(n);
    let mut cases = Vec::new();
    for &theta in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        for &tech in &[TechMix::WindOnly, TechMix::SolarOnly, TechMix::Both] {
            let input = PlacementInput {
                storage: StorageMode::None,
                migration_fraction: theta,
                ..PlacementInput::default()
            }
            .with_green(1.0, tech);
            cases.push((theta, tech, input));
        }
    }
    let specs: Vec<ExperimentSpec> = cases
        .iter()
        .map(|(_, _, input)| ctx.siting(input.clone()))
        .collect();
    let results = engine.run_all(&specs);
    println!(
        "{:>12} {:>12} {:>14} {:>8}",
        "migration%", "tech", "cost $M/mo", "sites"
    );
    for ((theta, tech, _), result) in cases.iter().zip(results) {
        match result {
            Ok(report) => {
                if let ReportBody::Siting(s) = &report.body {
                    println!(
                        "{:>11.0}% {:>12} {:>14.2} {:>8}",
                        theta * 100.0,
                        tech_label(*tech),
                        s.monthly_cost_usd / 1e6,
                        s.sites.len()
                    );
                }
            }
            Err(e) => println!(
                "{:>11.0}% {:>12} {:>14} {:>8}",
                theta * 100.0,
                tech_label(*tech),
                format!("{e}"),
                "-"
            ),
        }
    }
}

/// Table III: the 100% green / no-storage network.
fn tab3(ctx: &Ctx, n: usize) {
    header("Table III — 100% green without storage");
    let engine = ctx.synthetic_engine(n);
    match engine.run(&ctx.siting(tab3_input())) {
        Ok(report) => {
            print!("{}", report.render_text());
            println!("(paper: 3 sites × 50 MW IT, ~1.1 GW of solar total)");
        }
        Err(e) => println!("failed: {e}"),
    }
}

/// Fig. 7's two requests: the default 50 MW network at 50% green with net
/// metering, and the same network all brown.
fn fig7_inputs() -> [PlacementInput; 2] {
    let green = PlacementInput::default();
    let brown = green.clone().with_green(0.0, TechMix::BrownOnly);
    [green, brown]
}

/// Table III's request: 100% green from wind and solar, no storage.
fn tab3_input() -> PlacementInput {
    PlacementInput {
        storage: StorageMode::None,
        ..PlacementInput::default()
    }
    .with_green(1.0, TechMix::Both)
}

/// Fig. 15: the follow-the-renewables day, with the hourly trace.
fn fig15(ctx: &Ctx) {
    header("Fig. 15 — follow-the-renewables day (Table III network)");
    let engine = ctx.anchors_engine();
    let cfg = EmulationConfig {
        vm_count: if ctx.fast { 100 } else { 200 },
        ..EmulationConfig::default()
    };
    let names: Vec<String> = cfg.sites.iter().map(|s| s.location_name.clone()).collect();
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config: cfg,
        include_trace: true,
    });
    match engine.run(&spec) {
        Ok(report) => {
            if let ReportBody::Annual(a) = &report.body {
                println!(
                    "{:>5} {:<26} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    "hour", "site", "green MW", "load MW", "pueOv MW", "mig MW", "brown MW"
                );
                for row in &a.trace {
                    println!(
                        "{:>5} {:<26} {:>9.1} {:>9.1} {:>9.2} {:>9.2} {:>9.2}",
                        row.hour,
                        names[row.dc],
                        row.green_available_mw,
                        row.load_mw,
                        row.pue_overhead_mw,
                        row.migration_mw,
                        row.brown_mw
                    );
                }
                println!(
                    "day summary: green fraction {:.1}%, {} migrations, {:.1} GB shipped, mean migration {:.2} h, {} blocks re-replicated",
                    a.green_fraction * 100.0,
                    a.migrations,
                    a.migrated_gb,
                    a.mean_migration_hours,
                    a.rereplicated_blocks
                );
            }
        }
        Err(e) => println!("emulation failed: {e}"),
    }
}

/// Beyond the paper: a 365-day storage-aware operational simulation, a
/// parallel scenario sweep, and the warm-vs-cold re-solve ratio — three
/// specs against one engine.
fn annual(ctx: &Ctx) {
    header("Annual — year-long follow-the-renewables with storage");
    let engine = ctx.anchors_engine();

    let year = EmulationConfig {
        vm_count: if ctx.fast { 60 } else { 200 },
        hours: 8760,
        start_hour: 0,
        net_meter_credit: Some(1.0),
        ..EmulationConfig::default()
    }
    .with_batteries(50_000.0);
    match engine.run(&ExperimentSpec::Annual(AnnualSpec {
        config: year,
        include_trace: false,
    })) {
        Ok(report) => print!("{}", report.render_text()),
        Err(e) => println!("annual emulation failed: {e}"),
    }

    // Scenario sweep: season × storage × net metering × forecast quality ×
    // WAN, one change at a time around a summer baseline.
    let base = EmulationConfig {
        vm_count: 60,
        hours: if ctx.fast { 7 * 24 } else { 28 * 24 },
        start_hour: 170 * 24,
        ..EmulationConfig::default()
    };
    let sweep = ExperimentSpec::Sweep(SweepSpec {
        base,
        axes: SweepAxes {
            start_hour: vec![352 * 24],
            battery_kwh: vec![50_000.0],
            net_meter_credit: vec![Some(1.0)],
            forecast_sigma: vec![0.3],
            wan_mbps: vec![100.0],
        },
        mode: SweepMode::OneAtATime,
        seed: REPRO_SEED,
    });
    match engine.run(&sweep) {
        Ok(report) => print!("{}", report.render_text()),
        Err(e) => println!("scenario sweep failed: {e}"),
    }

    // Warm-vs-cold hourly re-solve ratio (`repro timing` records the same
    // quantity in `BENCH_lp.json`'s `hourly_resolve_*` rows).
    let timing = ExperimentSpec::Timing(TimingSpec {
        fast: ctx.fast,
        schedule_timing: false,
        lp_records: false,
        warm_cold_rounds: if ctx.fast { 48 } else { 96 },
    });
    match engine.run(&timing) {
        Ok(report) => print!("{}", report.render_text()),
        Err(e) => println!("warm-vs-cold measurement failed: {e}"),
    }
}

/// CI smoke: a short storage-aware emulation, a tiny siting solve, and the
/// bench-file round-trip, through a scratch file — all through the engine. Prints what it ran
/// and returns `false` on any failure.
fn quick(ctx: &Ctx) -> bool {
    header("quick — CI smoke (operational + siting)");
    let mut ok = true;
    let anchors = ctx.anchors_engine();
    let cfg = EmulationConfig {
        vm_count: 24,
        hours: 24,
        net_meter_credit: Some(1.0),
        scheduler: SchedulerConfig {
            window_hours: 12,
            ..SchedulerConfig::default()
        },
        ..EmulationConfig::default()
    }
    .with_batteries(10_000.0);
    // The emulation and the reduced LP bench suite run concurrently.
    let specs = [
        ExperimentSpec::Annual(AnnualSpec {
            config: cfg,
            include_trace: false,
        }),
        ExperimentSpec::Timing(TimingSpec {
            fast: true,
            schedule_timing: false,
            lp_records: true,
            warm_cold_rounds: 0,
        }),
    ];
    let mut results = anchors.run_all(&specs).into_iter();
    match results.next().expect("annual result") {
        Ok(report) => {
            if let ReportBody::Annual(a) = &report.body {
                let load_ok = a.trace_rows == 24 * 3 && a.green_fraction > 0.5;
                println!(
                    "emulation: green {:.1}%, {} migrations, warm rate {:.0}% → {}",
                    a.green_fraction * 100.0,
                    a.migrations,
                    a.solver.warm_rate * 100.0,
                    if load_ok { "ok" } else { "SUSPICIOUS" }
                );
                ok &= load_ok;
            }
        }
        Err(e) => {
            println!("emulation FAILED: {e}");
            ok = false;
        }
    }
    // The machine-readable bench artifact must round-trip: emit a reduced
    // run of the LP suite and re-parse what lands on disk.
    match results.next().expect("timing result") {
        Ok(report) => ok &= write_bench_lp_json(timing_records(&report), false),
        Err(e) => {
            println!("LP bench suite FAILED: {e}");
            ok = false;
        }
    }
    let sites = ctx.synthetic_engine(40);
    match sites.run(&ctx.siting(PlacementInput::default())) {
        Ok(report) => {
            if let ReportBody::Siting(s) = &report.body {
                println!(
                    "siting: {} sites, ${:.2}M/month → ok",
                    s.sites.len(),
                    s.monthly_cost_usd / 1e6
                );
            }
        }
        Err(e) => {
            println!("siting FAILED: {e}");
            ok = false;
        }
    }
    ok
}

/// §V-C: schedule computation times, plus the LP-substrate benchmark suite
/// and, unless `--fast`, the full-budget search rows (all written to
/// `BENCH_lp.json` for cross-PR tracking; `--fast` checks its reduced rows'
/// round-trip through a scratch file instead).
fn timing(ctx: &Ctx) {
    header("§V-C — schedule computation time");
    let engine = ctx.anchors_engine();
    let spec = ExperimentSpec::Timing(TimingSpec {
        fast: ctx.fast,
        schedule_timing: true,
        lp_records: true,
        warm_cold_rounds: 0,
    });
    match engine.run(&spec) {
        Ok(report) => {
            print!("{}", report.render_text());
            let mut records = timing_records(&report).to_vec();
            if !ctx.fast {
                records.extend(search_records());
            }
            write_bench_lp_json(&records, !ctx.fast);
        }
        Err(e) => println!("timing failed: {e}"),
    }
}

/// The exact work curve of the siting search: Fig. 7 green, Fig. 7 brown
/// and Table III at the full reproduction budget on `world(150)`, each
/// one chain on a 1-thread engine. Any chain count gives exact counts; one
/// chain keeps the rows comparable with the snapshots in
/// `bench/trajectory/`. Each row holds the search's wall time, simplex
/// iterations and warm-start rate; a search that fails is reported and
/// left out.
fn search_records() -> Vec<TimingRecord> {
    let engine = Engine::new(world(150)).with_threads(1);
    let search = SearchSpec {
        chains: 1,
        ..repro_search(false)
    };
    let [green, brown] = fig7_inputs();
    let cases = [
        ("search_1chain/fig7_green", green),
        ("search_1chain/fig7_brown", brown),
        ("search_1chain/tab3", tab3_input()),
    ];
    let mut records = Vec::new();
    for (name, input) in cases {
        let spec = ExperimentSpec::Siting(SitingSpec {
            input,
            search: search.clone(),
        });
        let report = match engine.run(&spec) {
            Ok(report) => report,
            Err(e) => {
                println!("{name} failed: {e}");
                continue;
            }
        };
        let ReportBody::Siting(s) = &report.body else {
            continue; // a siting spec always reports a siting
        };
        let Some(solver) = s.solver else {
            continue; // a heuristic search always reports its solver
        };
        let record = TimingRecord {
            name: name.to_string(),
            wall_ms: report.wall_ms,
            iterations: solver.iterations,
            warm_rate: solver.warm_rate,
        };
        println!(
            "{:<34} {:>9.1} ms  {:>7} iters  warm {:>4.0}%  ${:.2}M",
            record.name,
            record.wall_ms,
            record.iterations,
            record.warm_rate * 100.0,
            s.monthly_cost_usd / 1e6
        );
        records.push(record);
    }
    records
}
