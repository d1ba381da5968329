//! `serve`: the experiment service under an open-loop request schedule.
//!
//! A round starts an in-process `Server` (one solver worker, journal in
//! the run directory) with an in-process `Router` in front of it, warms the
//! report cache, then replays a schedule of [`REQUESTS`] arrivals spread
//! over [`PASS_S`] seconds. Arrivals come from `--seed`; four classes come
//! in fixed shares:
//!
//! * `hit` — a repeated spec, answered from the report cache;
//! * `miss` — a unique short annual spec the worker solves;
//! * `job` — a unique spec sent to `POST /v1/jobs`, acknowledged after the
//!   journal's fsync and polled to completion after the schedule;
//! * `relay` — a `hit` spec sent through the router.
//!
//! Two client threads send: one over a keep-alive connection to the
//! server, one over a keep-alive connection to the router. A request that
//! falls due while its connection is busy waits, and its latency counts
//! from its due time.

use crate::trace::{SpanId, Tracer};
use crate::{Finish, Round, Workload};
use greencloud_api::harness::REPRO_SEED;
use greencloud_api::json::Json;
use greencloud_api::{
    Engine, ExperimentSpec, Router, RouterConfig, ServeConfig, Server, REPORT_SCHEMA,
};
use greencloud_climate::catalog::WorldCatalog;
use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Arrivals per second: far below what one worker and two cores sustain.
const RATE: f64 = 100.0;
/// Seconds of schedule per round.
const PASS_S: f64 = 5.0;
const REQUESTS: usize = (RATE * PASS_S) as usize;
/// Requests per class in one round, in `Class` order.
const SHARES: [usize; 4] = [400, 30, 20, 50];
/// Distinct repeated specs behind the `hit` and `relay` classes.
const HIT_SPECS: usize = 4;
/// Client threads, each with one connection.
const CLIENTS: usize = 2;
/// Served reports compared with an out-of-server run per round.
const SAMPLE: usize = 8;
/// The short annual spec every request varies by its start hour.
const QUICK_SPEC: &str = include_str!("../../examples/quick.spec.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Job,
    Relay,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hit, Class::Miss, Class::Job, Class::Relay];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Job => "job",
            Class::Relay => "relay",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Hit => "api.serve.hit",
            Class::Miss => "api.serve.miss",
            Class::Job => "api.store.ack",
            Class::Relay => "api.router.relay",
        }
    }
}

/// One scheduled request.
struct Req {
    due: Duration,
    class: Class,
    /// Index into `Serve::specs`.
    spec: usize,
}

/// A request as the client saw it.
#[derive(Debug)]
struct Sample {
    req: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    outcome: Result<Resp, String>,
}

impl Sample {
    /// Latency from the moment the request fell due.
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

pub struct Serve {
    /// Spec bodies: the hit specs first, then one per miss and per job.
    specs: Vec<String>,
    schedule: Vec<Req>,
    /// Normalized reference reports by spec index.
    references: HashMap<usize, Result<String, String>>,
    reference_engine: Engine,
    sample: Vec<usize>,
    /// Generator lateness over every round, ms.
    late_ms: Vec<f64>,
    /// `/v1/stats` differences of the latest traced round.
    stats: Option<StatsDelta>,
    /// Output checks over every round: `(what, passed, checked)`.
    tallies: [(&'static str, u64, u64); 3],
}

const BODIES: usize = 0;
const JOBS: usize = 1;
const SAMPLES: usize = 2;

#[derive(Clone, Copy, Default)]
struct StatsDelta {
    received: f64,
    cache_hits: f64,
    shed: f64,
    journal_bytes: f64,
}

/// SplitMix64: a small seeded generator, so inputs depend only on `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Serve {
    pub fn new(seed: u64) -> Result<Self, String> {
        let nproc = crate::sys::nproc();
        println!(
            "load budget: nproc {nproc}, generator threads {CLIENTS}, connections {CLIENTS}, \
             arrival rate {RATE}/s over {PASS_S} s, solver threads 1 (max_inflight 1)"
        );
        if CLIENTS > nproc {
            return Err(format!(
                "the generator needs {CLIENTS} threads and {CLIENTS} connections but only {nproc} cores are available"
            ));
        }
        let base = ExperimentSpec::from_json_str(QUICK_SPEC).map_err(|e| e.to_string())?;
        let ExperimentSpec::Annual(annual) = &base else {
            return Err("the quick spec is not an annual spec".to_string());
        };
        let mut rng = Rng(seed ^ REPRO_SEED);
        // Distinct start hours: one per hit spec, miss and job.
        let distinct = HIT_SPECS + SHARES[1] + SHARES[2];
        let last_start = 365 * 24 - annual.config.hours;
        let mut hours: Vec<usize> = Vec::with_capacity(distinct);
        while hours.len() < distinct {
            let h = rng.below(last_start);
            if !hours.contains(&h) {
                hours.push(h);
            }
        }
        let specs: Vec<String> = hours
            .iter()
            .map(|&h| {
                let mut spec = annual.clone();
                spec.config.start_hour = h;
                ExperimentSpec::Annual(spec).to_json_string()
            })
            .collect();
        // Exact class counts in a seeded order, one arrival at a seeded
        // moment in each of `REQUESTS` equal slots: a seed changes which
        // requests come when, not how bunched they are.
        let mut classes: Vec<Class> = Class::ALL
            .iter()
            .zip(SHARES)
            .flat_map(|(&c, n)| std::iter::repeat_n(c, n))
            .collect();
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.below(i + 1));
        }
        let slot = PASS_S / REQUESTS as f64;
        let dues: Vec<f64> = (0..REQUESTS)
            .map(|i| (i as f64 + rng.unit()) * slot)
            .collect();
        let (mut misses, mut jobs) = (HIT_SPECS, HIT_SPECS + SHARES[1]);
        let schedule: Vec<Req> = classes
            .iter()
            .zip(dues)
            .map(|(&class, due)| {
                let spec = match class {
                    Class::Hit | Class::Relay => rng.below(HIT_SPECS),
                    Class::Miss => {
                        misses += 1;
                        misses - 1
                    }
                    Class::Job => {
                        jobs += 1;
                        jobs - 1
                    }
                };
                Req {
                    due: Duration::from_secs_f64(due),
                    class,
                    spec,
                }
            })
            .collect();
        let mut sample = Vec::with_capacity(SAMPLE);
        while sample.len() < SAMPLE {
            let k = rng.below(REQUESTS);
            if schedule[k].class != Class::Job && !sample.contains(&k) {
                sample.push(k);
            }
        }
        Ok(Serve {
            specs,
            schedule,
            references: HashMap::new(),
            reference_engine: engine(),
            sample,
            late_ms: Vec::new(),
            stats: None,
            tallies: [
                ("every 200 body is a greencloud-report/1 document", 0, 0),
                (
                    "every job completes with the report Engine::run gives",
                    0,
                    0,
                ),
                (
                    "sampled served reports equal Engine::run after normalization",
                    0,
                    0,
                ),
            ],
        })
    }

    /// Counts one output check; a failed one is reported with `what`.
    fn tally(&mut self, round: &mut Round, check: usize, ok: bool, what: impl FnOnce() -> String) {
        let t = &mut self.tallies[check];
        t.2 += 1;
        if ok {
            t.1 += 1;
        } else if round.errors.len() < 5 {
            round.errors.push(what());
        }
    }

    /// The normalized report of `Engine::run` for spec `k`, computed once.
    fn reference(&mut self, k: usize) -> Result<String, String> {
        let engine = &self.reference_engine;
        let text = &self.specs[k];
        self.references
            .entry(k)
            .or_insert_with(|| {
                let spec = ExperimentSpec::from_json_str(text).map_err(|e| e.to_string())?;
                let report = engine.run(&spec).map_err(|e| e.to_string())?;
                Ok(normalize(&report.normalized().to_json_string()))
            })
            .clone()
    }
}

fn engine() -> Engine {
    Engine::new(WorldCatalog::anchors_only(REPRO_SEED)).with_threads(1)
}

/// A report body with its wall-clock fields zeroed, rendered canonically;
/// the same bytes `Report::normalized` gives for the same run.
fn normalize(body: &str) -> String {
    fn zero(j: &mut Json) {
        match j {
            Json::Object(fields) => {
                for (k, v) in fields {
                    if k == "wall_ms" || k == "pricing_ms" {
                        *v = Json::Number(0.0);
                    } else {
                        zero(v);
                    }
                }
            }
            Json::Array(items) => items.iter_mut().for_each(zero),
            _ => {}
        }
    }
    match Json::parse(body) {
        Ok(mut j) => {
            zero(&mut j);
            j.render()
        }
        Err(e) => format!("unparseable: {e}"),
    }
}

impl Workload for Serve {
    const OP: &'static str = "request";

    fn round(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Round, String> {
        let t0 = Instant::now();
        let dir = crate::run_dir().join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let catalog = tracer.time("climate.world", parent, || {
            WorldCatalog::anchors_only(REPRO_SEED)
        });
        let server = Server::bind(
            Engine::new(catalog).with_threads(1),
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                max_inflight: 1,
                cache_capacity: 1024,
                journal_path: Some(dir.join("journal.wal").to_string_lossy().into_owned()),
                drain_ms: 2_000,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let router = Router::bind(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: vec![server.local_addr().to_string()],
            drain_ms: 2_000,
            ..RouterConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let pass = (|| -> Result<Round, String> {
            let mut to_server = Conn::open(server.local_addr()).map_err(|e| e.to_string())?;
            let mut to_router = Conn::open(router.local_addr()).map_err(|e| e.to_string())?;
            for spec in &self.specs[..HIT_SPECS] {
                let r = to_server
                    .request("POST", "/v1/experiments", spec)
                    .map_err(|e| format!("warm-up: {e}"))?;
                if r.status != 200 {
                    return Err(format!("warm-up answered {}", r.status));
                }
            }
            let before = stats(&mut to_server)?;
            let setup_s = t0.elapsed().as_secs_f64();
            let cpu0 = crate::sys::cpu_seconds();
            let start = Instant::now();
            let (mine, relayed): (Vec<usize>, Vec<usize>) =
                (0..REQUESTS).partition(|&k| self.schedule[k].class != Class::Relay);
            let specs = &self.specs;
            let schedule = &self.schedule;
            let send = |conn: &mut Conn, k: usize| -> Result<Resp, String> {
                let path = match schedule[k].class {
                    Class::Job => "/v1/jobs",
                    _ => "/v1/experiments",
                };
                conn.request("POST", path, &specs[schedule[k].spec])
                    .map_err(|e| e.to_string())
            };
            let plan = |ks: &[usize]| -> Vec<(usize, Duration)> {
                ks.iter().map(|&k| (k, schedule[k].due)).collect()
            };
            let (mut samples, to_server, to_router) = std::thread::scope(|s| {
                let a = s.spawn(|| {
                    let out = open_loop(start, &plan(&mine), |k| send(&mut to_server, k));
                    (out, to_server)
                });
                let b = s.spawn(|| {
                    let out = open_loop(start, &plan(&relayed), |k| send(&mut to_router, k));
                    (out, to_router)
                });
                let (mut out, server_conn) = a.join().expect("client thread never panics");
                let (relay_out, router_conn) = b.join().expect("client thread never panics");
                out.extend(relay_out);
                (out, server_conn, router_conn)
            });
            let wall_s = samples
                .iter()
                .map(|x| x.done - start)
                .max()
                .unwrap_or_default();
            let cpu_s = crate::sys::cpu_seconds() - cpu0;
            drop(to_router);
            let mut to_server = to_server;
            samples.sort_by_key(|x| x.req);
            let mut round = Round {
                setup_s,
                wall_s: wall_s.as_secs_f64(),
                cpu_s,
                attempted: samples.len() as u64,
                ..Round::default()
            };
            let mut job_ids = Vec::new();
            let mut per_class = [0usize; 4];
            for x in &samples {
                let req = &self.schedule[x.req];
                per_class[req.class as usize] += 1;
                round.latencies_ms.push(x.latency_ms());
                self.late_ms.push(x.late_ms());
                tracer.record(req.class.span(), parent, x.req as u64, x.due, x.done);
                match (&x.outcome, req.class) {
                    (Ok(r), Class::Job) if r.status == 202 => {
                        match Json::parse(&r.body).ok().and_then(|j| {
                            j.get("job_id").and_then(Json::as_str).map(str::to_string)
                        }) {
                            Some(id) => job_ids.push((id, req.spec)),
                            None => fail(
                                &mut round,
                                format!("request {}: 202 without a job id", x.req),
                            ),
                        }
                    }
                    (Ok(r), Class::Job) => fail(
                        &mut round,
                        format!("request {}: job answered {}", x.req, r.status),
                    ),
                    (Ok(r), _) if r.status == 200 => {
                        let schema = Json::parse(&r.body).ok().and_then(|j| {
                            j.get("schema").and_then(Json::as_str).map(str::to_string)
                        });
                        let ok = schema.as_deref() == Some(REPORT_SCHEMA);
                        self.tally(&mut round, BODIES, ok, || {
                            format!("request {}: 200 body is not {REPORT_SCHEMA}", x.req)
                        });
                    }
                    (Ok(r), class) => fail(
                        &mut round,
                        format!(
                            "request {} ({}): answered {}",
                            x.req,
                            class.name(),
                            r.status
                        ),
                    ),
                    (Err(e), class) => fail(
                        &mut round,
                        format!("request {} ({}): {e}", x.req, class.name()),
                    ),
                }
            }
            // Jobs: poll each to a terminal state; it must complete with the
            // report an out-of-server run gives.
            let mut completed = 0usize;
            for (id, spec) in &job_ids {
                let problem = match poll_job(&mut to_server, id) {
                    Ok(body) => {
                        completed += 1;
                        (self.reference(*spec)? != normalize(&body))
                            .then(|| "report differs from Engine::run".to_string())
                    }
                    Err(e) => Some(e),
                };
                self.tally(&mut round, JOBS, problem.is_none(), || {
                    format!("job {id}: {}", problem.unwrap_or_default())
                });
            }
            for &k in &self.sample.clone() {
                let reference = self.reference(self.schedule[k].spec)?;
                let served = samples[k].outcome.as_ref().ok().map(|r| normalize(&r.body));
                self.tally(&mut round, SAMPLES, served == Some(reference), || {
                    format!("request {k}: served report differs from Engine::run")
                });
            }
            let after = stats(&mut to_server)?;
            let delta = StatsDelta {
                received: after.received - before.received,
                cache_hits: after.cache_hits - before.cache_hits,
                shed: after.shed - before.shed,
                journal_bytes: after.journal_bytes,
            };
            if tracer.on() {
                self.stats = Some(delta);
            }
            for (c, n) in Class::ALL.iter().zip(per_class) {
                round
                    .counts
                    .push((format!("requests.{}", c.name()), n.to_string()));
            }
            round
                .counts
                .push(("cache_hits".to_string(), delta.cache_hits.to_string()));
            round
                .counts
                .push(("jobs_completed".to_string(), completed.to_string()));
            Ok(round)
        })();
        router.trigger_shutdown();
        router.join();
        server.trigger_shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn finish(&mut self, tracer: &Tracer) -> Finish {
        let mut finish = Finish::default();
        for (what, passed, checked) in self.tallies {
            finish
                .checks
                .push((format!("{what} ({passed} of {checked})"), passed == checked));
        }
        if !tracer.on() {
            return finish;
        }
        // Replay the request path's layers outside the server.
        let replay = tracer.open("serve.replay", None, 0);
        let engine = engine();
        for (k, text) in self.specs.iter().enumerate() {
            let Ok(spec) = tracer.time("api.spec.parse", replay, || {
                ExperimentSpec::from_json_str(text)
            }) else {
                finish.checks.push((format!("spec {k} parses"), false));
                continue;
            };
            let is_miss = self
                .schedule
                .iter()
                .any(|r| r.spec == k && r.class == Class::Miss);
            if !is_miss {
                continue;
            }
            match tracer.time("api.engine.run", replay, || engine.run(&spec)) {
                Ok(report) => {
                    let body =
                        tracer.time("api.report.serialize", replay, || report.to_json_string());
                    std::hint::black_box(body);
                }
                Err(e) => finish.checks.push((format!("spec {k} runs: {e}"), false)),
            }
        }
        tracer.close(replay);
        let spans = tracer.spans();
        let med_of = |name: &str, scale: f64| {
            crate::med(
                crate::trace::durations(&spans, name)
                    .into_iter()
                    .map(|d| d * scale),
            )
        };
        let hit = med_of("api.serve.hit", 1e3);
        let miss = med_of("api.serve.miss", 1e3);
        let relay = med_of("api.router.relay", 1e3);
        let run = med_of("api.engine.run", 1e3);
        let s = self.stats.unwrap_or_default();
        let l = &mut finish.layer;
        l.insert("climate.world_s", med_of("climate.world", 1.0));
        l.insert("api.spec.parse_us", med_of("api.spec.parse", 1e6));
        l.insert(
            "api.report.serialize_us",
            med_of("api.report.serialize", 1e6),
        );
        l.insert("api.engine.run_ms", run);
        l.insert("api.serve.hit_ms", hit);
        l.insert("api.serve.miss_ms", miss);
        l.insert("api.store.ack_ms", med_of("api.store.ack", 1e3));
        l.insert("api.router.hit_ms", relay);
        l.insert("api.serve.overhead_ms", miss - run);
        l.insert("api.router.relay_ms", relay - hit);
        l.insert(
            "api.serve.cache_hit_rate",
            if s.received > 0.0 {
                s.cache_hits / s.received
            } else {
                0.0
            },
        );
        l.insert("api.serve.shed", s.shed);
        l.insert("api.store.journal_bytes", s.journal_bytes);
        l.insert(
            "bench.late_p99_ms",
            crate::stats::percentile(&self.late_ms, 99.0).unwrap_or(0.0),
        );
        finish
    }
}

fn fail(round: &mut Round, what: String) {
    round.failed += 1;
    if round.errors.len() < 5 {
        round.errors.push(what);
    }
}

/// Sends each `(request, due)` of `plan`, in order, no earlier than
/// `start + due`, over one connection that `send` owns. A request that
/// falls due while the connection is still busy waits for it.
fn open_loop(
    start: Instant,
    plan: &[(usize, Duration)],
    mut send: impl FnMut(usize) -> Result<Resp, String>,
) -> Vec<Sample> {
    plan.iter()
        .map(|&(req, due)| {
            let due = start + due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let outcome = send(req);
            Sample {
                req,
                due,
                sent,
                done: Instant::now(),
                outcome,
            }
        })
        .collect()
}

/// `/v1/stats` counters the benchmark reads.
struct Stats {
    received: f64,
    cache_hits: f64,
    shed: f64,
    journal_bytes: f64,
}

fn stats(conn: &mut Conn) -> Result<Stats, String> {
    let r = conn
        .request("GET", "/v1/stats", "")
        .map_err(|e| format!("stats: {e}"))?;
    let j = Json::parse(&r.body).map_err(|e| format!("stats: {e}"))?;
    let f = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Stats {
        received: f("received"),
        cache_hits: f("cache_hits"),
        shed: f("shed"),
        journal_bytes: f("journal_bytes"),
    })
}

/// Polls `GET /v1/jobs/<id>` until the job is terminal; its report body
/// when it completed.
fn poll_job(conn: &mut Conn, id: &str) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = conn
            .request("GET", &format!("/v1/jobs/{id}"), "")
            .map_err(|e| e.to_string())?;
        match r.header("x-job-status") {
            Some("completed") => return Ok(r.body),
            Some("accepted" | "started") if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return Err(format!("ended {other:?}")),
        }
    }
}

/// An HTTP response: status, lower-cased headers, body.
#[derive(Debug)]
struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive HTTP/1.1 client connection (Content-Length bodies only,
/// which is all the server and router send for these routes).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Resp> {
        let mut msg = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
        if method == "POST" {
            msg.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        msg.push_str("\r\n");
        msg.push_str(body);
        self.stream.write_all(msg.as_bytes())?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end - 4]).into_owned();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).into_owned();
        self.buf.drain(..head_end + len);
        Ok(Resp {
            status,
            headers,
            body,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok() -> Result<Resp, String> {
        Ok(Resp {
            status: 200,
            headers: Vec::new(),
            body: String::new(),
        })
    }

    #[test]
    fn latency_counts_from_due_time_when_the_connection_was_busy() {
        // The first request holds the only connection for 30 ms; the second
        // falls due 5 ms in and must wait for it.
        let plan = [(0, Duration::ZERO), (1, Duration::from_millis(5))];
        let samples = open_loop(Instant::now(), &plan, |k| {
            if k == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            ok()
        });
        let second = &samples[1];
        assert!(
            second.late_ms() >= 25.0,
            "sent {} ms late",
            second.late_ms()
        );
        assert!(
            second.latency_ms() >= 25.0,
            "latency {} ms",
            second.latency_ms()
        );
        assert!(second.latency_ms() >= second.late_ms());
        // Its own service took almost nothing: the wait is what shows.
        assert!((second.done - second.sent).as_secs_f64() * 1e3 < 25.0);
    }

    #[test]
    fn schedule_has_fixed_class_counts_and_repeats_per_seed() {
        let a = Serve::new(7).expect("schedule");
        let b = Serve::new(7).expect("schedule");
        for (c, n) in Class::ALL.iter().zip(SHARES) {
            assert_eq!(a.schedule.iter().filter(|r| r.class == *c).count(), n);
        }
        assert_eq!(a.specs, b.specs);
        assert!(a
            .schedule
            .iter()
            .zip(&b.schedule)
            .all(|(x, y)| x.due == y.due && x.spec == y.spec));
        assert!(a.schedule.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .schedule
            .last()
            .is_some_and(|r| r.due.as_secs_f64() < PASS_S));
        let c = Serve::new(8).expect("schedule");
        assert_ne!(a.specs, c.specs);
    }

    #[test]
    fn normalize_zeroes_wall_clock_fields_only() {
        let a = normalize(r#"{"wall_ms": 3.5, "x": {"pricing_ms": 1, "iterations": 4}}"#);
        let b = normalize(r#"{"wall_ms": 0, "x": {"pricing_ms": 0, "iterations": 4}}"#);
        assert_eq!(a, b);
        assert_ne!(
            a,
            normalize(r#"{"wall_ms": 0, "x": {"pricing_ms": 0, "iterations": 5}}"#)
        );
    }
}
