//! Shared helpers for the serve integration tests: wrappers over the
//! crate's HTTP client, server and router starters, and spec fixtures.
//!
//! Each integration test binary compiles its own copy, so helpers used by
//! only one binary look dead in the others.
#![allow(dead_code)]

use greencloud_api::http::{Conn, Response};
use greencloud_api::json::Json;
use greencloud_api::spec::{AnnualSpec, ExperimentSpec, SearchSpec, SitingSpec};
use greencloud_api::{Engine, Router, RouterConfig, ServeConfig, Server};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::framework::PlacementInput;
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::scheduler::SchedulerConfig;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

pub const SEED: u64 = 20140701;

/// A fresh, collision-free path for a journal file under the system temp
/// dir. Unique per call (pid + counter) so parallel tests never share.
pub fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("gc-{tag}-{}-{n}.wal", std::process::id()))
}

/// Removes a journal and its snapshot sibling, ignoring absence.
pub fn remove_journal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut snap = path.as_os_str().to_os_string();
    snap.push(".snap");
    let _ = std::fs::remove_file(std::path::PathBuf::from(snap));
}

/// Starts a server on a fresh port over the anchors world.
pub fn start(tweak: impl FnOnce(&mut ServeConfig)) -> (Server, SocketAddr) {
    let engine = Engine::new(WorldCatalog::anchors_only(SEED));
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

/// Starts a router on a fresh port over already-running backends. A fast
/// probe interval keeps failure-detection latency low in tests.
pub fn start_router(
    backends: &[SocketAddr],
    tweak: impl FnOnce(&mut RouterConfig),
) -> (Router, SocketAddr) {
    let mut cfg = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|a| a.to_string()).collect(),
        probe_interval_ms: 100,
        ..RouterConfig::default()
    };
    tweak(&mut cfg);
    let router = Router::bind(cfg).expect("router bind");
    let addr = router.local_addr();
    (router, addr)
}

/// JSON helpers on a response.
pub trait ResponseExt {
    fn json(&self) -> Json;
    fn code(&self) -> Option<String>;
    /// The `greencloud-progress/1` frames, parsed — one per chunk.
    fn progress_frames(&self) -> Vec<Json>;
    /// The final streamed document (the report or error body), trailing
    /// whitespace trimmed.
    fn final_document(&self) -> String;
}

impl ResponseExt for Response {
    fn json(&self) -> Json {
        Json::parse(&self.body).expect("response body parses as JSON")
    }

    fn code(&self) -> Option<String> {
        self.json()
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    }

    fn progress_frames(&self) -> Vec<Json> {
        self.chunks
            .iter()
            .filter_map(|c| Json::parse(c).ok())
            .filter(|d| {
                d.get("schema").and_then(Json::as_str) == Some(greencloud_api::PROGRESS_SCHEMA)
            })
            .collect()
    }

    fn final_document(&self) -> String {
        self.chunks
            .last()
            .map(|c| c.trim_end().to_string())
            .unwrap_or_default()
    }
}

fn connect(addr: SocketAddr) -> Conn {
    let budget = Duration::from_secs(150);
    Conn::connect(&addr.to_string(), Duration::from_secs(10), budget, budget).expect("connect")
}

/// A persistent keep-alive client: many requests over one connection,
/// each response read by its framing.
pub struct Session(Conn);

impl Session {
    pub fn connect(addr: SocketAddr) -> Session {
        Session(connect(addr))
    }

    /// Sends one request (keep-alive) and reads exactly one response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> Response {
        let headers = [&[("Host", "test")], headers].concat();
        self.0
            .request(method, path, &headers, body)
            .expect("request")
    }
}

/// Sends one request on a fresh connection (`Connection: close`) and
/// reads the response.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> Response {
    let headers = [&[("Host", "test"), ("Connection", "close")], headers].concat();
    connect(addr)
        .request(method, path, &headers, body)
        .expect("request")
}

/// Sends raw bytes in one write and reads `n` responses (for malformed
/// HTTP and pipelining).
pub fn http_raw_n(addr: SocketAddr, raw: &[u8], n: usize) -> Vec<Response> {
    let mut conn = connect(addr);
    conn.stream().write_all(raw).expect("write raw");
    (0..n)
        .map(|_| conn.read_response().expect("response"))
        .collect()
}

/// Sends raw bytes and reads the response (for malformed HTTP).
pub fn http_raw(addr: SocketAddr, raw: &[u8]) -> Response {
    http_raw_n(addr, raw, 1).remove(0)
}

/// Connects, sends the full request, then hangs up without reading — the
/// server should detect the vanished client and cancel the solve.
pub fn post_and_vanish(addr: SocketAddr, body: &[u8]) {
    let headers = [("Host", "test"), ("Cache-Control", "no-cache")];
    connect(addr)
        .send("POST", "/v1/experiments", &headers, Some(body))
        .expect("send");
}

/// A small, fast annual spec; `start_hour` makes specs distinct.
pub fn annual_spec(hours: usize, vm_count: u32, start_hour: usize) -> ExperimentSpec {
    ExperimentSpec::Annual(AnnualSpec {
        config: EmulationConfig {
            vm_count,
            hours,
            start_hour,
            scheduler: SchedulerConfig {
                window_hours: 6,
                ..SchedulerConfig::default()
            },
            ..EmulationConfig::default()
        },
        include_trace: false,
    })
}

/// A small deterministic siting spec at the default chain count
/// (exercises the candidate cache).
pub fn siting_spec() -> ExperimentSpec {
    ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            total_capacity_mw: 20.0,
            ..PlacementInput::default()
        },
        search: SearchSpec {
            profile: ProfileConfig::coarse(),
            filter_keep: 4,
            iterations: 8,
            patience: 6,
            seed: SEED,
            ..SearchSpec::default()
        },
    })
}

/// A siting spec whose search runs for seconds (about 2.5 s in a release
/// build, a little more in the test profile): long enough to outlast a
/// sub-second deadline by far, short enough for a server's drain to wait
/// for it. Siting does not poll the cancel token.
pub fn slow_siting_spec() -> ExperimentSpec {
    ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput::default(),
        search: SearchSpec {
            filter_keep: 6,
            iterations: 8,
            chains: 1,
            ..SearchSpec::default()
        },
    })
}

/// JSON-level equivalent of `Report::normalized` for annual and siting
/// reports: zeroes every `wall_ms` / `pricing_ms` field, re-renders.
pub fn normalize_report_json(body: &str) -> String {
    let mut doc = Json::parse(body).expect("report parses");
    zero_clock_fields(&mut doc);
    doc.render()
}

fn zero_clock_fields(doc: &mut Json) {
    match doc {
        Json::Object(fields) => {
            for (k, v) in fields.iter_mut() {
                if k == "wall_ms" || k == "pricing_ms" {
                    *v = Json::Number(0.0);
                } else {
                    zero_clock_fields(v);
                }
            }
        }
        Json::Array(items) => {
            for v in items.iter_mut() {
                zero_clock_fields(v);
            }
        }
        _ => {}
    }
}
