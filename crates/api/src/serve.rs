//! `repro serve` — an overload-safe HTTP service wrapping [`Engine`].
//!
//! An HTTP/1.1 server over `std::net` in the workspace's no-external-deps
//! style: the framing, the acceptor and the thread-per-connection loop
//! live in [`crate::http`]; this module routes requests to a fixed pool
//! of solver workers pulling from a bounded queue. The interesting part
//! is not the parsing but the robustness envelope — the server is
//! engineered to *degrade instead of die*:
//!
//! * **Admission control.** At most `max_inflight` specs solve at once;
//!   at most `queue_depth` wait behind them. A request arriving to a full
//!   queue is shed immediately with `429` and a `Retry-After` estimated
//!   from an EMA of recent solve times — overload produces backpressure,
//!   never unbounded memory.
//! * **Deadlines.** Every request carries a deadline (default
//!   `default_deadline_ms`, overridable per request via `X-Deadline-Ms`,
//!   capped at `max_deadline_ms`) measured from *enqueue*, so time spent
//!   queued counts. The client's connection thread waits until the
//!   deadline at most, then answers `408` with a typed
//!   `deadline_exceeded` body, whatever the kind; a worker skips a job
//!   that expired in the queue; a durable job, which nobody waits on,
//!   runs with its remaining budget as the engine's [`RunCtx::deadline`].
//! * **Disconnect detection.** While a request waits for its result, the
//!   connection is polled with a zero-copy `peek`; a vanished client
//!   fires the token so the solver stops burning CPU for nobody
//!   (nginx-style 499 — counted, never written).
//! * **Slow-loris resistance.** Request heads and bodies are read under
//!   both a byte cap and a wall-time budget; bodies require
//!   `Content-Length` (chunked is refused with `411`) and are capped at
//!   `max_body_bytes` (`413`). Pipelined requests are answered in order.
//! * **Report LRU.** Whole rendered `Report` bodies are cached, keyed on
//!   the *normalized* spec bytes (`ExperimentSpec::to_json_string` of the
//!   parsed spec), so formatting differences still hit. `Cache-Control:
//!   no-cache` skips the lookup; responses carry `X-Cache: hit|miss`.
//! * **Graceful drain.** [`ServeHandle::trigger_shutdown`] stops the
//!   acceptor; [`Server::join`] then drains — in-flight work gets
//!   `drain_ms` to finish, stragglers are cancelled with the drain
//!   reason, and the process exits 0 with a [`ServeSummary`].
//! * **Durable jobs.** `POST /v1/jobs` acknowledges work with `202` and a
//!   content-derived job id *after* fsyncing an `Accepted` record to the
//!   write-ahead journal ([`crate::store`]), so acknowledged work
//!   survives `kill -9`. `GET /v1/jobs/:id` polls state or fetches the
//!   finished report; `DELETE /v1/jobs/:id` fires the job's cancellation
//!   token, queued or mid-solve. On startup the journal is replayed:
//!   completed reports warm the LRU, and jobs that never reached a
//!   terminal state are re-enqueued with exponential backoff, up to
//!   `max_redeliveries` attempts before a terminal `retries_exhausted`.
//!
//! Every failure body is a `greencloud-error/1` document (see
//! [`crate::error::ERROR_SCHEMA`]); `GET /v1/healthz`, `/v1/readyz`, and
//! `/v1/stats` complete the operational surface.

use crate::engine::{Engine, Progress, ProgressSink, RunCtx};
use crate::error::ApiError;
use crate::http::{
    self, error_body, finish_chunks, header, write_chunk, write_chunked_head, write_error,
    write_response, Gate, Request,
};
use crate::json::Json;
use crate::spec::ExperimentSpec;
use crate::store::{self, JobStatus, JobStore};
use crate::wallclock::{self, Stopwatch};
use greencloud_core::lock_ok;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Schema identifier of the progress frames emitted on streamed
/// responses (`X-Progress: stream` on `POST /v1/experiments`).
pub const PROGRESS_SCHEMA: &str = "greencloud-progress/1";

/// Cancellation causes, first-cause-wins (see [`JobState::fire`]).
const REASON_NONE: u8 = 0;
const REASON_DEADLINE: u8 = 1;
const REASON_DISCONNECT: u8 = 2;
const REASON_DRAIN: u8 = 3;
const REASON_CANCEL_API: u8 = 4;

/// Tuning knobs for [`Server::bind`]. `Default` gives a loopback server
/// with conservative limits; `bind` normalizes degenerate values
/// (`max_inflight`/`queue_depth` of 0 become 1).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (`:0` picks a free port).
    pub addr: String,
    /// Solver worker threads — specs solving concurrently.
    pub max_inflight: usize,
    /// Accepted-but-not-yet-solving specs; beyond this, requests shed 429.
    pub queue_depth: usize,
    /// Deadline applied when the client sends no `X-Deadline-Ms`.
    pub default_deadline_ms: u64,
    /// Hard cap on any requested deadline.
    pub max_deadline_ms: u64,
    /// Largest accepted request body; larger bodies are refused with 413.
    pub max_body_bytes: usize,
    /// Budget for reading a request head or body (slow-loris guard).
    pub read_timeout_ms: u64,
    /// Socket write timeout for responses.
    pub write_timeout_ms: u64,
    /// How long [`Server::join`] lets in-flight work finish before
    /// cancelling it with the drain reason.
    pub drain_ms: u64,
    /// Whole-report LRU entries (0 disables caching).
    pub cache_capacity: usize,
    /// Simultaneous client connections; beyond this, connections are
    /// refused with a best-effort 503.
    pub max_connections: usize,
    /// Write-ahead journal path backing the `/v1/jobs` API. `None` keeps
    /// the job store in memory only (jobs do not survive a restart).
    pub journal_path: Option<String>,
    /// Most times a recovered job may be delivered to a worker before it
    /// turns terminally `Failed{code: "retries_exhausted"}`.
    pub max_redeliveries: u32,
    /// Base of the exponential backoff applied when a recovered job is
    /// re-enqueued: attempt *n* waits `backoff · 2^(n-1)` ms first.
    pub redelivery_backoff_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            max_inflight: thread::available_parallelism()
                .map_or(2, |n| n.get())
                .min(8),
            queue_depth: 16,
            default_deadline_ms: 30_000,
            max_deadline_ms: 120_000,
            max_body_bytes: 1024 * 1024,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            drain_ms: 10_000,
            cache_capacity: 64,
            max_connections: 256,
            journal_path: None,
            max_redeliveries: 3,
            redelivery_backoff_ms: 250,
        }
    }
}

/// Per-request lifecycle shared by the connection thread that waits on
/// it and the worker that solves it.
struct JobState {
    /// The engine-facing cancellation token (polled by annual/sweep runs),
    /// set by [`JobState::fire`]. Durable jobs stay reachable by id in
    /// `job_states` while they run, so `DELETE /v1/jobs/:id` fires it too.
    cancel: AtomicBool,
    /// First cancellation cause (`REASON_*`); set once via CAS.
    reason: AtomicU8,
    /// True once the worker is done with the job (the drain skips it).
    finished: AtomicBool,
    /// The request's effective deadline, for the 408 body.
    limit_ms: u64,
    /// `limit_ms` after the job entered the queue, so deadlines include
    /// queue wait; `None` for a job without a deadline.
    deadline: Option<Instant>,
    /// The result slot, filled exactly once by the worker.
    done: Mutex<Option<Result<Arc<String>, ApiError>>>,
    /// Signals `done` being filled (or progress advancing) to the
    /// waiting connection thread.
    cv: Condvar,
    /// Latest progress counters from the solving worker; only the newest
    /// frame matters, so a single slot replaces a queue.
    progress: Mutex<Option<Progress>>,
    /// Bumped on every progress store, so the streaming connection
    /// thread can tell a fresh frame from one it already wrote.
    progress_seq: AtomicU64,
}

impl JobState {
    /// A job entering the queue now, due `limit_ms` from now if given.
    fn new(limit_ms: Option<u64>) -> Self {
        let now = wallclock::now();
        JobState {
            cancel: AtomicBool::new(false),
            reason: AtomicU8::new(REASON_NONE),
            finished: AtomicBool::new(false),
            limit_ms: limit_ms.unwrap_or(0),
            deadline: limit_ms.map(|ms| now + Duration::from_millis(ms)),
            done: Mutex::new(None),
            cv: Condvar::new(),
            progress: Mutex::new(None),
            progress_seq: AtomicU64::new(0),
        }
    }

    /// Publishes the worker's latest progress counters and wakes the
    /// streaming connection thread. Called from solver threads (sweeps
    /// report from several at once); last write wins.
    fn report_progress(&self, p: Progress) {
        *lock_ok(&self.progress) = Some(p);
        self.progress_seq.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// The newest progress frame and its sequence number. The sequence is
    /// read *before* the slot, so the returned frame is never older than
    /// the sequence says — at worst a racing update is written twice.
    fn latest_progress(&self) -> (u64, Option<Progress>) {
        let seq = self.progress_seq.load(Ordering::SeqCst);
        let p = *lock_ok(&self.progress);
        (seq, p)
    }

    /// Records `reason` as the cancellation cause if none is set yet and
    /// fires the engine token; true when this call set the cause. Later
    /// causes lose the race and change nothing, so the reported error
    /// always names the *first* cause.
    fn fire(&self, reason: u8) -> bool {
        let first = self
            .reason
            .compare_exchange(REASON_NONE, reason, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if first {
            self.cancel.store(true, Ordering::SeqCst);
        }
        first
    }

    fn reason_code(&self) -> u8 {
        self.reason.load(Ordering::SeqCst)
    }

    fn complete(&self, result: Result<Arc<String>, ApiError>) {
        *lock_ok(&self.done) = Some(result);
        self.finished.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Marks the job finished without filling the result slot — durable
    /// jobs publish their outcome through the store.
    fn mark_finished(&self) {
        self.finished.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// One queued experiment.
struct Job {
    spec: ExperimentSpec,
    cache_key: String,
    state: Arc<JobState>,
    /// `Some` for durable jobs submitted via `/v1/jobs` (or recovered
    /// from the journal); `None` for synchronous `/v1/experiments` work.
    job_id: Option<String>,
    /// Redelivery backoff: workers skip the job until this instant.
    not_before: Option<Instant>,
    /// The client asked for a streamed response: the worker publishes
    /// progress counters into [`JobState`] as the solve advances.
    stream: bool,
}

/// Monotonic service counters, snapshotted into [`ServeSummary`].
#[derive(Default)]
struct Stats {
    received: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    deadline_expired: AtomicU64,
    disconnects: AtomicU64,
    drain_cancelled: AtomicU64,
    client_errors: AtomicU64,
    solve_errors: AtomicU64,
    server_errors: AtomicU64,
    /// Jobs re-enqueued from the journal after at least one earlier
    /// delivery (surfaced via `/v1/stats`, not the exit summary).
    jobs_redelivered: AtomicU64,
    /// Responses sent with chunked progress streaming (surfaced via
    /// `/v1/stats`, not the exit summary).
    streamed: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServeSummary {
        ServeSummary {
            received: self.received.load(Ordering::SeqCst),
            ok: self.ok.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            deadline_expired: self.deadline_expired.load(Ordering::SeqCst),
            disconnects: self.disconnects.load(Ordering::SeqCst),
            drain_cancelled: self.drain_cancelled.load(Ordering::SeqCst),
            client_errors: self.client_errors.load(Ordering::SeqCst),
            solve_errors: self.solve_errors.load(Ordering::SeqCst),
            server_errors: self.server_errors.load(Ordering::SeqCst),
        }
    }
}

/// What one serve run did, returned by [`Server::join`] and rendered by
/// `repro serve` on exit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Experiment POSTs that reached routing (including shed ones).
    pub received: u64,
    /// Requests answered 200 (cache hits included).
    pub ok: u64,
    /// Requests shed 429 by admission control (and refused connections).
    pub shed: u64,
    /// 200s served from the report LRU.
    pub cache_hits: u64,
    /// Requests answered 408 and durable jobs failed by their deadline,
    /// each counted once, where the deadline was claimed.
    pub deadline_expired: u64,
    /// Solves cancelled because the client vanished (499-style).
    pub disconnects: u64,
    /// Jobs cancelled by shutdown drain (503s).
    pub drain_cancelled: u64,
    /// 4xx responses other than shed/deadline (bad specs, bad HTTP).
    pub client_errors: u64,
    /// 422s — well-formed specs whose optimization failed.
    pub solve_errors: u64,
    /// 5xx responses.
    pub server_errors: u64,
}

impl ServeSummary {
    /// Multi-line human-readable rendering, one counter per line.
    pub fn render_text(&self) -> String {
        format!(
            "received        {}\nok              {}\nshed (429)      {}\ncache hits      {}\n\
             deadline (408)  {}\ndisconnects     {}\ndrain-cancelled {}\nclient errors   {}\n\
             solve errors    {}\nserver errors   {}\n",
            self.received,
            self.ok,
            self.shed,
            self.cache_hits,
            self.deadline_expired,
            self.disconnects,
            self.drain_cancelled,
            self.client_errors,
            self.solve_errors,
            self.server_errors,
        )
    }
}

/// Whole-report LRU with lazy deletion: a `HashMap` for lookup plus a
/// stamped recency queue, so eviction never iterates the map (the
/// workspace `hash-iter` rule — iteration order would be nondeterministic
/// anyway). A map entry is live only while its stamp matches the newest
/// queue marker for that key; stale markers are dropped as they surface.
struct ReportCache {
    capacity: usize,
    map: HashMap<String, CacheSlot>,
    recency: VecDeque<(String, u64)>,
    next_stamp: u64,
}

struct CacheSlot {
    body: Arc<String>,
    stamp: u64,
}

impl ReportCache {
    fn new(capacity: usize) -> Self {
        ReportCache {
            capacity,
            map: HashMap::new(),
            recency: VecDeque::new(),
            next_stamp: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks `key` up and, on a hit, refreshes its recency.
    fn get(&mut self, key: &str) -> Option<Arc<String>> {
        let stamp = self.bump();
        let slot = self.map.get_mut(key)?;
        slot.stamp = stamp;
        let body = Arc::clone(&slot.body);
        self.recency.push_back((key.to_string(), stamp));
        self.trim_recency();
        Some(body)
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used live
    /// entries while over capacity.
    fn insert(&mut self, key: String, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.bump();
        self.recency.push_back((key.clone(), stamp));
        self.map.insert(key, CacheSlot { body, stamp });
        while self.map.len() > self.capacity {
            let Some((old_key, old_stamp)) = self.recency.pop_front() else {
                break;
            };
            if self.map.get(&old_key).is_some_and(|s| s.stamp == old_stamp) {
                self.map.remove(&old_key);
            }
        }
        self.trim_recency();
    }

    /// Bounds the recency queue: stale markers are discarded, live ones
    /// rotated to the back. Live markers number at most `map.len()` ≤
    /// `capacity` < the bound, so the loop always finds stale ones.
    fn trim_recency(&mut self) {
        let bound = self.capacity * 8 + 16;
        while self.recency.len() > bound {
            let Some((key, stamp)) = self.recency.pop_front() else {
                break;
            };
            if self.map.get(&key).is_some_and(|s| s.stamp == stamp) {
                self.recency.push_back((key, stamp));
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// State shared by the acceptor, connection threads and workers.
struct ServerInner {
    engine: Engine,
    cfg: ServeConfig,
    /// Shutdown and drain flags, live connections, HTTP limits. Draining
    /// fails readyz, answers new experiments 503 and closes idle
    /// keep-alive connections.
    gate: Arc<Gate>,
    /// Set after the drain budget: workers exit.
    stop_workers: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    inflight: AtomicUsize,
    /// Every live job, for the drain sweep; pruned as jobs are added.
    registry: Mutex<Vec<Weak<JobState>>>,
    cache: Mutex<ReportCache>,
    stats: Stats,
    /// EMA of recent solve wall-times, feeding `Retry-After`.
    ema_ms: AtomicU64,
    /// The durable job store (ephemeral when `journal_path` is `None`).
    store: Mutex<JobStore>,
    /// Live (queued or running) durable jobs by id, for `DELETE`. Never
    /// iterated — only keyed access (the workspace `hash-iter` rule).
    job_states: Mutex<HashMap<String, Arc<JobState>>>,
}

/// A cloneable remote control for a running [`Server`] — lets signal
/// handlers and tests trigger shutdown without owning the server.
pub type ServeHandle = http::ShutdownHandle;

/// A running experiment service. Construct with [`Server::bind`], stop
/// with [`ServeHandle::trigger_shutdown`] + [`Server::join`].
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the worker pool and the acceptor, and
    /// returns the running server. Degenerate config values are
    /// normalized rather than rejected (0 workers → 1, 0 queue depth →
    /// 1, default deadline clamped under the cap).
    pub fn bind(engine: Engine, mut cfg: ServeConfig) -> Result<Server, ApiError> {
        cfg.max_inflight = cfg.max_inflight.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        cfg.max_deadline_ms = cfg.max_deadline_ms.max(1);
        cfg.default_deadline_ms = cfg.default_deadline_ms.clamp(1, cfg.max_deadline_ms);
        cfg.max_connections = cfg.max_connections.max(1);
        let store = match &cfg.journal_path {
            Some(p) => JobStore::open(p)?,
            None => JobStore::ephemeral(),
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let max_inflight = cfg.max_inflight;
        let cache_capacity = cfg.cache_capacity;
        let gate = Arc::new(Gate {
            max_connections: cfg.max_connections,
            max_body_bytes: cfg.max_body_bytes,
            read_timeout_ms: cfg.read_timeout_ms,
            write_timeout_ms: cfg.write_timeout_ms,
            ..Gate::default()
        });
        let inner = Arc::new(ServerInner {
            engine,
            cfg,
            gate,
            stop_workers: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            registry: Mutex::new(Vec::new()),
            cache: Mutex::new(ReportCache::new(cache_capacity)),
            stats: Stats::default(),
            ema_ms: AtomicU64::new(0),
            store: Mutex::new(store),
            job_states: Mutex::new(HashMap::new()),
        });
        // Replay before the workers exist: recovered jobs are queued (and
        // completed reports warm the LRU) before anything can race them.
        recover_jobs(&inner);
        let mut workers = Vec::new();
        for i in 0..max_inflight {
            let w = Arc::clone(&inner);
            workers.push(
                thread::Builder::new()
                    .name(format!("gc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&w))?,
            );
        }
        let acceptor = http::spawn_acceptor(
            listener,
            &inner,
            "gc-serve",
            |i| &i.gate,
            refuse_busy,
            handle_connection,
        )?;
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with `:0` — the OS-picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown control for this server.
    pub fn handle(&self) -> ServeHandle {
        http::ShutdownHandle(Arc::clone(&self.inner.gate))
    }

    /// Convenience for [`ServeHandle::trigger_shutdown`].
    pub fn trigger_shutdown(&self) {
        self.handle().trigger_shutdown();
    }

    /// Blocks until shutdown is triggered, then drains: in-flight and
    /// queued work gets `drain_ms` to finish, stragglers are cancelled
    /// with the drain reason and given a short grace period, workers are
    /// stopped and joined. Returns the run's counters.
    pub fn join(mut self) -> ServeSummary {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.inner.gate.draining.store(true, Ordering::SeqCst);
        let drain = Stopwatch::start();
        while (drain.elapsed_ms() as u64) < self.inner.cfg.drain_ms {
            let pending = lock_ok(&self.inner.queue).len();
            if pending == 0
                && self.inner.inflight.load(Ordering::SeqCst) == 0
                && self.inner.gate.live_conns.load(Ordering::SeqCst) == 0
            {
                break;
            }
            self.inner.queue_cv.notify_all();
            thread::sleep(Duration::from_millis(10));
        }
        {
            let mut reg = lock_ok(&self.inner.registry);
            for w in reg.drain(..) {
                if let Some(s) = w.upgrade() {
                    if !s.finished.load(Ordering::SeqCst) {
                        s.fire(REASON_DRAIN);
                    }
                }
            }
        }
        let grace = Stopwatch::start();
        while (grace.elapsed_ms() as u64) < 2_000 {
            if self.inner.inflight.load(Ordering::SeqCst) == 0
                && self.inner.gate.live_conns.load(Ordering::SeqCst) == 0
            {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.inner.stop_workers.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.stats.snapshot()
    }
}

/// Startup replay: warms the report LRU from completed jobs and
/// re-enqueues every job the journal shows as accepted/started but never
/// terminal. A job already delivered `max_redeliveries` times fails
/// terminally with `retries_exhausted`; later attempts back off
/// exponentially (`redelivery_backoff_ms · 2^(attempts-1)`).
fn recover_jobs(inner: &Arc<ServerInner>) {
    let max = inner.cfg.max_redeliveries;
    let backoff = inner.cfg.redelivery_backoff_ms;
    let mut store = lock_ok(&inner.store);
    if inner.cfg.cache_capacity > 0 {
        let mut cache = lock_ok(&inner.cache);
        for (_, e) in store.entries() {
            if let Some(report) = &e.report {
                cache.insert(e.spec.as_ref().clone(), Arc::clone(report));
            }
        }
    }
    for (id, attempts) in store.recoverable() {
        if attempts >= max {
            let _ = store.fail(
                &id,
                "retries_exhausted",
                &format!("delivered {attempts} times without finishing (max {max})"),
            );
            continue;
        }
        let Some(entry) = store.get(&id) else {
            continue;
        };
        let spec_text = entry.spec.as_ref().clone();
        let spec = match ExperimentSpec::from_json_str(&spec_text) {
            Ok(s) => s,
            Err(e) => {
                let err = ApiError::from(e);
                let _ = store.fail(&id, err.code(), &err.to_string());
                continue;
            }
        };
        let not_before = if attempts == 0 {
            None
        } else {
            inner.stats.jobs_redelivered.fetch_add(1, Ordering::SeqCst);
            let shift = attempts.saturating_sub(1).min(16);
            let wait = backoff.saturating_mul(1u64 << shift);
            Some(wallclock::now() + Duration::from_millis(wait))
        };
        let state = Arc::new(JobState::new(None));
        register(inner, &state);
        lock_ok(&inner.job_states).insert(id.clone(), Arc::clone(&state));
        // Recovery bypasses `queue_depth`: these jobs were already
        // admitted (and durably acknowledged) by a previous process.
        lock_ok(&inner.queue).push_back(Job {
            spec,
            cache_key: spec_text,
            state,
            job_id: Some(id),
            not_before,
            stream: false,
        });
    }
}

/// Solver worker: pops jobs, skips those cancelled or expired while
/// queued, runs the rest through [`solve`].
fn worker_loop(inner: &ServerInner) {
    loop {
        let job = {
            let mut q = lock_ok(&inner.queue);
            loop {
                if inner.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
                // First *ready* job: entries still inside their redelivery
                // backoff window are skipped, not reordered away.
                let now = wallclock::now();
                let ready = q.iter().position(|j| j.not_before.is_none_or(|t| t <= now));
                if let Some(k) = ready {
                    if let Some(j) = q.remove(k) {
                        break j;
                    }
                }
                let (guard, _timed_out) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(25))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        match job.job_id.clone() {
            Some(id) => run_durable_job(inner, job, &id),
            None => run_experiment(inner, job),
        }
    }
}

/// Claims the deadline as `state`'s cancellation cause once it has
/// passed, and counts it in `deadline_expired`. False before then or when
/// an earlier cause holds, so each expired request is counted once,
/// wherever its deadline is claimed.
fn expire(inner: &ServerInner, state: &JobState) -> bool {
    let due = state.deadline.is_some_and(|d| wallclock::now() >= d);
    let first = due && state.fire(REASON_DEADLINE);
    if first {
        inner.stats.deadline_expired.fetch_add(1, Ordering::SeqCst);
    }
    first
}

/// The engine call every path shares: the job's token and, when the
/// client streams, its progress sink. A synchronous job's connection
/// thread enforces its deadline (see [`await_result`]); a durable job has
/// no such thread, so the engine's timer gets what is left of its budget.
/// A successful report is rendered and cached, even when a deadline or a
/// cancellation has already claimed the job and its client gets the
/// typed error instead.
fn solve(inner: &ServerInner, job: &Job) -> Result<Arc<String>, ApiError> {
    let sink: ProgressSink<'_> = &|p| job.state.report_progress(p);
    let budget = job
        .state
        .deadline
        .filter(|_| job.job_id.is_some())
        .map(|d| d.saturating_duration_since(wallclock::now()));
    let sw = Stopwatch::start();
    let run = inner.engine.run_with(
        &job.spec,
        RunCtx {
            cancel: Some(&job.state.cancel),
            progress: job.stream.then_some(sink),
            deadline: budget,
        },
    );
    update_ema(inner, (sw.elapsed_ms() as u64).max(1));
    // The engine's timer fires the token without naming a cause; claiming
    // it here reports the request's own `limit_ms`, not the budget left.
    if matches!(run, Err(ApiError::Deadline { .. })) {
        expire(inner, &job.state);
    }
    // A run that returned `Ok` finished its whole experiment (a cancelled
    // run returns `Err`), so its report is cached even when its client was
    // already answered, and the identical retry is a hit.
    let body = run.map(|report| {
        let body = Arc::new(report.to_json_string());
        if inner.cfg.cache_capacity > 0 {
            lock_ok(&inner.cache).insert(job.cache_key.clone(), Arc::clone(&body));
        }
        body
    });
    match job.state.reason_code() {
        REASON_NONE => body,
        // A fired token still dominates the answer, even to an `Ok` run —
        // the same arbitration `Engine::run_with` applies to its own
        // deadline.
        reason => Err(reason_error(reason, job.state.limit_ms)),
    }
}

/// Runs one synchronous `/v1/experiments` job and hands the outcome to the
/// waiting connection thread.
fn run_experiment(inner: &ServerInner, job: Job) {
    inner.inflight.fetch_add(1, Ordering::SeqCst);
    expire(inner, &job.state);
    let result = match job.state.reason_code() {
        REASON_NONE => solve(inner, &job),
        // Expired or cancelled while queued — skip the engine entirely.
        reason => Err(reason_error(reason, job.state.limit_ms)),
    };
    job.state.complete(result);
    inner.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Runs one durable job to a terminal journal record — except under
/// drain, which deliberately leaves the job live so the next process
/// recovers and re-runs it (that survival is the journal's entire point).
fn run_durable_job(inner: &ServerInner, job: Job, id: &str) {
    inner.inflight.fetch_add(1, Ordering::SeqCst);
    expire(inner, &job.state);
    let pre_reason = job.state.reason_code();
    if pre_reason == REASON_NONE {
        let started = lock_ok(&inner.store).start(id);
        match started {
            Ok(Some(_attempt)) => {
                let run = solve(inner, &job);
                finish_durable_job(inner, &job, id, run);
            }
            // Already terminal (cancelled while queued): nothing to run.
            Ok(None) => {}
            Err(e) => {
                inner.stats.server_errors.fetch_add(1, Ordering::SeqCst);
                let _ = lock_ok(&inner.store).fail(id, "store_error", &e.to_string());
            }
        }
    } else {
        finish_durable_job(
            inner,
            &job,
            id,
            Err(reason_error(pre_reason, job.state.limit_ms)),
        );
    }
    if lock_ok(&inner.store).maybe_compact().is_err() {
        inner.stats.server_errors.fetch_add(1, Ordering::SeqCst);
    }
    lock_ok(&inner.job_states).remove(id);
    job.state.mark_finished();
    inner.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Maps a durable run's outcome to its journal record, mirroring the
/// synchronous path's fired-token-dominates arbitration.
fn finish_durable_job(
    inner: &ServerInner,
    job: &Job,
    id: &str,
    run: Result<Arc<String>, ApiError>,
) {
    let outcome = match (job.state.reason_code(), run) {
        (REASON_NONE, Ok(body)) => lock_ok(&inner.store).complete(id, &body),
        (REASON_NONE, Err(e)) => {
            if e.http_status() == 422 {
                inner.stats.solve_errors.fetch_add(1, Ordering::SeqCst);
            }
            lock_ok(&inner.store).fail(id, e.code(), &e.to_string())
        }
        (REASON_CANCEL_API, _) => lock_ok(&inner.store).cancel(id, "cancelled by client request"),
        (REASON_DRAIN, _) => {
            // Non-terminal on purpose: the restart will redeliver.
            inner.stats.drain_cancelled.fetch_add(1, Ordering::SeqCst);
            Ok(false)
        }
        (reason, _) => {
            let e = reason_error(reason, job.state.limit_ms);
            lock_ok(&inner.store).fail(id, e.code(), &e.to_string())
        }
    };
    if outcome.is_err() {
        inner.stats.server_errors.fetch_add(1, Ordering::SeqCst);
    }
}

fn update_ema(inner: &ServerInner, ms: u64) {
    let prev = inner.ema_ms.load(Ordering::SeqCst);
    let next = if prev == 0 { ms } else { (prev * 3 + ms) / 4 };
    inner.ema_ms.store(next, Ordering::SeqCst);
}

/// Adds a new job's state to the drain sweep's registry, first pruning
/// the jobs that have finished or been dropped.
fn register(inner: &ServerInner, state: &Arc<JobState>) {
    let mut reg = lock_ok(&inner.registry);
    reg.retain(|w| {
        w.upgrade()
            .is_some_and(|s| !s.finished.load(Ordering::SeqCst))
    });
    reg.push(Arc::downgrade(state));
}

fn reason_error(reason: u8, limit_ms: u64) -> ApiError {
    match reason {
        REASON_DEADLINE => ApiError::Deadline { limit_ms },
        REASON_DISCONNECT => ApiError::Cancelled("client disconnected mid-solve".to_string()),
        REASON_DRAIN => ApiError::Cancelled("server drain cancelled the experiment".to_string()),
        REASON_CANCEL_API => ApiError::Cancelled("cancelled by client request".to_string()),
        _ => ApiError::Cancelled("cancelled".to_string()),
    }
}

/// `Retry-After` estimate: the queue's expected service time from the
/// solve-time EMA, clamped to [1, 60] seconds.
fn retry_after_secs(inner: &ServerInner) -> u64 {
    let pending = lock_ok(&inner.queue).len() as u64;
    let ema = inner.ema_ms.load(Ordering::SeqCst).max(1);
    let par = inner.cfg.max_inflight.max(1) as u64;
    ((pending + 1) * ema / par / 1000).clamp(1, 60)
}

/// True when the peer is certainly gone: a 1 ms `peek` returning EOF or a
/// hard error. `WouldBlock`/`TimedOut` mean merely quiet, i.e. alive.
fn client_gone(stream: &TcpStream) -> bool {
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return true;
    }
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}

/// Parses a request body as a spec. A failure comes with its status and
/// `greencloud-error/1` body; the router parses at its edge with this
/// too, so both reject the same bodies the same way.
pub(crate) fn parse_spec(body: &[u8]) -> Result<ExperimentSpec, (u16, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400, error_body("bad_request", "body is not valid UTF-8")))?;
    ExperimentSpec::from_json_str(text).map_err(|e| {
        let err = ApiError::from(e);
        (err.http_status(), err.to_error_json())
    })
}

/// Parses `X-Deadline-Ms`: `Ok(None)` when absent. Non-numeric and
/// negative values are client errors answered with a typed 400 — never
/// silently the default.
fn parse_deadline(headers: &[(String, String)]) -> Result<Option<u64>, (u16, String)> {
    let Some(raw) = header(headers, "x-deadline-ms") else {
        return Ok(None);
    };
    raw.trim().parse::<u64>().map(Some).map_err(|_| {
        let msg = format!(
            "X-Deadline-Ms must be a non-negative integer number of milliseconds, got {raw:?}"
        );
        (400, error_body("deadline_invalid", &msg))
    })
}

/// Renders one `greencloud-progress/1` frame document (sent as its own
/// chunk, blank-line separated from the next document for readability).
fn progress_frame(kind: &str, done: u64, total: u64) -> String {
    let mut doc = Json::obj([
        ("schema", Json::from(PROGRESS_SCHEMA)),
        ("kind", Json::from(kind)),
        ("done", Json::from(done)),
        ("total", Json::from(total)),
    ])
    .render();
    doc.push('\n');
    doc
}

/// Best-effort 503 for a connection over the `max_connections` cap.
fn refuse_busy(stream: TcpStream, inner: &ServerInner) {
    inner.stats.shed.fetch_add(1, Ordering::SeqCst);
    http::refuse(stream, &inner.gate, "connection limit reached");
}

/// Serves one connection through the shared HTTP connection loop.
fn handle_connection(stream: TcpStream, inner: &ServerInner) {
    http::serve_connection(
        stream,
        &inner.gate,
        &inner.stats.client_errors,
        |s, req, close| route(s, inner, req, close),
    );
}

fn route(stream: &mut TcpStream, inner: &ServerInner, req: &Request, close: bool) -> bool {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let body = Json::obj([("status", Json::from("ok"))]).render();
            write_response(stream, 200, &[], &body, close).is_ok()
        }
        ("GET", "/v1/readyz") if inner.gate.is_draining() => {
            http::refuse_draining(stream, "server is draining")
        }
        ("GET", "/v1/readyz") => {
            let body = Json::obj([("status", Json::from("ready"))]).render();
            write_response(stream, 200, &[], &body, close).is_ok()
        }
        ("GET", "/v1/stats") => write_response(stream, 200, &[], &stats_json(inner), close).is_ok(),
        ("POST", "/v1/experiments") => handle_experiment(stream, inner, req, close),
        ("POST", "/v1/jobs") => handle_job_submit(stream, inner, req, close),
        _ => match (req.method.as_str(), http::job_id(&req.path)) {
            ("GET", Some(id)) => handle_job_get(stream, inner, id, close),
            ("DELETE", Some(id)) => handle_job_delete(stream, inner, id, close),
            _ => http::unrouted(stream, req, &inner.stats.client_errors, close),
        },
    }
}

/// The shared front of both submit routes: refuses new work while
/// draining, then parses the spec and its `X-Deadline-Ms`. `Err(keep)`
/// means the refusal has been written and says whether the connection
/// stays open.
fn read_submission(
    stream: &mut TcpStream,
    inner: &ServerInner,
    req: &Request,
    close: bool,
) -> Result<(ExperimentSpec, Option<u64>), bool> {
    inner.stats.received.fetch_add(1, Ordering::SeqCst);
    if inner.gate.is_draining() {
        let msg = "server is draining; not accepting work";
        return Err(http::refuse_draining(stream, msg));
    }
    let parsed = parse_spec(&req.body).and_then(|spec| Ok((spec, parse_deadline(&req.headers)?)));
    parsed.map_err(|(status, body)| {
        inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
        write_response(stream, status, &[], &body, close).is_ok()
    })
}

/// Sheds a request with `429` and a `Retry-After` from the solve-time EMA.
fn shed(stream: &mut TcpStream, inner: &ServerInner, close: bool) -> bool {
    inner.stats.shed.fetch_add(1, Ordering::SeqCst);
    let secs = retry_after_secs(inner);
    let msg = format!(
        "queue full ({} pending); retry after {secs}s",
        inner.cfg.queue_depth
    );
    let retry = secs.to_string();
    write_error(
        stream,
        429,
        "overloaded",
        &msg,
        &[("Retry-After", &retry)],
        close,
    )
    .is_ok()
}

/// `POST /v1/experiments`: parse → cache lookup → admit or shed →
/// wait (watching the deadline and for client disconnect) → respond.
fn handle_experiment(
    stream: &mut TcpStream,
    inner: &ServerInner,
    req: &Request,
    close: bool,
) -> bool {
    let (spec, deadline) = match read_submission(stream, inner, req, close) {
        Ok(t) => t,
        Err(keep) => return keep,
    };
    let limit_ms = deadline
        .unwrap_or(inner.cfg.default_deadline_ms)
        .clamp(1, inner.cfg.max_deadline_ms);
    // Normalized spec bytes key the cache: two differently-formatted
    // documents describing the same experiment share an entry.
    let cache_key = spec.to_json_string();
    // `X-Progress: stream` opts the response into chunked transfer
    // encoding with `greencloud-progress/1` frames ahead of the body.
    let want_stream = header(&req.headers, "x-progress").is_some_and(|v| {
        let v = v.trim();
        v.eq_ignore_ascii_case("stream") || v == "1" || v.eq_ignore_ascii_case("true")
    });
    let skip_cache = header(&req.headers, "cache-control")
        .is_some_and(|v| v.to_ascii_lowercase().contains("no-cache"));
    if !skip_cache && inner.cfg.cache_capacity > 0 {
        let hit = lock_ok(&inner.cache).get(&cache_key);
        if let Some(body) = hit {
            inner.stats.cache_hits.fetch_add(1, Ordering::SeqCst);
            inner.stats.ok.fetch_add(1, Ordering::SeqCst);
            if want_stream {
                // Streamed responses stay chunked even on a hit, so a
                // client never needs both framings: one `cached` frame,
                // then the body line.
                inner.stats.streamed.fetch_add(1, Ordering::SeqCst);
                let ok = write_chunked_head(stream, 200, &[("X-Cache", "hit")], close)
                    .and_then(|()| write_chunk(stream, progress_frame("cached", 1, 1).as_bytes()))
                    .and_then(|()| write_chunk(stream, format!("{body}\n").as_bytes()))
                    .and_then(|()| finish_chunks(stream));
                return ok.is_ok();
            }
            return write_response(stream, 200, &[("X-Cache", "hit")], &body, close).is_ok();
        }
    }
    let state = {
        let mut q = lock_ok(&inner.queue);
        if q.len() >= inner.cfg.queue_depth {
            drop(q);
            return shed(stream, inner, close);
        }
        let state = Arc::new(JobState::new(Some(limit_ms)));
        q.push_back(Job {
            spec,
            cache_key,
            state: Arc::clone(&state),
            job_id: None,
            not_before: None,
            stream: want_stream,
        });
        register(inner, &state);
        state
    };
    inner.queue_cv.notify_one();
    if want_stream {
        return stream_experiment(stream, inner, &state, close);
    }
    let result = match await_result(stream, inner, &state, |_| true) {
        Waited::Done(r) => r,
        Waited::Stopped => {
            let _ = write_error(stream, 503, "draining", NEVER_RAN, &[], true);
            return false;
        }
        Waited::Gone => return false,
    };
    match result {
        Ok(body) => {
            inner.stats.ok.fetch_add(1, Ordering::SeqCst);
            write_response(stream, 200, &[("X-Cache", "miss")], &body, close).is_ok()
        }
        Err(err) => match failure_reply(inner, &state, &err) {
            None => false,
            Some((status, body, drained)) => {
                write_response(stream, status, &[], &body, close || drained).is_ok() && !drained
            }
        },
    }
}

/// The drain backstop's message: the pool stopped (drain budget
/// exhausted) while the experiment still sat queued.
const NEVER_RAN: &str = "server stopped before the experiment ran";

/// How waiting on a queued experiment ended.
enum Waited {
    /// The worker filled the result slot.
    Done(Result<Arc<String>, ApiError>),
    /// The pool stopped before the job ran; cancelled and counted.
    Stopped,
    /// The client vanished; cancelled and counted.
    Gone,
}

/// Waits for `state`'s result, waking every 25 ms to check for a stopped
/// pool and a vanished client, and at the deadline. A passed deadline is
/// answered with the typed 408 at once, queued or running, whatever the
/// kind; claiming it fires the token, and the worker skips or abandons
/// the job in its own time. `tick` runs on each wake — the streamed path
/// writes fresh progress frames there — and returns false when the
/// client can no longer be written to.
fn await_result(
    stream: &mut TcpStream,
    inner: &ServerInner,
    state: &JobState,
    mut tick: impl FnMut(&mut TcpStream) -> bool,
) -> Waited {
    const TICK: Duration = Duration::from_millis(25);
    loop {
        {
            let mut done = lock_ok(&state.done);
            if done.is_none() {
                // Wake at the deadline while it can still be claimed.
                let wait = match state.deadline {
                    Some(d) if state.reason_code() == REASON_NONE => {
                        d.saturating_duration_since(wallclock::now()).min(TICK)
                    }
                    _ => TICK,
                };
                done = state
                    .cv
                    .wait_timeout(done, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if let Some(r) = done.take() {
                return Waited::Done(r);
            }
        }
        if expire(inner, state) {
            let err = reason_error(REASON_DEADLINE, state.limit_ms);
            return Waited::Done(Err(err));
        }
        if inner.stop_workers.load(Ordering::SeqCst) && !state.finished.load(Ordering::SeqCst) {
            state.fire(REASON_DRAIN);
            inner.stats.drain_cancelled.fetch_add(1, Ordering::SeqCst);
            return Waited::Stopped;
        }
        if !tick(stream) || client_gone(stream) {
            state.fire(REASON_DISCONNECT);
            inner.stats.disconnects.fetch_add(1, Ordering::SeqCst);
            return Waited::Gone;
        }
    }
}

/// Classifies a failed experiment: counts it and returns the status, the
/// error body, and whether the drain cancelled it (the connection then
/// closes). `None` when the client is gone — nothing is written, and the
/// disconnect was counted when it was detected.
fn failure_reply(
    inner: &ServerInner,
    state: &JobState,
    err: &ApiError,
) -> Option<(u16, String, bool)> {
    match state.reason_code() {
        REASON_DISCONNECT => None,
        REASON_DRAIN => {
            inner.stats.drain_cancelled.fetch_add(1, Ordering::SeqCst);
            let body = error_body("draining", "experiment cancelled by server drain");
            Some((503, body, true))
        }
        _ => {
            let status = err.http_status();
            let counter = match status {
                500.. => &inner.stats.server_errors,
                422 => &inner.stats.solve_errors,
                // 408s were counted where the deadline was claimed.
                408 => return Some((status, err.to_error_json(), false)),
                _ => &inner.stats.client_errors,
            };
            counter.fetch_add(1, Ordering::SeqCst);
            Some((status, err.to_error_json(), false))
        }
    }
}

/// The streamed tail of `POST /v1/experiments` with `X-Progress: stream`:
/// the 200 head and a `queued` frame commit immediately (guaranteeing at
/// least one frame before the body), fresh progress frames are relayed as
/// the worker reports them, and the final chunk is the report — or, since
/// the status is already on the wire, an in-band `greencloud-error/1`
/// document when the solve fails.
fn stream_experiment(
    stream: &mut TcpStream,
    inner: &ServerInner,
    state: &Arc<JobState>,
    close: bool,
) -> bool {
    inner.stats.streamed.fetch_add(1, Ordering::SeqCst);
    let opened = write_chunked_head(stream, 200, &[("X-Cache", "miss")], close)
        .and_then(|()| write_chunk(stream, progress_frame("queued", 0, 0).as_bytes()));
    if opened.is_err() {
        state.fire(REASON_DISCONNECT);
        inner.stats.disconnects.fetch_add(1, Ordering::SeqCst);
        return false;
    }
    let mut last_seq = 0u64;
    let progress = |s: &mut TcpStream| {
        let (seq, frame) = state.latest_progress();
        if seq == last_seq {
            return true;
        }
        last_seq = seq;
        frame.is_none_or(|p| {
            let (done, total) = p.counts();
            let line = progress_frame(p.kind(), done as u64, total as u64);
            write_chunk(s, line.as_bytes()).is_ok()
        })
    };
    let final_line = match await_result(stream, inner, state, progress) {
        Waited::Done(Ok(body)) => {
            inner.stats.ok.fetch_add(1, Ordering::SeqCst);
            format!("{body}\n")
        }
        Waited::Done(Err(err)) => match failure_reply(inner, state, &err) {
            None => return false,
            Some((_, body, _)) => format!("{body}\n"),
        },
        Waited::Stopped => {
            let line = format!("{}\n", error_body("draining", NEVER_RAN));
            let _ = write_chunk(stream, line.as_bytes()).and_then(|()| finish_chunks(stream));
            return false;
        }
        Waited::Gone => return false,
    };
    write_chunk(stream, final_line.as_bytes())
        .and_then(|()| finish_chunks(stream))
        .is_ok()
}

/// The `greencloud-job/1` state body for one job.
fn job_state_body(id: &str, e: &crate::store::JobEntry) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::from(store::JOB_SCHEMA)),
        ("job_id".to_string(), Json::from(id)),
        ("status".to_string(), Json::from(e.status.as_str())),
        ("attempts".to_string(), Json::from(u64::from(e.attempts))),
    ];
    if let Some(code) = &e.error_code {
        fields.push(("error_code".to_string(), Json::from(code.as_str())));
    }
    if let Some(msg) = &e.error_message {
        fields.push(("error_message".to_string(), Json::from(msg.as_str())));
    }
    if let Some(reason) = &e.cancel_reason {
        fields.push(("cancel_reason".to_string(), Json::from(reason.as_str())));
    }
    Json::Object(fields).render()
}

/// The `greencloud-job/1` acknowledgement body: id and status only.
fn job_ack_body(id: &str, status: &str) -> String {
    Json::obj([
        ("schema", Json::from(store::JOB_SCHEMA)),
        ("job_id", Json::from(id)),
        ("status", Json::from(status)),
    ])
    .render()
}

/// Answers `500` for a failed journal operation.
fn store_failed(stream: &mut TcpStream, inner: &ServerInner, e: ApiError, close: bool) -> bool {
    inner.stats.server_errors.fetch_add(1, Ordering::SeqCst);
    write_response(stream, 500, &[], &e.to_error_json(), close).is_ok()
}

/// `POST /v1/jobs`: parse and normalize the spec, fsync an `Accepted`
/// record, answer `202` with the content-derived job id. Resubmitting
/// identical normalized spec bytes returns the existing job in whatever
/// state it is in — acceptance is idempotent.
fn handle_job_submit(
    stream: &mut TcpStream,
    inner: &ServerInner,
    req: &Request,
    close: bool,
) -> bool {
    let (spec, deadline) = match read_submission(stream, inner, req, close) {
        Ok(t) => t,
        Err(keep) => return keep,
    };
    // Jobs are asynchronous: no deadline unless the client asks for one.
    let limit_ms = deadline.map(|v| v.clamp(1, inner.cfg.max_deadline_ms));
    let key = spec.to_json_string();
    // Admission control applies to *new* jobs only; the race between this
    // check and the push below can overshoot `queue_depth` by at most the
    // number of concurrent submitters, which is bounded by
    // `max_connections`.
    if lock_ok(&inner.queue).len() >= inner.cfg.queue_depth
        && lock_ok(&inner.store)
            .get(&store::job_id(key.as_bytes()))
            .is_none()
    {
        return shed(stream, inner, close);
    }
    let accepted = lock_ok(&inner.store).accept(&key);
    let (id, new) = match accepted {
        Ok(t) => t,
        Err(e) => return store_failed(stream, inner, e.into(), close),
    };
    let status = if new {
        let state = Arc::new(JobState::new(limit_ms));
        register(inner, &state);
        lock_ok(&inner.job_states).insert(id.clone(), Arc::clone(&state));
        lock_ok(&inner.queue).push_back(Job {
            spec,
            cache_key: key,
            state,
            job_id: Some(id.clone()),
            not_before: None,
            stream: false,
        });
        inner.queue_cv.notify_one();
        JobStatus::Accepted
    } else {
        let current = lock_ok(&inner.store).get(&id).map(|e| e.status);
        current.unwrap_or(JobStatus::Accepted)
    };
    let body = job_ack_body(&id, status.as_str());
    let location = format!("/v1/jobs/{id}");
    write_response(stream, 202, &[("Location", &location)], &body, close).is_ok()
}

/// `GET /v1/jobs/:id`: the finished report for completed jobs, a
/// `greencloud-job/1` state document otherwise.
fn handle_job_get(stream: &mut TcpStream, inner: &ServerInner, id: &str, close: bool) -> bool {
    // Clone what the response needs and release the store lock before
    // touching the socket — a slow reader must not stall the workers.
    let found = {
        let s = lock_ok(&inner.store);
        s.get(id)
            .map(|e| (e.status, e.report.clone(), job_state_body(id, e)))
    };
    let Some((status, report, state_body)) = found else {
        inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
        let msg = format!("no job {id}");
        return write_error(stream, 404, "job_not_found", &msg, &[], close).is_ok();
    };
    let job_status = [("X-Job-Status", status.as_str())];
    match (status, report) {
        (JobStatus::Completed, Some(report)) => {
            inner.stats.ok.fetch_add(1, Ordering::SeqCst);
            write_response(stream, 200, &job_status, &report, close).is_ok()
        }
        _ => write_response(stream, 200, &job_status, &state_body, close).is_ok(),
    }
}

/// `DELETE /v1/jobs/:id`: fires the job's cancel token and records a
/// terminal `Cancelled`. `job_states` holds every durable job from submit
/// or recovery until its run has returned, so the token reaches a queued
/// job and a running solve alike. Terminal jobs answer `409`.
fn handle_job_delete(stream: &mut TcpStream, inner: &ServerInner, id: &str, close: bool) -> bool {
    if let Some(state) = lock_ok(&inner.job_states).get(id).cloned() {
        state.fire(REASON_CANCEL_API);
    }
    let res = lock_ok(&inner.store).cancel(id, "cancelled by client request");
    match res {
        Err(e) => store_failed(stream, inner, e.into(), close),
        Ok(true) => {
            let body = job_ack_body(id, "cancelled");
            write_response(stream, 200, &[], &body, close).is_ok()
        }
        Ok(false) => {
            let current = lock_ok(&inner.store).get(id).map(|e| e.status);
            inner.stats.client_errors.fetch_add(1, Ordering::SeqCst);
            let (status, code, msg) = match current {
                None => (404, "job_not_found", format!("no job {id}")),
                Some(s) => (
                    409,
                    "job_terminal",
                    format!("job {id} is already {}", s.as_str()),
                ),
            };
            write_error(stream, status, code, &msg, &[], close).is_ok()
        }
    }
}

/// `GET /v1/stats` body: all counters plus instantaneous gauges.
fn stats_json(inner: &ServerInner) -> String {
    let pending = lock_ok(&inner.queue).len();
    let cached = lock_ok(&inner.cache).len();
    let s = inner.stats.snapshot();
    let js = lock_ok(&inner.store).stats();
    Json::obj([
        ("schema", Json::from("greencloud-serve-stats/1")),
        ("received", Json::from(s.received)),
        ("ok", Json::from(s.ok)),
        ("shed", Json::from(s.shed)),
        ("cache_hits", Json::from(s.cache_hits)),
        ("deadline_expired", Json::from(s.deadline_expired)),
        ("disconnects", Json::from(s.disconnects)),
        ("drain_cancelled", Json::from(s.drain_cancelled)),
        ("client_errors", Json::from(s.client_errors)),
        ("solve_errors", Json::from(s.solve_errors)),
        ("server_errors", Json::from(s.server_errors)),
        ("pending", Json::from(pending as u64)),
        (
            "inflight",
            Json::from(inner.inflight.load(Ordering::SeqCst) as u64),
        ),
        (
            "connections",
            Json::from(inner.gate.live_conns.load(Ordering::SeqCst) as u64),
        ),
        ("cached_reports", Json::from(cached as u64)),
        ("draining", Json::from(inner.gate.is_draining())),
        (
            "ema_solve_ms",
            Json::from(inner.ema_ms.load(Ordering::SeqCst)),
        ),
        ("jobs_total", Json::from(js.jobs_total)),
        ("jobs_live", Json::from(js.jobs_live)),
        ("jobs_completed", Json::from(js.jobs_completed)),
        ("jobs_failed", Json::from(js.jobs_failed)),
        ("jobs_cancelled", Json::from(js.jobs_cancelled)),
        (
            "jobs_redelivered",
            Json::from(inner.stats.jobs_redelivered.load(Ordering::SeqCst)),
        ),
        (
            "streamed",
            Json::from(inner.stats.streamed.load(Ordering::SeqCst)),
        ),
        ("journal_bytes", Json::from(js.journal_bytes)),
        ("snapshot_bytes", Json::from(js.snapshot_bytes)),
        ("compactions", Json::from(js.compactions)),
        ("rss_kb", Json::from(read_rss_kb())),
    ])
    .render()
}

/// Resident set size in KiB from `/proc/self/status`, 0 where
/// unavailable — an observability gauge, never a decision input.
fn read_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| {
                    l.chars()
                        .filter(|c| c.is_ascii_digit())
                        .collect::<String>()
                        .parse::<u64>()
                        .ok()
                })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used_live_entry() {
        let mut c = ReportCache::new(2);
        c.insert("a".into(), Arc::new("A".into()));
        c.insert("b".into(), Arc::new("B".into()));
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(c.get("a").as_deref().map(String::as_str), Some("A"));
        c.insert("c".into(), Arc::new("C".into()));
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none(), "b was LRU and must be evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn lru_reinsert_refreshes_and_capacity_zero_disables() {
        let mut c = ReportCache::new(2);
        c.insert("a".into(), Arc::new("A1".into()));
        c.insert("b".into(), Arc::new("B".into()));
        c.insert("a".into(), Arc::new("A2".into()));
        c.insert("c".into(), Arc::new("C".into()));
        assert_eq!(c.get("a").as_deref().map(String::as_str), Some("A2"));
        assert!(c.get("b").is_none());

        let mut z = ReportCache::new(0);
        z.insert("a".into(), Arc::new("A".into()));
        assert_eq!(z.len(), 0);
        assert!(z.get("a").is_none());
    }

    #[test]
    fn lru_recency_queue_stays_bounded() {
        let mut c = ReportCache::new(2);
        c.insert("a".into(), Arc::new("A".into()));
        c.insert("b".into(), Arc::new("B".into()));
        for _ in 0..10_000 {
            c.get("a");
            c.get("b");
        }
        assert!(
            c.recency.len() <= c.capacity * 8 + 16 + 2,
            "recency queue grew to {}",
            c.recency.len()
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fire_is_first_cause_wins() {
        let s = JobState::new(Some(100));
        assert_eq!(s.reason_code(), REASON_NONE);
        assert!(!s.cancel.load(Ordering::SeqCst));
        s.fire(REASON_DISCONNECT);
        s.fire(REASON_DEADLINE);
        s.fire(REASON_DRAIN);
        assert_eq!(s.reason_code(), REASON_DISCONNECT);
        assert!(s.cancel.load(Ordering::SeqCst));
    }

    #[test]
    fn reason_errors_are_typed() {
        assert_eq!(
            reason_error(REASON_DEADLINE, 250),
            ApiError::Deadline { limit_ms: 250 }
        );
        assert!(matches!(
            reason_error(REASON_DISCONNECT, 0),
            ApiError::Cancelled(_)
        ));
        assert!(matches!(
            reason_error(REASON_DRAIN, 0),
            ApiError::Cancelled(_)
        ));
    }

    #[test]
    fn config_normalization_clamps_degenerate_values() {
        let engine = Engine::new(greencloud_climate::catalog::WorldCatalog::synthetic(24, 7));
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 0,
            queue_depth: 0,
            default_deadline_ms: 0,
            max_deadline_ms: 0,
            ..ServeConfig::default()
        };
        let server = Server::bind(engine, cfg).expect("binds");
        assert_eq!(server.inner.cfg.max_inflight, 1);
        assert_eq!(server.inner.cfg.queue_depth, 1);
        assert_eq!(server.inner.cfg.max_deadline_ms, 1);
        assert_eq!(server.inner.cfg.default_deadline_ms, 1);
        server.trigger_shutdown();
        let summary = server.join();
        assert_eq!(summary.received, 0);
    }

    #[test]
    fn ema_and_retry_after_stay_clamped() {
        let engine = Engine::new(greencloud_climate::catalog::WorldCatalog::synthetic(24, 7));
        let server = Server::bind(
            engine,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
        )
        .expect("binds");
        assert_eq!(
            retry_after_secs(&server.inner),
            1,
            "empty queue floors at 1s"
        );
        update_ema(&server.inner, 1000);
        update_ema(&server.inner, 2000);
        let ema = server.inner.ema_ms.load(Ordering::SeqCst);
        assert!((1000..=2000).contains(&ema), "ema {ema}");
        server.inner.ema_ms.store(10_000_000, Ordering::SeqCst);
        assert_eq!(retry_after_secs(&server.inner), 60, "cap at 60s");
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn deadline_header_distinguishes_absent_valid_and_malformed() {
        let hdrs = |v: &str| vec![("x-deadline-ms".to_string(), v.to_string())];
        assert_eq!(parse_deadline(&[]), Ok(None));
        assert_eq!(parse_deadline(&hdrs("250")), Ok(Some(250)));
        assert_eq!(parse_deadline(&hdrs(" 42 ")), Ok(Some(42)));
        for raw in ["-5", "soon", "1.5"] {
            let Err((status, body)) = parse_deadline(&hdrs(raw)) else {
                panic!("{raw:?} must be rejected");
            };
            assert_eq!(status, 400);
            let doc = Json::parse(&body).expect("parses");
            let field = |k| doc.get(k).and_then(Json::as_str).unwrap_or_default();
            assert_eq!(field("code"), "deadline_invalid");
            assert!(field("message").contains(&format!("{raw:?}")), "{body}");
        }
    }
}
