//! HTTP contract tests for `repro serve`: routing, error codes, admission
//! control, deadlines, caching, and drain — all against a real listener.

mod common;

use common::{annual_spec, http, http_raw, siting_spec, slow_siting_spec, start, ResponseExt};
use greencloud_api::http::Response;
use greencloud_api::json::Json;
use greencloud_api::ExperimentSpec;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn health_and_stats_endpoints_respond() {
    let (server, addr) = start(|_| {});

    let h = http(addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(h.status, 200);
    assert_eq!(h.json().get("status").and_then(|j| j.as_str()), Some("ok"));

    let r = http(addr, "GET", "/v1/readyz", &[], None);
    assert_eq!(r.status, 200);
    assert_eq!(
        r.json().get("status").and_then(|j| j.as_str()),
        Some("ready")
    );

    let s = http(addr, "GET", "/v1/stats", &[], None);
    assert_eq!(s.status, 200);
    assert!(s.json().get("received").is_some(), "stats exposes counters");

    server.trigger_shutdown();
    server.join();
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let (server, addr) = start(|_| {});

    let nf = http(addr, "GET", "/nope", &[], None);
    assert_eq!(nf.status, 404);
    assert_eq!(nf.code().as_deref(), Some("not_found"));

    let mna = http(addr, "POST", "/v1/healthz", &[], Some(b"{}"));
    assert_eq!(mna.status, 405);
    assert_eq!(mna.code().as_deref(), Some("method_not_allowed"));
    assert!(mna.header("Allow").is_some(), "405 carries Allow header");

    let get_exp = http(addr, "GET", "/v1/experiments", &[], None);
    assert_eq!(get_exp.status, 405);

    server.trigger_shutdown();
    server.join();
}

#[test]
fn malformed_spec_is_a_schema_versioned_400() {
    let (server, addr) = start(|_| {});

    let resp = http(
        addr,
        "POST",
        "/v1/experiments",
        &[],
        Some(b"{\"this is\": not json"),
    );
    assert_eq!(resp.status, 400);
    let doc = resp.json();
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some("greencloud-error/1")
    );
    assert_eq!(resp.code().as_deref(), Some("spec_invalid"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn oversized_body_and_missing_length_are_rejected() {
    let (server, addr) = start(|cfg| cfg.max_body_bytes = 256);

    let big = vec![b'x'; 512];
    let too_big = http(addr, "POST", "/v1/experiments", &[], Some(&big));
    assert_eq!(too_big.status, 413);
    assert_eq!(too_big.code().as_deref(), Some("body_too_large"));

    let no_len = http_raw(
        addr,
        b"POST /v1/experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(no_len.status, 411);
    assert_eq!(no_len.code().as_deref(), Some("length_required"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn overload_sheds_with_retry_after() {
    let (server, addr) = start(|cfg| {
        cfg.max_inflight = 1;
        cfg.queue_depth = 1;
        cfg.cache_capacity = 0;
    });

    // Six concurrent multi-hundred-ms solves against one worker and one
    // queue slot: at most two can be admitted at the moment of the burst,
    // so at least one of the six must come back 429 + Retry-After rather
    // than be queued unboundedly.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let body = annual_spec(8760, 32, i * 100).to_json_string().into_bytes();
            thread::spawn(move || {
                let resp = http(
                    addr,
                    "POST",
                    "/v1/experiments",
                    &[("Cache-Control", "no-cache")],
                    Some(&body),
                );
                let retry = resp.header("Retry-After").map(str::to_string);
                (resp.status, resp.code(), retry)
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    for (status, _, _) in &outcomes {
        assert!(
            *status == 200 || *status == 429,
            "burst statuses must be 200 or 429, got {status}"
        );
    }
    assert!(
        outcomes.iter().any(|(s, _, _)| *s == 200),
        "admitted requests complete: {outcomes:?}"
    );
    let shed: Vec<_> = outcomes.iter().filter(|(s, _, _)| *s == 429).collect();
    assert!(
        !shed.is_empty(),
        "burst must overflow the queue: {outcomes:?}"
    );
    for (_, code, retry) in &shed {
        assert_eq!(code.as_deref(), Some("overloaded"));
        let secs: u64 = retry
            .as_deref()
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((1..=60).contains(&secs));
    }

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.shed >= 1, "summary counts the shed requests");
}

#[test]
fn per_request_deadline_yields_typed_408() {
    let (server, addr) = start(|cfg| cfg.cache_capacity = 0);

    let body = annual_spec(8760, 16, 0).to_json_string().into_bytes();
    let resp = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("X-Deadline-Ms", "1")],
        Some(&body),
    );
    assert_eq!(resp.status, 408, "1ms deadline must expire: {}", resp.body);
    assert_eq!(resp.code().as_deref(), Some("deadline_exceeded"));
    assert_eq!(
        resp.json().get("limit_ms").and_then(|j| j.as_u64()),
        Some(1),
        "error body names the limit: {}",
        resp.body
    );

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.deadline_expired >= 1);
}

/// POSTs `spec` to `/v1/experiments` from a client thread, which returns
/// the response and how long it took to arrive.
fn post_timed(
    addr: SocketAddr,
    spec: &ExperimentSpec,
    headers: &'static [(&'static str, &'static str)],
) -> thread::JoinHandle<(Response, Duration)> {
    let body = spec.to_json_string().into_bytes();
    thread::spawn(move || {
        let t0 = Instant::now();
        let resp = http(addr, "POST", "/v1/experiments", headers, Some(&body));
        (resp, t0.elapsed())
    })
}

/// A `/v1/stats` counter.
fn stat(addr: SocketAddr, key: &str) -> Option<u64> {
    let stats = http(addr, "GET", "/v1/stats", &[], None).json();
    stats.get(key).and_then(Json::as_u64)
}

/// Asserts a `deadline_exceeded` error document naming the 300 ms limit.
fn assert_deadline_300(doc: &Json, what: &str) {
    let code = doc.get("code").and_then(Json::as_str);
    assert_eq!(code, Some("deadline_exceeded"), "{what}: {}", doc.render());
    let limit = doc.get("limit_ms").and_then(Json::as_u64);
    assert_eq!(limit, Some(300), "{what}: {}", doc.render());
}

#[test]
fn every_kind_gets_its_408_on_time_running_or_queued() {
    // One worker. A siting search does not poll the cancel token and runs
    // for seconds, so the worker stays busy long after every deadline.
    let (server, addr) = start(|cfg| cfg.max_inflight = 1);
    const DEADLINE: &[(&str, &str)] = &[("X-Deadline-Ms", "300")];
    const STREAMED: &[(&str, &str)] = &[("X-Deadline-Ms", "300"), ("X-Progress", "stream")];

    // The running siting, sent alone.
    let siting = post_timed(addr, &slow_siting_spec(), DEADLINE);
    let t0 = Instant::now();
    while stat(addr, "inflight") != Some(1) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the siting never ran"
        );
        thread::sleep(Duration::from_millis(10));
    }
    // Two annuals queued behind it: one plain, one streamed.
    let queued = post_timed(addr, &annual_spec(48, 4, 100), DEADLINE);
    let streamed = post_timed(addr, &annual_spec(48, 4, 200), STREAMED);

    let answered = [
        ("running siting", siting),
        ("queued annual", queued),
        ("queued streamed annual", streamed),
    ]
    .map(|(what, client)| (what, client.join().expect("client thread")));
    let late: Vec<_> = answered
        .iter()
        .filter(|(_, (_, took))| *took >= Duration::from_secs(1))
        .map(|(what, (_, took))| format!("{what} after {took:?}"))
        .collect();
    assert!(late.is_empty(), "answered late: {late:?}");
    for (what, (resp, _)) in &answered[..2] {
        assert_eq!(resp.status, 408, "{what}: {}", resp.body);
        assert_deadline_300(&resp.json(), what);
    }
    // The streamed response committed its 200 head at once, so the
    // deadline arrives in band as its final document.
    let (what, (resp, _)) = &answered[2];
    assert_eq!(resp.status, 200, "{what}: {}", resp.body);
    assert!(resp.chunked, "streaming uses chunked transfer encoding");
    let last = Json::parse(&resp.final_document()).expect("final document parses");
    assert_deadline_300(&last, what);

    // Each expired request is counted once: by its waiting client here,
    // not again when the worker later skips or finishes its job.
    assert_eq!(stat(addr, "deadline_expired"), Some(3));
    server.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.deadline_expired, 3, "{summary:?}");
    assert_eq!(summary.ok, 0, "{summary:?}");
}

#[test]
fn a_durable_job_fails_with_its_own_deadline() {
    // Nobody waits on a durable job: the engine's timer stops the run at
    // what is left of its budget, and the job fails naming the request's
    // own limit.
    let (server, addr) = start(|cfg| cfg.max_inflight = 1);
    let body = annual_spec(200_000, 8, 0).to_json_string().into_bytes();
    let ack = http(
        addr,
        "POST",
        "/v1/jobs",
        &[("X-Deadline-Ms", "200")],
        Some(&body),
    );
    assert_eq!(ack.status, 202, "{}", ack.body);
    let id = ack
        .json()
        .get("job_id")
        .and_then(Json::as_str)
        .map(str::to_string);
    let path = format!("/v1/jobs/{}", id.expect("job id"));
    let t0 = Instant::now();
    let done = loop {
        let poll = http(addr, "GET", &path, &[], None);
        if matches!(
            poll.header("X-Job-Status"),
            Some("completed" | "failed" | "cancelled")
        ) {
            break poll;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "{}", poll.body);
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(done.header("X-Job-Status"), Some("failed"), "{}", done.body);
    let doc = done.json();
    let field = |k| doc.get(k).and_then(Json::as_str);
    assert_eq!(
        field("error_code"),
        Some("deadline_exceeded"),
        "{}",
        done.body
    );
    assert_eq!(
        field("error_message"),
        Some("deadline exceeded after 200 ms"),
        "{}",
        done.body
    );

    server.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.deadline_expired, 1, "{summary:?}");
}

#[test]
fn a_report_that_finishes_after_its_408_is_cached() {
    // A siting search runs on after its client's 408. The report it ends
    // with is cached, so the same spec sent again without a deadline is
    // answered from the cache instead of by a second search.
    let (server, addr) = start(|cfg| cfg.max_inflight = 1);
    let body = slow_siting_spec().to_json_string().into_bytes();
    let late = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("X-Deadline-Ms", "300")],
        Some(&body),
    );
    assert_eq!(late.status, 408, "{}", late.body);
    assert_deadline_300(&late.json(), "siting");
    let t0 = Instant::now();
    while stat(addr, "pending") != Some(0) || stat(addr, "inflight") != Some(0) {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "the siting never finished"
        );
        thread::sleep(Duration::from_millis(20));
    }
    let again = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.header("X-Cache"), Some("hit"));

    server.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.deadline_expired, 1, "{summary:?}");
    assert_eq!(summary.cache_hits, 1, "{summary:?}");
}

#[test]
fn repeated_spec_hits_the_report_cache() {
    let (server, addr) = start(|_| {});

    let body = siting_spec().to_json_string().into_bytes();
    let first = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Cache"), Some("miss"));

    let second = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache"), Some("hit"));
    assert_eq!(
        first.body, second.body,
        "cache returns byte-identical report"
    );

    // Whitespace-different but semantically identical spec still hits:
    // the key is the normalized spec, not the raw bytes.
    let spaced = {
        let mut s = String::from_utf8(body.clone()).expect("utf8");
        s.push_str("  \n");
        s.into_bytes()
    };
    let third = http(addr, "POST", "/v1/experiments", &[], Some(&spaced));
    assert_eq!(third.status, 200);
    assert_eq!(third.header("X-Cache"), Some("hit"));

    // no-cache bypasses the lookup.
    let fourth = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("Cache-Control", "no-cache")],
        Some(&body),
    );
    assert_eq!(fourth.status, 200);
    assert_eq!(fourth.header("X-Cache"), Some("miss"));

    server.trigger_shutdown();
    let summary = server.join();
    assert!(summary.cache_hits >= 2);
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, addr) = start(|_| {});
    let mut session = common::Session::connect(addr);

    // Mixed traffic over a single TcpStream: health checks, a solve, a
    // cache hit, and a typed 404 — each response framed by Content-Length,
    // none closing the connection.
    let health = session.send("GET", "/v1/healthz", &[], None);
    assert_eq!(health.status, 200);
    assert_eq!(health.header("Connection"), Some("keep-alive"));

    let body = siting_spec().to_json_string().into_bytes();
    let first = session.send("POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Cache"), Some("miss"));
    let second = session.send("POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);

    let missing = session.send("GET", "/v1/nope", &[], None);
    assert_eq!(missing.status, 404);
    let stats = session.send("GET", "/v1/stats", &[], None);
    assert_eq!(stats.status, 200);

    drop(session);
    server.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.server_errors, 0);
}

#[test]
fn streamed_solve_sends_progress_frames_then_the_report() {
    let (server, addr) = start(|_| {});
    let mut session = common::Session::connect(addr);
    let body = annual_spec(48, 4, 6_000).to_json_string().into_bytes();

    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&body),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.chunked, "streaming uses chunked transfer encoding");
    assert_eq!(resp.header("X-Cache"), Some("miss"));
    let frames = resp.progress_frames();
    assert!(
        !frames.is_empty(),
        "at least one progress frame precedes the body"
    );
    for frame in &frames {
        let done = frame.get("done").and_then(Json::as_u64).expect("done");
        let total = frame.get("total").and_then(Json::as_u64).expect("total");
        assert!(done <= total.max(1), "frame out of range: {done}/{total}");
    }
    let report = Json::parse(&resp.final_document()).expect("final document parses");
    assert!(report
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("")
        .starts_with("greencloud-report/"));

    // The identical spec over the same connection: a streamed cache hit —
    // one `cached` frame, then the byte-identical report.
    let resp = session.send(
        "POST",
        "/v1/experiments",
        &[("X-Progress", "stream")],
        Some(&body),
    );
    assert_eq!(resp.status, 200);
    assert!(resp.chunked);
    assert_eq!(resp.header("X-Cache"), Some("hit"));
    assert_eq!(
        resp.progress_frames()
            .first()
            .and_then(|f| f.get("kind").and_then(Json::as_str).map(str::to_string)),
        Some("cached".to_string())
    );
    assert_eq!(resp.final_document(), report.render().trim_end());

    drop(session);
    server.trigger_shutdown();
    server.join();
}

#[test]
fn drain_refuses_new_work_and_exits_cleanly() {
    let (server, addr) = start(|_| {});
    let handle = server.handle();

    let warm = http(addr, "GET", "/v1/healthz", &[], None);
    assert_eq!(warm.status, 200);

    handle.trigger_shutdown();
    let summary = server.join();
    assert_eq!(summary.server_errors, 0);
}
