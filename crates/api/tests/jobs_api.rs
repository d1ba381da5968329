//! Tentpole: the durable job API end to end over HTTP.
//!
//! Covers the full lifecycle (`POST /v1/jobs` → 202 → poll →
//! completed report identical to a synchronous solve), idempotent
//! resubmission under the content-derived id, cancellation via `DELETE`
//! with its 404/409 edges, the typed 400 for malformed `X-Deadline-Ms`
//! (satellite), `/v1/stats` job counters (satellite), and — the point of
//! the PR — restart recovery: a journal written by one server instance is
//! replayed by the next, completed reports come back byte-identical, and
//! jobs that kept crashing are failed terminally as `retries_exhausted`
//! instead of being redelivered forever.

mod common;

use common::{
    annual_spec, http, normalize_report_json, remove_journal, start, temp_path, ResponseExt, SEED,
};
use greencloud_api::http::Response;
use greencloud_api::json::Json;
use greencloud_api::{Engine, JobStore, ServeConfig, Server};
use greencloud_climate::catalog::WorldCatalog;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

/// Polls `GET /v1/jobs/:id` until `X-Job-Status` is terminal, then
/// returns the final response. Panics after `budget_ms`.
fn wait_terminal(addr: SocketAddr, id: &str, budget_ms: u64) -> Response {
    let mut waited = 0u64;
    loop {
        let resp = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], None);
        assert_eq!(resp.status, 200, "poll {id}: {}", resp.body);
        let status = resp
            .header("X-Job-Status")
            .unwrap_or_else(|| panic!("poll {id}: no X-Job-Status header"))
            .to_string();
        if matches!(status.as_str(), "completed" | "failed" | "cancelled") {
            return resp;
        }
        assert!(
            waited < budget_ms,
            "job {id} not terminal after {budget_ms} ms"
        );
        thread::sleep(Duration::from_millis(100));
        waited += 100;
    }
}

fn submit(addr: SocketAddr, body: &[u8]) -> (u16, String, Json) {
    let resp = http(addr, "POST", "/v1/jobs", &[], Some(body));
    let doc = resp.json();
    let id = doc
        .get("job_id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    (resp.status, id, doc)
}

#[test]
fn job_completes_and_report_matches_synchronous_solve() {
    let (server, addr) = start(|cfg| {
        cfg.default_deadline_ms = 120_000;
    });
    let body = annual_spec(48, 4, 0).to_json_string().into_bytes();

    let resp = http(addr, "POST", "/v1/jobs", &[], Some(&body));
    assert_eq!(resp.status, 202, "{}", resp.body);
    let ack = resp.json();
    assert_eq!(
        ack.get("schema").and_then(Json::as_str),
        Some("greencloud-job/1")
    );
    let id = ack
        .get("job_id")
        .and_then(Json::as_str)
        .expect("202 carries job_id")
        .to_string();
    assert_eq!(id.len(), 32, "content-derived id is 32 hex chars: {id}");
    assert_eq!(
        resp.header("Location"),
        Some(format!("/v1/jobs/{id}").as_str())
    );

    let done = wait_terminal(addr, &id, 120_000);
    assert_eq!(
        done.header("X-Job-Status"),
        Some("completed"),
        "{}",
        done.body
    );

    // The job's report must match a synchronous solve of the same spec,
    // byte for byte once clocks are zeroed.
    let sync = http(
        addr,
        "POST",
        "/v1/experiments",
        &[("Cache-Control", "no-cache")],
        Some(&body),
    );
    assert_eq!(sync.status, 200, "{}", sync.body);
    assert_eq!(
        normalize_report_json(&done.body),
        normalize_report_json(&sync.body)
    );

    // DELETE on a terminal job is a conflict, not a cancellation.
    let del = http(addr, "DELETE", &format!("/v1/jobs/{id}"), &[], None);
    assert_eq!(del.status, 409, "{}", del.body);
    assert_eq!(del.code().as_deref(), Some("job_terminal"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn resubmission_is_idempotent_and_unknown_ids_are_404() {
    let (server, addr) = start(|cfg| {
        cfg.default_deadline_ms = 120_000;
    });
    let body = annual_spec(48, 4, 24).to_json_string().into_bytes();

    let (s1, id1, _) = submit(addr, &body);
    assert_eq!(s1, 202);
    let (s2, id2, _) = submit(addr, &body);
    assert_eq!(s2, 202, "resubmitting the same spec is acknowledged again");
    assert_eq!(id1, id2, "the id is derived from the spec content");

    // A different spec gets a different id.
    let other = annual_spec(48, 4, 48).to_json_string().into_bytes();
    let (_, id3, _) = submit(addr, &other);
    assert_ne!(id1, id3);

    let missing = http(
        addr,
        "GET",
        "/v1/jobs/feedfacefeedfacefeedfacefeedface",
        &[],
        None,
    );
    assert_eq!(missing.status, 404);
    assert_eq!(missing.code().as_deref(), Some("job_not_found"));
    let missing = http(
        addr,
        "DELETE",
        "/v1/jobs/feedfacefeedfacefeedfacefeedface",
        &[],
        None,
    );
    assert_eq!(missing.status, 404);

    wait_terminal(addr, &id1, 120_000);
    wait_terminal(addr, &id3, 120_000);
    server.trigger_shutdown();
    server.join();
}

#[test]
fn delete_cancels_a_queued_job() {
    // One worker: the first (slow) job occupies it while the second sits
    // in the queue, where DELETE must reach it before it ever starts.
    let (server, addr) = start(|cfg| {
        cfg.max_inflight = 1;
        cfg.default_deadline_ms = 120_000;
    });
    let slow = annual_spec(720, 8, 0).to_json_string().into_bytes();
    let queued = annual_spec(720, 8, 1000).to_json_string().into_bytes();

    let (s1, slow_id, _) = submit(addr, &slow);
    assert_eq!(s1, 202);
    let (s2, queued_id, _) = submit(addr, &queued);
    assert_eq!(s2, 202);

    let del = http(addr, "DELETE", &format!("/v1/jobs/{queued_id}"), &[], None);
    assert_eq!(del.status, 200, "{}", del.body);
    let done = wait_terminal(addr, &queued_id, 120_000);
    let doc = done.json();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("cancelled"));
    assert!(doc.get("cancel_reason").and_then(Json::as_str).is_some());

    // The slow job is unaffected by its neighbor's cancellation.
    let done = wait_terminal(addr, &slow_id, 180_000);
    assert_eq!(done.header("X-Job-Status"), Some("completed"));

    server.trigger_shutdown();
    server.join();
}

#[test]
fn delete_cancels_a_running_job() {
    // One worker, taken by a solve that would run for many seconds:
    // DELETE must stop it mid-run, or the next job waits for the worker.
    let (server, addr) = start(|cfg| cfg.max_inflight = 1);
    let endless = annual_spec(200_000, 8, 0).to_json_string().into_bytes();
    let (s, id, _) = submit(addr, &endless);
    assert_eq!(s, 202);
    for waited in (0..).step_by(20) {
        let resp = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], None);
        if resp.header("X-Job-Status") == Some("started") {
            break;
        }
        assert!(waited < 30_000, "job {id} never started: {}", resp.body);
        thread::sleep(Duration::from_millis(20));
    }

    let del = http(addr, "DELETE", &format!("/v1/jobs/{id}"), &[], None);
    assert_eq!(del.status, 200, "{}", del.body);
    let done = wait_terminal(addr, &id, 30_000);
    assert_eq!(done.header("X-Job-Status"), Some("cancelled"));

    // A day's emulation takes tens of milliseconds; the abandoned solve
    // would hold the only worker for many seconds more.
    let next = annual_spec(24, 4, 0).to_json_string().into_bytes();
    let (s, next_id, _) = submit(addr, &next);
    assert_eq!(s, 202);
    let done = wait_terminal(addr, &next_id, 5_000);
    assert_eq!(
        done.header("X-Job-Status"),
        Some("completed"),
        "{}",
        done.body
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn malformed_deadline_header_is_a_typed_400() {
    let (server, addr) = start(|_| {});
    let body = annual_spec(24, 4, 0).to_json_string().into_bytes();

    for bad in ["banana", "-5", "12.5", "1e3"] {
        for path in ["/v1/experiments", "/v1/jobs"] {
            let resp = http(addr, "POST", path, &[("X-Deadline-Ms", bad)], Some(&body));
            assert_eq!(
                resp.status, 400,
                "{path} with X-Deadline-Ms: {bad}: {}",
                resp.body
            );
            assert_eq!(
                resp.code().as_deref(),
                Some("deadline_invalid"),
                "{path} with {bad}"
            );
            assert_eq!(
                resp.json().get("schema").and_then(Json::as_str),
                Some("greencloud-error/1")
            );
        }
    }

    server.trigger_shutdown();
    server.join();
}

#[test]
fn restart_serves_completed_reports_byte_identical() {
    let journal = temp_path("restart");
    remove_journal(&journal);
    let journal_str = journal.to_string_lossy().to_string();
    let body = annual_spec(48, 4, 72).to_json_string().into_bytes();

    let (server, addr) = start(|cfg| {
        cfg.journal_path = Some(journal_str.clone());
        cfg.default_deadline_ms = 120_000;
    });
    let (status, id, _) = submit(addr, &body);
    assert_eq!(status, 202);
    let first = wait_terminal(addr, &id, 120_000);
    assert_eq!(first.header("X-Job-Status"), Some("completed"));
    server.trigger_shutdown();
    server.join();

    // A second instance over the same journal serves the identical bytes
    // without re-running anything.
    let (server, addr) = start(|cfg| {
        cfg.journal_path = Some(journal_str.clone());
    });
    let resp = http(addr, "GET", &format!("/v1/jobs/{id}"), &[], None);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("X-Job-Status"), Some("completed"));
    assert_eq!(
        resp.body, first.body,
        "recovered report must be byte-identical"
    );

    // The warmed report cache also answers the synchronous endpoint.
    let sync = http(addr, "POST", "/v1/experiments", &[], Some(&body));
    assert_eq!(sync.status, 200);
    assert_eq!(
        sync.header("X-Cache"),
        Some("hit"),
        "recovery warms the LRU"
    );

    server.trigger_shutdown();
    server.join();
    remove_journal(&journal);
}

#[test]
fn restart_runs_accepted_jobs_and_exhausts_crashlooping_ones() {
    let journal = temp_path("recover");
    remove_journal(&journal);
    let runnable = annual_spec(24, 4, 96).to_json_string();
    let crashloop = annual_spec(24, 4, 120).to_json_string();

    // Craft the journal a crashed server would leave behind: one job
    // acknowledged but never started, one started three times without
    // ever finishing.
    let mut store = JobStore::open(&journal).expect("open journal");
    let (run_id, _) = store.accept(&runnable).expect("accept runnable");
    let (crash_id, _) = store.accept(&crashloop).expect("accept crashloop");
    for _ in 0..3 {
        store.start(&crash_id).expect("start crashloop");
    }
    drop(store);

    let engine = Engine::new(WorldCatalog::anchors_only(SEED));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_path: Some(journal.to_string_lossy().to_string()),
        max_redeliveries: 3,
        default_deadline_ms: 120_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(engine, cfg).expect("bind");
    let addr = server.local_addr();

    // The never-started job is redelivered and completes.
    let done = wait_terminal(addr, &run_id, 120_000);
    assert_eq!(
        done.header("X-Job-Status"),
        Some("completed"),
        "{}",
        done.body
    );

    // The crash-looping job burned its three attempts: terminally failed
    // at startup, never run again.
    let failed = wait_terminal(addr, &crash_id, 10_000);
    let doc = failed.json();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
    assert_eq!(
        doc.get("error_code").and_then(Json::as_str),
        Some("retries_exhausted")
    );
    assert_eq!(
        doc.get("attempts").and_then(Json::as_u64),
        Some(3),
        "no further delivery after exhaustion"
    );

    server.trigger_shutdown();
    server.join();
    remove_journal(&journal);
}

#[test]
fn stats_expose_job_store_counters() {
    let journal = temp_path("stats");
    remove_journal(&journal);
    let (server, addr) = start(|cfg| {
        cfg.journal_path = Some(journal.to_string_lossy().to_string());
        cfg.default_deadline_ms = 120_000;
    });
    let body = annual_spec(24, 4, 144).to_json_string().into_bytes();
    let (status, id, _) = submit(addr, &body);
    assert_eq!(status, 202);
    wait_terminal(addr, &id, 120_000);

    let stats = http(addr, "GET", "/v1/stats", &[], None).json();
    let field = |k: &str| {
        stats
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats field {k}"))
    };
    assert_eq!(field("jobs_total"), 1);
    assert_eq!(field("jobs_completed"), 1);
    assert_eq!(field("jobs_live"), 0);
    assert_eq!(field("jobs_failed"), 0);
    assert_eq!(field("jobs_cancelled"), 0);
    assert!(
        field("journal_bytes") > 0,
        "the journal holds the job's records"
    );

    server.trigger_shutdown();
    server.join();
    remove_journal(&journal);
}
