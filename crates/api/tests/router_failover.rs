//! Failover integration tests: one of two backends dies mid-burst and
//! every acknowledged job still reaches a terminal state with a
//! byte-identical report, whichever backend ends up running it.

mod common;

use common::{
    annual_spec, http, normalize_report_json, remove_journal, start, start_router, temp_path,
    ResponseExt,
};
use greencloud_api::json::Json;
use greencloud_api::{Engine, ServeConfig, Server};
use greencloud_climate::catalog::WorldCatalog;
use std::time::{Duration, Instant};

/// Polls `GET /v1/jobs/:id` through the router until the job is terminal;
/// returns the completed report body. Tolerates transient 404s — while a
/// restarted owner is still marked down, lookups may briefly reach only
/// the other backend.
fn wait_completed(router: std::net::SocketAddr, id: &str, budget_ms: u64) -> String {
    let deadline = Instant::now() + Duration::from_millis(budget_ms);
    loop {
        assert!(
            Instant::now() < deadline,
            "job {id} did not complete within {budget_ms} ms"
        );
        let resp = http(router, "GET", &format!("/v1/jobs/{id}"), &[], None);
        match resp.status {
            200 => {
                let doc = resp.json();
                if doc.get("schema").and_then(Json::as_str) != Some("greencloud-job/1") {
                    return resp.body;
                }
                match doc.get("status").and_then(Json::as_str) {
                    Some("failed") | Some("cancelled") => {
                        panic!("job {id} ended abnormally: {}", resp.body)
                    }
                    _ => {}
                }
            }
            404 | 503 => {}
            other => panic!("job {id}: unexpected status {other}: {}", resp.body),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Waits until the router's readyz reports `n` live backends.
fn wait_backends_up(router: std::net::SocketAddr, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "probe never saw {n} backends up");
        let resp = http(router, "GET", "/v1/readyz", &[], None);
        if resp.status == 200 && resp.json().get("backends_up").and_then(Json::as_u64) == Some(n) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The headline failover scenario: jobs are acknowledged through the
/// router against two durable backends, backend A goes dark mid-burst,
/// later submissions fail over to B, A is restarted over its journal, and
/// *every* acknowledged job completes with a report byte-identical to a
/// fresh reference solve.
#[test]
fn backend_death_mid_burst_loses_no_acknowledged_job() {
    let journal_a = temp_path("failover-a");
    let journal_b = temp_path("failover-b");
    remove_journal(&journal_a);
    remove_journal(&journal_b);

    let (server_a, addr_a) = start(|cfg| {
        cfg.journal_path = Some(journal_a.to_string_lossy().to_string());
        cfg.default_deadline_ms = 120_000;
    });
    let (server_b, addr_b) = start(|cfg| {
        cfg.journal_path = Some(journal_b.to_string_lossy().to_string());
        cfg.default_deadline_ms = 120_000;
    });
    let (router, router_addr) = start_router(&[addr_a, addr_b], |_| {});

    // Phase 1: acknowledge a first wave of distinct jobs across the ring.
    let mut acknowledged: Vec<String> = Vec::new();
    let mut specs: Vec<Vec<u8>> = Vec::new();
    for i in 0..4u64 {
        let spec = annual_spec(48, 4, (i * 24) as usize)
            .to_json_string()
            .into_bytes();
        let ack = http(router_addr, "POST", "/v1/jobs", &[], Some(&spec));
        assert_eq!(ack.status, 202, "wave 1 job {i}: {}", ack.body);
        let id = ack
            .json()
            .get("job_id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .expect("job_id");
        acknowledged.push(id);
        specs.push(spec);
    }

    // Mid-burst: backend A dies. Its journal keeps whatever it owned.
    server_a.trigger_shutdown();
    server_a.join();

    // Phase 2: more submissions while A is dark — every one must still be
    // acknowledged (jobs owned by A fail over to B).
    for i in 4..8u64 {
        let spec = annual_spec(48, 4, (i * 24) as usize)
            .to_json_string()
            .into_bytes();
        let ack = http(router_addr, "POST", "/v1/jobs", &[], Some(&spec));
        assert_eq!(ack.status, 202, "wave 2 job {i}: {}", ack.body);
        let id = ack
            .json()
            .get("job_id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .expect("job_id");
        acknowledged.push(id);
        specs.push(spec);
    }

    // A restarts on its old address over its old journal: unfinished jobs
    // are recovered and re-run.
    let engine = Engine::new(WorldCatalog::anchors_only(common::SEED));
    let cfg = ServeConfig {
        addr: addr_a.to_string(),
        journal_path: Some(journal_a.to_string_lossy().to_string()),
        default_deadline_ms: 120_000,
        ..ServeConfig::default()
    };
    let server_a = Server::bind(engine, cfg).expect("rebind backend A");
    wait_backends_up(router_addr, 2);

    // Every acknowledged job reaches `completed`, and the stored report is
    // byte-identical to a fresh no-cache reference solve of the same spec.
    for (id, spec) in acknowledged.iter().zip(&specs) {
        let report = wait_completed(router_addr, id, 120_000);
        let reference = http(
            router_addr,
            "POST",
            "/v1/experiments",
            &[("Cache-Control", "no-cache")],
            Some(spec),
        );
        assert_eq!(
            reference.status, 200,
            "reference for {id}: {}",
            reference.body
        );
        assert_eq!(
            normalize_report_json(&report),
            normalize_report_json(&reference.body),
            "job {id}: recovered report differs from the reference solve"
        );
    }

    router.trigger_shutdown();
    let summary = router.join();
    assert_eq!(summary.aborted_relays, 0);

    server_a.trigger_shutdown();
    server_a.join();
    server_b.trigger_shutdown();
    server_b.join();
    remove_journal(&journal_a);
    remove_journal(&journal_b);
}

/// When every backend is dark the router answers 503 with the typed
/// `no_backends` body and a Retry-After hint — and recovers on its own
/// once a backend returns.
#[test]
fn all_dark_is_a_typed_503_and_recovery_is_automatic() {
    let (server, server_addr) = start(|_| {});
    let (router, router_addr) = start_router(&[server_addr], |_| {});
    let spec = annual_spec(48, 4, 5_000).to_json_string().into_bytes();

    server.trigger_shutdown();
    server.join();

    let resp = http(router_addr, "POST", "/v1/experiments", &[], Some(&spec));
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.code().as_deref(), Some("no_backends"));
    assert_eq!(resp.header("Retry-After"), Some("1"));

    // A replacement backend on the same address brings the ring back.
    let engine = Engine::new(WorldCatalog::anchors_only(common::SEED));
    let cfg = ServeConfig {
        addr: server_addr.to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(engine, cfg).expect("rebind backend");
    wait_backends_up(router_addr, 1);
    let resp = http(router_addr, "POST", "/v1/experiments", &[], Some(&spec));
    assert_eq!(resp.status, 200, "{}", resp.body);

    router.trigger_shutdown();
    router.join();
    server.trigger_shutdown();
    server.join();
}
