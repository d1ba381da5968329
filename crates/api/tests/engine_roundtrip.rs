//! The acceptance contract of the experiment API: an [`ExperimentSpec`]
//! serialized to JSON and replayed must reproduce the same [`Report`]
//! (modulo wall-clock fields) as the equivalent programmatic call, and the
//! engine must surface typed errors.

use greencloud_api::spec::{
    AnnualSpec, ExactSitingSpec, ExperimentSpec, SearchSpec, SitingSpec, SweepAxes, SweepMode,
    SweepSpec, TimingSpec,
};
use greencloud_api::{ApiError, Engine, Report, ReportBody};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::framework::{PlacementInput, StorageMode, TechMix, ValidationError};
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::faults::{FaultKind, FaultSpec, ScheduledFault};
use greencloud_nebula::scheduler::SchedulerConfig;

/// Runs `spec` twice on `engine` — programmatically and through its JSON
/// serialization — asserts the normalized reports agree, and returns the
/// programmatic report.
fn assert_json_replay_matches(engine: &Engine, spec: &ExperimentSpec) -> Report {
    let programmatic = engine.run(spec).expect("programmatic run");
    let replayed_spec =
        ExperimentSpec::from_json_str(&spec.to_json_string()).expect("spec round-trips");
    assert_eq!(&replayed_spec, spec);
    let replayed = engine.run(&replayed_spec).expect("replayed run");
    assert_eq!(
        programmatic.normalized(),
        replayed.normalized(),
        "JSON-replayed spec must reproduce the programmatic report"
    );
    programmatic
}

/// Pins a solved report's normalized bytes to `tests/golden/{golden_path}`
/// (`GC_WRITE_GOLDEN=1` rewrites the file, as in `report_golden`).
fn check_golden(report: &Report, golden_path: &str, golden: &str) {
    let actual = report.normalized().to_json_string();
    if std::env::var_os("GC_WRITE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{golden_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "solved report bytes changed; if intentional, explain the change and \
         regenerate with GC_WRITE_GOLDEN=1"
    );
}

fn tiny_emulation(hours: usize) -> EmulationConfig {
    EmulationConfig {
        vm_count: 8,
        hours,
        scheduler: SchedulerConfig {
            window_hours: 6,
            ..SchedulerConfig::default()
        },
        ..EmulationConfig::default()
    }
}

#[test]
fn siting_spec_replays_identically() {
    let engine = Engine::new(WorldCatalog::synthetic(24, 17));
    let spec = ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            total_capacity_mw: 20.0,
            ..PlacementInput::default()
        },
        search: SearchSpec {
            profile: ProfileConfig::coarse(),
            filter_keep: 6,
            iterations: 12,
            patience: 10,
            seed: 5,
            ..SearchSpec::default()
        },
    });
    let report = assert_json_replay_matches(&engine, &spec);
    check_golden(
        &report,
        "siting_solved.json",
        include_str!("golden/siting_solved.json"),
    );
}

#[test]
fn exact_siting_spec_replays_identically() {
    let engine = Engine::new(WorldCatalog::synthetic(16, 11));
    let spec = ExperimentSpec::ExactSiting(ExactSitingSpec {
        input: PlacementInput {
            total_capacity_mw: 20.0,
            min_green_fraction: 0.0,
            tech: TechMix::BrownOnly,
            ..PlacementInput::default()
        },
        profile: ProfileConfig::coarse(),
        filter_keep: 4,
        max_candidates: 4,
        max_sites: 3,
    });
    let report = assert_json_replay_matches(&engine, &spec);
    check_golden(
        &report,
        "exact_siting_solved.json",
        include_str!("golden/exact_siting_solved.json"),
    );
}

#[test]
fn annual_spec_replays_identically() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config: tiny_emulation(10),
        include_trace: true,
    });
    assert_json_replay_matches(&engine, &spec);
}

#[test]
fn annual_spec_with_outages_pins_its_solved_report() {
    // Two sites go dark together, then the third, under a WAN brownout:
    // the fleet migrates, GDFS re-replicates every hour's dirty blocks, and
    // the VMs on the darkened sites evacuate. Only scheduled faults, so the
    // report does not depend on `GC_FAULT_SEED`.
    let outage = |site, start_hour| ScheduledFault {
        kind: FaultKind::SiteOutage,
        site: Some(site),
        start_hour,
        duration_hours: 5,
        magnitude: 0.0,
    };
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config: EmulationConfig {
            faults: Some(FaultSpec {
                scheduled: vec![
                    outage(0, 4),
                    outage(1, 4),
                    outage(2, 20),
                    ScheduledFault {
                        kind: FaultKind::WanDegraded,
                        site: None,
                        start_hour: 10,
                        duration_hours: 12,
                        magnitude: 0.25,
                    },
                ],
                ..FaultSpec::default()
            }),
            ..tiny_emulation(40)
        },
        include_trace: false,
    });
    let report = assert_json_replay_matches(&engine, &spec);
    let ReportBody::Annual(a) = &report.body else {
        panic!("annual spec yields an annual report");
    };
    let res = a.resilience.as_ref().expect("resilience body present");
    assert!(a.migrations > 0, "{a:?}");
    assert!(a.rereplicated_blocks > 0, "{a:?}");
    assert!(res.evacuations > 0, "{res:?}");
    check_golden(
        &report,
        "annual_solved.json",
        include_str!("golden/annual_solved.json"),
    );
}

#[test]
fn sweep_spec_replays_identically() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let spec = ExperimentSpec::Sweep(SweepSpec {
        base: tiny_emulation(8),
        axes: SweepAxes {
            battery_kwh: vec![5_000.0],
            forecast_sigma: vec![0.2],
            ..SweepAxes::default()
        },
        mode: SweepMode::OneAtATime,
        seed: 7,
    });
    assert_json_replay_matches(&engine, &spec);

    // The sweep expands to base + 2 single-change scenarios.
    let report = engine.run(&spec).expect("sweep runs");
    let ReportBody::Sweep(s) = &report.body else {
        panic!("sweep spec yields a sweep report");
    };
    assert_eq!(s.rows.len(), 3);
    assert_eq!(s.rows[0].name, "base");
}

#[test]
fn timing_spec_replays_identically() {
    let engine = Engine::new(WorldCatalog::anchors_only(
        greencloud_api::harness::REPRO_SEED,
    ));
    let spec = ExperimentSpec::Timing(TimingSpec {
        fast: true,
        schedule_timing: false,
        lp_records: true,
        warm_cold_rounds: 0,
    });
    assert_json_replay_matches(&engine, &spec);
}

#[test]
fn lp_timing_rows_are_named_in_order_and_warm_rows_reuse_their_basis() {
    let engine = Engine::new(WorldCatalog::anchors_only(
        greencloud_api::harness::REPRO_SEED,
    ));
    let spec = ExperimentSpec::Timing(TimingSpec {
        fast: true,
        schedule_timing: false,
        lp_records: true,
        warm_cold_rounds: 0,
    });
    let report = engine.run(&spec).expect("timing runs");
    let ReportBody::Timing(t) = &report.body else {
        panic!("timing spec yields a timing report");
    };
    let names: Vec<&str> = t.records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "single_site_cold/devex",
            "single_site_cold/dantzig",
            "single_site_warm/devex",
            "three_site_cold/devex",
            "three_site_warm/devex",
            "hourly_resolve_12rounds/warm",
            "hourly_resolve_12rounds/cold",
        ]
    );
    for r in t.records.iter().filter(|r| r.name.contains("_warm/")) {
        assert_eq!(r.warm_rate, 1.0, "{r:?}");
        assert!(r.iterations <= 1, "{r:?}");
    }
    // Each cold round solves a fresh window model from scratch, so the
    // cold rounds take more pivots than the warm-started ones.
    let [.., warm, cold] = t.records.as_slice() else {
        panic!("no hourly rows: {names:?}");
    };
    assert!(warm.iterations > 0, "{warm:?}");
    assert!(cold.iterations > warm.iterations, "{cold:?} vs {warm:?}");
}

#[test]
fn invalid_input_surfaces_as_typed_validation_error() {
    let engine = Engine::new(WorldCatalog::synthetic(12, 3));
    let spec = ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            min_green_fraction: 1.5,
            ..PlacementInput::default()
        },
        search: SearchSpec {
            profile: ProfileConfig::coarse(),
            ..SearchSpec::default()
        },
    });
    let err = engine.run(&spec).unwrap_err();
    assert_eq!(
        err,
        ApiError::Validation(ValidationError::GreenFractionOutOfRange(1.5))
    );
}

#[test]
fn unknown_site_surfaces_as_typed_engine_error() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let mut config = tiny_emulation(4);
    config.sites[0].location_name = "Atlantis".into();
    let err = engine
        .run(&ExperimentSpec::Annual(AnnualSpec {
            config,
            include_trace: false,
        }))
        .unwrap_err();
    assert_eq!(err, ApiError::Engine("unknown site Atlantis".into()));
}

#[test]
fn engine_caches_candidates_across_experiments() {
    let engine = Engine::new(WorldCatalog::synthetic(16, 9));
    let profile = ProfileConfig::coarse();
    let a = engine.candidates(&profile);
    let b = engine.candidates(&profile);
    assert!(std::sync::Arc::ptr_eq(&a, &b), "same profile, same set");
    let other = engine.candidates(&ProfileConfig::default());
    assert!(!std::sync::Arc::ptr_eq(&a, &other));
}

#[test]
fn concurrent_run_all_matches_serial_runs() {
    let engine = Engine::new(WorldCatalog::anchors_only(4)).with_threads(4);
    let specs: Vec<ExperimentSpec> = (0..4)
        .map(|k| {
            ExperimentSpec::Annual(AnnualSpec {
                config: tiny_emulation(6 + k),
                include_trace: false,
            })
        })
        .collect();
    let parallel = engine.run_all(&specs);
    for (spec, got) in specs.iter().zip(parallel) {
        let got = got.expect("parallel run");
        let serial = engine.run(spec).expect("serial run");
        assert_eq!(got.normalized(), serial.normalized());
    }
}

#[test]
fn storage_mode_spec_fields_reach_the_solver() {
    // A serialized storage mode must actually change the solve: batteries
    // at 100% green vs none is the paper's qualitative storage finding.
    let engine = Engine::new(WorldCatalog::synthetic(24, 17));
    let search = SearchSpec {
        profile: ProfileConfig::coarse(),
        filter_keep: 6,
        iterations: 12,
        chains: 1,
        patience: 10,
        seed: 5,
        ..SearchSpec::default()
    };
    let spec = |storage: StorageMode| {
        let text = ExperimentSpec::Siting(SitingSpec {
            input: PlacementInput {
                total_capacity_mw: 20.0,
                storage,
                ..PlacementInput::default()
            }
            .with_green(1.0, TechMix::Both),
            search: search.clone(),
        })
        .to_json_string();
        ExperimentSpec::from_json_str(&text).expect("parses")
    };
    let metered = engine
        .run(&spec(StorageMode::NetMetering))
        .expect("metered");
    let bare = engine.run(&spec(StorageMode::None)).expect("bare");
    let (ReportBody::Siting(m), ReportBody::Siting(b)) = (&metered.body, &bare.body) else {
        panic!("siting reports");
    };
    assert!(
        b.monthly_cost_usd > m.monthly_cost_usd,
        "storage-less 100% green must cost more (none {} vs metered {})",
        b.monthly_cost_usd,
        m.monthly_cost_usd
    );
}
