//! Fault injection through the API front door: a `FaultSpec` embedded in a
//! `greencloud-spec/1` document must replay byte-identically, its
//! `greencloud-resilience/1` body must ride along in the report, and the
//! engine's fan-out must contain panics and deadlines to the spec that
//! caused them.

use greencloud_api::spec::{AnnualSpec, ExperimentSpec, SweepAxes, SweepMode, SweepSpec};
use greencloud_api::{ApiError, Engine, ReportBody, RunCtx};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::faults::{FaultKind, FaultSpec, ScheduledFault};
use greencloud_nebula::scheduler::SchedulerConfig;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

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

fn chaos() -> FaultSpec {
    FaultSpec {
        seed: 42,
        site_availability: Some(0.97),
        site_mttr_hours: 4.0,
        grid_outage_rate_per_khour: 5.0,
        wan_outage_rate_per_khour: 3.0,
        shock_rate_per_khour: 4.0,
        scheduled: vec![ScheduledFault {
            kind: FaultKind::SiteOutage,
            site: Some(1),
            start_hour: 6,
            duration_hours: 5,
            magnitude: 0.0,
        }],
        ..FaultSpec::default()
    }
}

#[test]
fn faulty_annual_spec_replays_identically_with_resilience_body() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config: EmulationConfig {
            faults: Some(chaos()),
            ..tiny_emulation(48)
        },
        include_trace: false,
    });

    let replayed_spec =
        ExperimentSpec::from_json_str(&spec.to_json_string()).expect("spec round-trips");
    assert_eq!(replayed_spec, spec, "faults survive the JSON codec");

    let programmatic = engine.run(&spec).expect("chaos run completes");
    let replayed = engine.run(&replayed_spec).expect("replayed chaos run");
    assert_eq!(
        programmatic.normalized(),
        replayed.normalized(),
        "identical fault seeds must yield byte-identical reports"
    );

    let ReportBody::Annual(a) = &programmatic.body else {
        panic!("annual spec yields an annual report");
    };
    let res = a.resilience.as_ref().expect("resilience body present");
    assert!(res.site_outages >= 1, "the scheduled outage fired: {res:?}");
    assert!(res.slo_attainment <= 1.0 && res.slo_attainment > 0.0);
    let json = programmatic.to_json_string();
    assert!(
        json.contains("greencloud-resilience/1"),
        "schema tag in JSON"
    );
    assert!(programmatic.render_text().contains("resilience:"));
}

#[test]
fn fault_free_annual_report_omits_the_resilience_body() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    let report = engine
        .run(&ExperimentSpec::Annual(AnnualSpec {
            config: tiny_emulation(8),
            include_trace: false,
        }))
        .expect("run");
    let ReportBody::Annual(a) = &report.body else {
        panic!("annual report");
    };
    assert!(a.resilience.is_none());
    assert!(report.to_json_string().contains("\"resilience\": null"));
}

#[test]
fn faulty_sweep_rows_carry_slo_columns() {
    let engine = Engine::new(WorldCatalog::anchors_only(4)).with_threads(2);
    let spec = ExperimentSpec::Sweep(SweepSpec {
        base: EmulationConfig {
            faults: Some(FaultSpec {
                // Darken every site for a window so downtime accrues no
                // matter which site the VMs followed the sun to.
                scheduled: (0..3)
                    .map(|s| ScheduledFault {
                        kind: FaultKind::SiteOutage,
                        site: Some(s),
                        start_hour: 2,
                        duration_hours: 6,
                        magnitude: 0.0,
                    })
                    .collect(),
                ..FaultSpec::default()
            }),
            ..tiny_emulation(24)
        },
        axes: SweepAxes {
            battery_kwh: vec![5_000.0],
            ..SweepAxes::default()
        },
        mode: SweepMode::OneAtATime,
        seed: 7,
    });
    let report = engine.run(&spec).expect("sweep runs");
    let ReportBody::Sweep(s) = &report.body else {
        panic!("sweep report");
    };
    assert_eq!(s.rows.len(), 2);
    for row in &s.rows {
        assert!(row.slo_attainment < 1.0, "{row:?}");
        assert!(row.vm_downtime_hours > 0.0, "{row:?}");
    }
}

#[test]
fn a_panicking_spec_is_contained_while_siblings_still_run() {
    let engine = Engine::new(WorldCatalog::anchors_only(4)).with_threads(2);
    let mut poisoned = tiny_emulation(6);
    // A negative battery bank trips an assert deep inside the energy
    // crate — exactly the kind of panic the fan-out must not propagate.
    poisoned.sites[0].battery_kwh = -1.0;
    let poisoned = ExperimentSpec::Annual(AnnualSpec {
        config: poisoned,
        include_trace: false,
    });
    let specs = vec![
        poisoned.clone(),
        ExperimentSpec::Annual(AnnualSpec {
            config: tiny_emulation(6),
            include_trace: false,
        }),
    ];
    let results = engine.run_all(&specs);
    assert_eq!(results.len(), 2);
    let err = results[0].as_ref().expect_err("poisoned spec fails");
    assert!(
        matches!(err, ApiError::Engine(msg) if msg.contains("panicked")),
        "{err}"
    );
    assert!(results[1].is_ok(), "the healthy sibling still ran");

    // A single run is contained at the same boundary instead of unwinding
    // into the caller.
    let err = engine.run(&poisoned).expect_err("poisoned spec fails");
    assert!(
        matches!(&err, ApiError::Engine(msg) if msg.contains("panicked")),
        "{err}"
    );
}

#[test]
fn a_spec_that_blows_its_deadline_reports_a_typed_error() {
    let engine = Engine::new(WorldCatalog::anchors_only(4));
    // A multi-decade emulation cannot finish in 50 ms; the deadline timer
    // must cancel it cooperatively and surface the configured limit.
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config: tiny_emulation(200_000),
        include_trace: false,
    });
    let run = |spec, cancel, deadline_ms: Option<u64>| {
        let deadline = deadline_ms.map(Duration::from_millis);
        engine.run_with(
            spec,
            RunCtx {
                cancel,
                deadline,
                ..RunCtx::default()
            },
        )
    };
    let deadline = Err(ApiError::Deadline { limit_ms: 50 });
    assert_eq!(run(&spec, None, Some(50)).map(|_| ()), deadline);

    // A caller token that never fires does not mask the deadline.
    let idle = AtomicBool::new(false);
    assert_eq!(run(&spec, Some(&idle), Some(50)).map(|_| ()), deadline);

    // A token the caller already fired is a cancellation, not a deadline.
    let fired = AtomicBool::new(true);
    let err = run(&spec, Some(&fired), None).expect_err("cancelled");
    assert!(matches!(err, ApiError::Cancelled(_)), "{err}");

    // A generous deadline leaves the result untouched.
    let quick = ExperimentSpec::Annual(AnnualSpec {
        config: tiny_emulation(4),
        include_trace: false,
    });
    let ok = run(&quick, None, Some(600_000));
    assert!(ok.is_ok(), "{:?}", ok.err());
}
