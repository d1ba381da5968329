//! Every [`ExperimentSpec`] variant must survive a JSON round trip
//! unchanged, and malformed documents must fail with a path-bearing
//! [`SpecError`].

use greencloud_api::spec::{
    AnnualSpec, ExactSitingSpec, ExperimentSpec, SearchSpec, SitingSpec, SweepAxes, SweepMode,
    SweepSpec, TimingSpec, SPEC_SCHEMA,
};
use greencloud_api::store;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
use greencloud_nebula::emulation::EmulationConfig;
use greencloud_nebula::predictor::PredictionMode;
use greencloud_nebula::scheduler::SchedulerConfig;
use greencloud_nebula::wan::WanModel;
use std::path::Path;

fn round_trip(spec: &ExperimentSpec) -> ExperimentSpec {
    let text = spec.to_json_string();
    assert!(
        text.contains(SPEC_SCHEMA),
        "serialized spec must carry the schema tag"
    );
    ExperimentSpec::from_json_str(&text).expect("round trip parses")
}

#[test]
fn siting_round_trips() {
    let spec = ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            total_capacity_mw: 80.0,
            min_green_fraction: 0.75,
            tech: TechMix::WindOnly,
            storage: StorageMode::Batteries,
            migration_fraction: 0.25,
            ..PlacementInput::default()
        },
        search: SearchSpec {
            profile: ProfileConfig::coarse(),
            filter_keep: 9,
            iterations: 33,
            chains: 3,
            patience: 21,
            max_sites: 5,
            seed: 0xBEEF,
        },
    });
    assert_eq!(round_trip(&spec), spec);
}

#[test]
fn exact_siting_round_trips() {
    let spec = ExperimentSpec::ExactSiting(ExactSitingSpec {
        input: PlacementInput {
            storage: StorageMode::None,
            ..PlacementInput::default()
        },
        profile: ProfileConfig::coarse(),
        filter_keep: 6,
        max_candidates: 6,
        max_sites: 3,
    });
    assert_eq!(round_trip(&spec), spec);
}

#[test]
fn annual_round_trips_with_every_option_exercised() {
    let mut config = EmulationConfig {
        total_load_mw: 42.5,
        vm_count: 17,
        hours: 100,
        start_hour: 8700,
        scheduler: SchedulerConfig {
            window_hours: 12,
            migration_fraction: 0.5,
            migration_penalty: 2e-3,
        },
        wan: WanModel::leased(100.0),
        battery_efficiency: 0.8,
        net_meter_credit: Some(0.9),
        prediction: PredictionMode::Noisy {
            sigma: 0.3,
            seed: 99,
        },
        ..EmulationConfig::default()
    }
    .with_batteries(5_000.0);
    config.sites[0].location_name = "Mexico City (custom)".into();
    let spec = ExperimentSpec::Annual(AnnualSpec {
        config,
        include_trace: true,
    });
    assert_eq!(round_trip(&spec), spec);
}

#[test]
fn sweep_round_trips() {
    let spec = ExperimentSpec::Sweep(SweepSpec {
        base: EmulationConfig {
            vm_count: 8,
            hours: 48,
            ..EmulationConfig::default()
        },
        axes: SweepAxes {
            start_hour: vec![0, 4080],
            battery_kwh: vec![10_000.0, 50_000.0],
            net_meter_credit: vec![None, Some(1.0)],
            forecast_sigma: vec![0.0, 0.3],
            wan_mbps: vec![100.0],
        },
        mode: SweepMode::Grid,
        seed: 7,
    });
    assert_eq!(round_trip(&spec), spec);

    let one_at_a_time = ExperimentSpec::Sweep(SweepSpec {
        base: EmulationConfig::default(),
        axes: SweepAxes {
            battery_kwh: vec![50_000.0],
            ..SweepAxes::default()
        },
        mode: SweepMode::OneAtATime,
        seed: 7,
    });
    assert_eq!(round_trip(&one_at_a_time), one_at_a_time);
}

#[test]
fn timing_round_trips() {
    let spec = ExperimentSpec::Timing(TimingSpec {
        fast: true,
        schedule_timing: false,
        lp_records: true,
        warm_cold_rounds: 24,
    });
    assert_eq!(round_trip(&spec), spec);
}

#[test]
fn sweep_axes_expand_as_specified() {
    let spec = SweepSpec {
        base: EmulationConfig::default(),
        axes: SweepAxes {
            start_hour: vec![0, 24],
            battery_kwh: vec![1000.0],
            net_meter_credit: vec![],
            forecast_sigma: vec![],
            wan_mbps: vec![],
        },
        mode: SweepMode::Grid,
        seed: 1,
    };
    // Grid: 2 × 1 combinations.
    assert_eq!(spec.scenarios().len(), 2);

    let one = SweepSpec {
        mode: SweepMode::OneAtATime,
        ..spec
    };
    // Base + one scenario per axis value.
    let scenarios = one.scenarios();
    assert_eq!(scenarios.len(), 4);
    assert_eq!(scenarios[0].name, "base");
    assert_eq!(scenarios[0].config.start_hour, one.base.start_hour);
    assert_eq!(scenarios[2].config.start_hour, 24);
    assert!(scenarios[3]
        .config
        .sites
        .iter()
        .all(|s| s.battery_kwh == 1000.0));
}

#[test]
fn malformed_documents_name_the_offending_path() {
    // Wrong schema version.
    let err = ExperimentSpec::from_json_str(
        r#"{"schema": "greencloud-spec/0", "experiment": {"kind": "timing"}}"#,
    )
    .unwrap_err();
    assert_eq!(err.path, "schema");

    // Unknown kind.
    let err = ExperimentSpec::from_json_str(
        r#"{"schema": "greencloud-spec/1", "experiment": {"kind": "teleport"}}"#,
    )
    .unwrap_err();
    assert_eq!(err.path, "experiment.kind");

    // Missing field inside a typed config.
    let err = ExperimentSpec::from_json_str(
        r#"{"schema": "greencloud-spec/1", "experiment": {"kind": "timing", "fast": true}}"#,
    )
    .unwrap_err();
    assert!(err.path.starts_with("experiment."), "{err}");

    // Not JSON at all.
    assert!(ExperimentSpec::from_json_str("not json").is_err());
}

#[test]
fn shipped_specs_keep_their_job_ids() {
    // A spec's job id hashes its normalized bytes, which also key the
    // report cache and the journal, so these must not move.
    for (name, id) in [
        ("quick", "84633c160d1ad6b9a25185a554b4f6a7"),
        ("siting", "3c6456c91cc276ca4458f9d2c6b709d8"),
        ("durable", "007908413f9ea1cbf2c83eb3660602d6"),
        ("faults", "18b10800284a762a8ee0dcb08271e067"),
    ] {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}.spec.json"));
        let text = std::fs::read_to_string(&path).expect("example spec readable");
        let spec = ExperimentSpec::from_json_str(&text).expect("example spec parses");
        assert_eq!(
            store::job_id(spec.to_json_string().as_bytes()),
            id,
            "{name}"
        );
    }
}

#[test]
fn integral_vm_power_must_be_null() {
    // The key stays in greencloud-spec/1 so existing specs keep their
    // bytes, but a number asks for integral-VM rounds, which are gone.
    let annual = ExperimentSpec::Annual(AnnualSpec {
        config: EmulationConfig::default(),
        include_trace: false,
    });
    let sweep = ExperimentSpec::Sweep(SweepSpec {
        base: EmulationConfig::default(),
        axes: SweepAxes::default(),
        mode: SweepMode::Grid,
        seed: 7,
    });
    for (spec, path) in [
        (&annual, "experiment.config.scheduler.integral_vm_power_mw"),
        (&sweep, "experiment.base.scheduler.integral_vm_power_mw"),
    ] {
        let text = spec.to_json_string();
        assert!(text.contains("\"integral_vm_power_mw\": null"), "{text}");
        let number = text.replace(
            "\"integral_vm_power_mw\": null",
            "\"integral_vm_power_mw\": 0.25",
        );
        let err = ExperimentSpec::from_json_str(&number).unwrap_err();
        assert_eq!(err.path, path, "{err}");
        let missing = text.replace("\"integral_vm_power_mw\": null", "\"dropped\": null");
        let err = ExperimentSpec::from_json_str(&missing).unwrap_err();
        assert_eq!(err.path, path, "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
    }
}

#[test]
fn mistyped_embedded_input_is_rejected_with_path() {
    let spec = ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput::default(),
        search: SearchSpec::default(),
    });
    let text = spec.to_json_string();
    let bad = text.replace("\"both\"", "\"nuclear\"");
    let err = ExperimentSpec::from_json_str(&bad).unwrap_err();
    assert_eq!(err.path, "experiment.input.tech");
}
