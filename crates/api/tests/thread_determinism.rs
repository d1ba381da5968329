//! Cross-thread-count determinism: the shipped `examples/quick.spec.json`
//! must produce byte-identical [`Report::normalized`] output whether the
//! engine runs single-threaded or with a full worker pool, and a siting
//! search at the default 4 chains must produce the same report on every
//! run.
//!
//! This is the runtime counterpart to the `gclint` static rules: the lint
//! proves nothing *reads* wall clocks or hash-ordered collections on the
//! deterministic path, and this test proves the observable reports agree
//! across thread counts.

use greencloud_api::spec::{SearchSpec, SitingSpec};
use greencloud_api::{Engine, ExperimentSpec};
use greencloud_climate::catalog::WorldCatalog;
use greencloud_climate::profiles::ProfileConfig;
use greencloud_core::framework::PlacementInput;
use std::path::Path;

/// Loads the quick spec shipped in `examples/`.
fn quick_spec() -> ExperimentSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/quick.spec.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ExperimentSpec::from_json_str(&text).expect("quick spec parses")
}

/// Mirrors `repro run --spec examples/quick.spec.json --world anchors`.
fn engine(threads: usize) -> Engine {
    Engine::new(WorldCatalog::anchors_only(17)).with_threads(threads)
}

#[test]
fn quick_spec_is_deterministic_across_thread_counts() {
    let spec = quick_spec();
    let single = engine(1).run(&spec).expect("threads=1 run");
    let pooled = engine(8).run(&spec).expect("threads=8 run");
    assert_eq!(
        single.normalized().to_json_string(),
        pooled.normalized().to_json_string(),
        "normalized reports diverge between threads=1 and threads=8"
    );
}

#[test]
fn run_all_batch_is_deterministic_across_thread_counts() {
    // Duplicate the spec so `run_all` actually engages the worker pool
    // (one spec per worker slot) and compare every report pairwise.
    let specs: Vec<ExperimentSpec> = (0..4).map(|_| quick_spec()).collect();
    let single: Vec<String> = engine(1)
        .run_all(&specs)
        .into_iter()
        .map(|r| {
            r.expect("threads=1 batch run")
                .normalized()
                .to_json_string()
        })
        .collect();
    let pooled: Vec<String> = engine(8)
        .run_all(&specs)
        .into_iter()
        .map(|r| {
            r.expect("threads=8 batch run")
                .normalized()
                .to_json_string()
        })
        .collect();
    assert_eq!(
        single, pooled,
        "run_all reports diverge across thread counts"
    );
    // Identical specs must also agree with each other within one batch.
    assert!(
        pooled.windows(2).all(|w| w[0] == w[1]),
        "identical specs diverged within a single batch"
    );
}

#[test]
fn four_chain_siting_is_deterministic_across_runs_and_thread_counts() {
    // 16 iterations take every chain through two barriers, where the
    // chains merge their evaluations and adopt the incumbent.
    let search = SearchSpec {
        profile: ProfileConfig::coarse(),
        filter_keep: 6,
        iterations: 16,
        patience: 12,
        seed: 5,
        ..SearchSpec::default()
    };
    assert_eq!(search.chains, 4, "the default chain count");
    let spec = ExperimentSpec::Siting(SitingSpec {
        input: PlacementInput {
            total_capacity_mw: 20.0,
            ..PlacementInput::default()
        },
        search,
    });
    let run = |threads: usize| {
        Engine::new(WorldCatalog::synthetic(24, 17))
            .with_threads(threads)
            .run(&spec)
            .expect("siting run")
            .normalized()
            .to_json_string()
    };
    let first = run(1);
    for threads in [8, 2, 2, 2] {
        assert_eq!(
            run(threads),
            first,
            "a 4-chain siting report changed between runs (threads={threads})"
        );
    }
}
