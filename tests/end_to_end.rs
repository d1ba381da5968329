//! Cross-crate integration tests: the paper's qualitative findings must
//! hold end-to-end on small worlds.

use greencloud::prelude::*;
use greencloud_nebula::emulation::{self, EmulationConfig};
use greencloud_nebula::scheduler::SchedulerConfig;

/// Sites inputs through the engine on a 40-location world, with a small
/// single-chain search budget seeded by `seed`.
fn siting_runner(seed: u64) -> impl Fn(PlacementInput) -> Result<SitingReport, ApiError> {
    let engine = Engine::new(WorldCatalog::synthetic(40, seed)).with_threads(1);
    let search = SearchSpec {
        profile: ProfileConfig::coarse(),
        filter_keep: 6,
        iterations: 15,
        chains: 1,
        patience: 12,
        seed,
        ..SearchSpec::default()
    };
    move |input| {
        let spec = ExperimentSpec::Siting(SitingSpec {
            input,
            search: search.clone(),
        });
        match engine.run(&spec)?.body {
            ReportBody::Siting(s) => Ok(s),
            other => panic!("a siting spec yields a siting report, got {other:?}"),
        }
    }
}

#[test]
fn availability_forces_at_least_two_datacenters() {
    let site = siting_runner(11);
    let sol =
        site(PlacementInput::default().with_green(0.0, TechMix::BrownOnly)).expect("brown network");
    assert!(sol.sites.len() >= 2);
    assert!(sol.total_capacity_mw >= 50.0 - 1e-6);
}

#[test]
fn green_requirement_is_met_and_priced() {
    let site = siting_runner(11);
    let brown = site(PlacementInput::default().with_green(0.0, TechMix::BrownOnly)).expect("brown");
    let green = site(PlacementInput::default()).expect("50% green");
    assert!(green.green_fraction >= 0.5 - 1e-6);
    // The paper's qualitative claim: green costs at most modestly more;
    // it must never be drastically cheaper than brown (sanity of costs).
    let ratio = green.monthly_cost_usd / brown.monthly_cost_usd;
    assert!(
        (0.85..1.8).contains(&ratio),
        "green/brown ratio {ratio:.3} (green {:.2}M, brown {:.2}M)",
        green.monthly_cost_usd / 1e6,
        brown.monthly_cost_usd / 1e6
    );
}

#[test]
fn storage_removal_raises_high_green_cost() {
    let site = siting_runner(13);
    let base = PlacementInput {
        min_green_fraction: 0.75,
        tech: TechMix::Both,
        storage: StorageMode::NetMetering,
        ..PlacementInput::default()
    };
    let with_nm = site(base.clone()).expect("net metering");
    let without = site(PlacementInput {
        storage: StorageMode::None,
        ..base
    });
    // A small filtered world may simply be unable to reach 75% green with
    // zero storage (Err) — also consistent with the paper.
    if let Ok(sol) = without {
        assert!(
            sol.monthly_cost_usd >= with_nm.monthly_cost_usd * 0.99,
            "no-storage {:.2}M cheaper than net-metered {:.2}M",
            sol.monthly_cost_usd / 1e6,
            with_nm.monthly_cost_usd / 1e6
        );
    }
}

#[test]
fn emulated_day_follows_the_renewables() {
    let world = WorldCatalog::anchors_only(3);
    let cfg = EmulationConfig {
        vm_count: 40,
        scheduler: SchedulerConfig {
            window_hours: 8,
            ..SchedulerConfig::default()
        },
        ..EmulationConfig::default()
    };
    let report = emulation::run(&world, &cfg).expect("emulation");
    // Load conserved, mostly green, and the fleet moves during the day.
    assert!(
        report.green_fraction > 0.8,
        "green {}",
        report.green_fraction
    );
    assert!(report.migrations > 0);
    for hour in 0..cfg.hours {
        let total: f64 = report
            .rows
            .iter()
            .filter(|r| r.hour == hour)
            .map(|r| r.load_mw)
            .sum();
        assert!((total - cfg.total_load_mw).abs() < 1e-6);
    }
}

#[test]
fn migration_fraction_never_reduces_cost_when_zeroed() {
    let site = siting_runner(17);
    let base = PlacementInput {
        min_green_fraction: 0.75,
        tech: TechMix::SolarOnly,
        storage: StorageMode::None,
        migration_fraction: 1.0,
        ..PlacementInput::default()
    };
    let full = site(base.clone());
    let free = site(PlacementInput {
        migration_fraction: 0.0,
        ..base
    });
    if let (Ok(full), Ok(free)) = (full, free) {
        assert!(
            free.monthly_cost_usd <= full.monthly_cost_usd * 1.01,
            "θ=0 ({:.2}M) should not cost more than θ=1 ({:.2}M)",
            free.monthly_cost_usd / 1e6,
            full.monthly_cost_usd / 1e6
        );
    }
}
