//! Shared helpers for the reproduction harness.
//!
//! The experiment fixtures (seeds, worlds, search tuning) live in
//! [`greencloud_api::harness`] so the engine's timing experiment and
//! perfbench agree on them; this crate re-exports the ones `repro` uses
//! and keeps only the presentation-side helpers of the paper-figure
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_json;

pub use greencloud_api::harness::{repro_search, world, REPRO_SEED};

use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};

/// The siting specs used by Figs. 8–12: green fractions × technology.
pub fn sweep_inputs(storage: StorageMode) -> Vec<(f64, TechMix, PlacementInput)> {
    let mut out = Vec::new();
    for &g in &[0.0, 0.25, 0.50, 0.75, 1.0] {
        for &tech in &[TechMix::WindOnly, TechMix::SolarOnly, TechMix::Both] {
            let input = PlacementInput {
                storage,
                ..PlacementInput::default()
            }
            .with_green(g, tech);
            out.push((g, tech, input));
        }
    }
    out
}

/// Pretty technology label.
pub fn tech_label(t: TechMix) -> &'static str {
    match t {
        TechMix::BrownOnly => "brown",
        TechMix::WindOnly => "wind",
        TechMix::SolarOnly => "solar",
        TechMix::Both => "wind+solar",
    }
}
