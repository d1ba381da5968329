//! # greencloud
//!
//! A production-quality reproduction of **"Building Green Cloud Services at
//! Low Cost"** (Berral, Goiri, Nguyen, Gavaldà, Torres, Bianchini — ICDCS
//! 2014): siting and provisioning a network of datacenters powered partially
//! by on-site solar and wind plants, and operating a follow-the-renewables
//! HPC cloud on top of them.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`api`] — **the front door**: typed, serializable
//!   [`api::ExperimentSpec`]s run by an [`api::Engine`] into structured
//!   [`api::Report`]s (`Engine::new(catalog).run(spec)`).
//! * [`lp`] — the LP solver substrate (revised simplex, sparse LU).
//! * [`climate`] — synthetic typical-meteorological-year data and the world
//!   location catalog with per-location economics.
//! * [`energy`] — PV, wind-turbine, PUE, battery, and net-metering models.
//! * [`cost`] — the paper's Table I cost model with financing/amortization.
//! * [`core`] — the siting & provisioning framework, optimization problem,
//!   and heuristic solver (paper §II–§IV).
//! * [`simkernel`] — deterministic discrete-event simulation kernel.
//! * [`nebula`] — GreenNebula, the follow-the-renewables VM placement and
//!   migration system (paper §V).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a world, site a
//! 50 MW / 50%-green datacenter network, and print the solution.

#![forbid(unsafe_code)]

pub use greencloud_api as api;
pub use greencloud_climate as climate;
pub use greencloud_core as core;
pub use greencloud_cost as cost;
pub use greencloud_energy as energy;
pub use greencloud_lp as lp;
pub use greencloud_nebula as nebula;
pub use greencloud_simkernel as simkernel;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use greencloud_api::{
        AnnualSpec, ApiError, Engine, ExperimentSpec, Report, ReportBody, SearchSpec, SitingReport,
        SitingSpec, SweepAxes, SweepMode, SweepSpec, TimingSpec,
    };
    pub use greencloud_climate::catalog::{Location, LocationId, WorldCatalog};
    pub use greencloud_climate::profiles::{ProfileConfig, WeatherProfile, WeatherSlot};
    pub use greencloud_core::framework::{PlacementInput, StorageMode, TechMix};
    pub use greencloud_cost::params::CostParams;
    pub use greencloud_nebula::emulation::{EmulationConfig, EmulationReport};
    pub use greencloud_nebula::scheduler::{RollingScheduler, RollingStats};
    pub use greencloud_nebula::sweep::{run_sweep, Scenario, ScenarioResult};
}
