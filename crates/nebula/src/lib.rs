//! GreenNebula: follow-the-renewables VM placement and migration across a
//! network of green datacenters (paper §V).
//!
//! The paper built GreenNebula on OpenNebula with three physical servers
//! emulating three datacenters; this crate reproduces the whole system
//! in-process on a discrete-event kernel:
//!
//! * [`vm`] / [`cluster`] — VMs with the paper's footprints, hosts, and a
//!   per-datacenter manager with first-fit placement (the OpenNebula role).
//! * [`predictor`] — 48-hour green-energy prediction (perfect, as the paper
//!   assumes, or noisy for sensitivity studies).
//! * [`scheduler`] — the hourly re-partitioning optimization: a small
//!   LP/MILP minimizing brown energy over the prediction window, including
//!   the migration energy overhead.
//! * [`planner`] — turns target loads into concrete VM migrations: donors
//!   in decreasing out-power order, first-fit to the closest receiver,
//!   smallest-footprint VMs first (the paper's §V-A policy).
//! * [`wan`] — inter-datacenter links and pre-copy live-migration timing.
//! * [`gdfs`] — the HDFS-like mutation-capable distributed file system:
//!   one master with name bindings, block replicas across datacenters,
//!   write-locally + invalidate-remotely, background re-replication.
//! * [`emulation`] — the §V-C experiment scaled up: an N-datacenter
//!   network following the sun for a day or a year, with per-site
//!   batteries and net metering dispatched green → battery → bank → brown
//!   (Fig. 15 and beyond).
//! * [`sweep`] — parallel scenario sweeps over independent emulation
//!   configs (seasons, storage sizes, forecast noise, WAN bandwidths).
//! * [`faults`] — deterministic fault injection: seeded schedules of site
//!   outages (tier availability model), grid blackouts/brownouts, WAN
//!   degradation, forecast shocks, and battery fade, replayed through the
//!   simulation kernel so the emulation degrades gracefully instead of
//!   assuming the paper's availability figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod emulation;
pub mod error;
pub mod faults;
pub mod gdfs;
pub mod planner;
pub mod predictor;
pub mod scheduler;
pub mod sweep;
pub mod vm;
pub mod wan;

pub use cluster::{Datacenter, DatacenterId, Host};
pub use emulation::{EmulationConfig, EmulationReport, MigrationRecord, TraceRow};
pub use error::NebulaError;
pub use faults::{FaultKind, FaultSchedule, FaultSpec, ResilienceReport, ScheduledFault};
pub use planner::{Migration, MigrationPlan};
pub use scheduler::{RollingScheduler, RollingStats, SchedulerConfig};
pub use sweep::{run_sweep, Scenario, ScenarioResult};
pub use vm::{Vm, VmId, VmSpec};
