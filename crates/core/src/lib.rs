//! Siting and provisioning green datacenter networks — the primary
//! contribution of Berral et al. (ICDCS 2014), §II–§IV.
//!
//! Given a world of candidate locations (`greencloud-climate`), energy
//! models (`greencloud-energy`), and the Table I cost model
//! (`greencloud-cost`), this crate answers: *where should a provider build
//! datacenters, and how large should each datacenter, solar plant, wind
//! plant, and battery bank be, to deliver a target compute capacity with a
//! target fraction of green energy at minimum monthly cost?*
//!
//! * [`framework`] — the provider-facing problem statement
//!   ([`framework::PlacementInput`]).
//! * [`availability`] — the paper's datacenter-network availability model,
//!   which lower-bounds the number of sites.
//! * [`candidate`] — per-location precomputation (energy profile, max PUE,
//!   economics) shared by all solver paths.
//! * [`formulation`] — compiles the paper's Fig. 1 optimization (with the
//!   documented strict-green and no-cash-out refinements) into an LP for a
//!   fixed siting, on the representative-day slot clock; also the Fig. 6
//!   single-location provisioning solve ([`formulation::solve_single`]).
//! * [`siteblock`] — per-site LP column blocks, which the search paths
//!   compile once per `(candidate, class)` and assemble into every siting's
//!   LP instead of recompiling unchanged sites.
//! * [`filter`] — the heuristic's location pre-filter.
//! * [`anneal`] — parallel simulated-annealing search over sitings, each
//!   candidate evaluated by solving its LP. The chains merge their work at
//!   barriers in a fixed order, so a search is a function of its inputs and
//!   seed.
//! * [`milp`] — the exact branch & bound path for small candidate sets.
//!
//! The pipeline (candidates → filter → search → report) is composed in one
//! place, `greencloud-api`'s `Engine`, which caches candidate sets per
//! profile clock and builds the siting report from the winning LP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod availability;
pub mod candidate;
pub mod filter;
pub mod formulation;
pub mod framework;
pub mod milp;
pub mod siteblock;

pub use candidate::CandidateSite;
pub use framework::{PlacementInput, SizeClass, StorageMode, TechMix, ValidationError};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, treating poisoning as survivable: the workspace's shared
/// state is caches, queues and counters whose invariants hold between
/// individual operations, and panics are contained at the API boundary.
pub fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
