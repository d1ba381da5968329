//! The crate's one sanctioned wall-clock access point (gclint's
//! `wall-clock` rule forbids `Instant::now` outside `wallclock.rs` files).
//!
//! Everything measured here flows only into `wall_ms`-style fields that
//! [`crate::Report::normalized`] zeroes before comparison, or into the
//! service's deadlines and redelivery backoff — never into solver
//! decisions or golden-pinned report content.

use std::time::Instant;

/// Reads the monotonic clock; serve turns these into job deadlines and
/// redelivery backoff instants.
pub fn now() -> Instant {
    Instant::now()
}

/// A started timer for millisecond wall-time measurements.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Reads the monotonic clock and starts timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Fractional milliseconds since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}
