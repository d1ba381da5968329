//! A small deterministic discrete-event simulation kernel.
//!
//! GreenNebula's emulation (paper §V-B/C) advances a multi-datacenter world
//! through hourly scheduling rounds, VM migrations with WAN transfer times,
//! and file-system re-replication — all discrete events. This kernel
//! provides the time base and event queue those components share:
//!
//! * [`SimTime`] — simulation time in integer seconds (no floating-point
//!   clock drift, total ordering).
//! * [`EventQueue`] — a priority queue with **stable FIFO ordering among
//!   simultaneous events**, so runs are reproducible regardless of
//!   insertion pattern.
//! * [`Engine`] — a run loop that pops events and hands them to a handler
//!   until a horizon is reached or the queue drains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Simulation time: seconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from whole hours.
    pub fn from_hours(h: u64) -> Self {
        SimTime(h * 3600)
    }

    /// Builds from whole minutes.
    pub fn from_minutes(m: u64) -> Self {
        SimTime(m * 60)
    }

    /// Seconds since start.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Whole hours since start (truncating).
    pub fn as_hours(self) -> u64 {
        self.0 / 3600
    }

    /// Fractional hours since start.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// This time plus `secs` seconds.
    pub fn plus_secs(self, secs: u64) -> SimTime {
        SimTime(self.0 + secs)
    }

    /// This time plus a fractional number of hours (rounded to seconds,
    /// clamped at zero, saturating at the end of time).
    pub fn plus_hours_f64(self, hours: f64) -> SimTime {
        SimTime(
            self.0
                .saturating_add((hours.max(0.0) * 3600.0).round() as u64),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.0 / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, then FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Drives an [`EventQueue`] through a handler until a horizon.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.schedule(time, event);
    }

    /// Schedules an event `secs` seconds from now.
    pub fn schedule_in(&mut self, secs: u64, event: E) {
        let t = self.now.plus_secs(secs);
        self.queue.schedule(t, event);
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the queue drains or the next event is beyond `horizon`;
    /// the handler may schedule more events through the engine.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (t, e) = self.queue.pop().expect("peeked");
            self.now = t;
            handler(self, t, e);
        }
        self.now = self.now.max(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        let t = SimTime::from_hours(2).plus_secs(90);
        assert_eq!(t.as_secs(), 7290);
        assert_eq!(t.as_hours(), 2);
        assert!((t.as_hours_f64() - 2.025).abs() < 1e-12);
        assert_eq!(SimTime::from_minutes(3).as_secs(), 180);
        assert_eq!(t.to_string(), "02:01:30");
    }

    #[test]
    fn plus_hours_rounds_to_seconds() {
        let t = SimTime::ZERO.plus_hours_f64(0.5);
        assert_eq!(t.as_secs(), 1800);
        let neg = SimTime(10).plus_hours_f64(-5.0);
        assert_eq!(neg.as_secs(), 10, "negative durations clamp to zero");
        let never = SimTime(10).plus_hours_f64(f64::INFINITY);
        assert_eq!(never.as_secs(), u64::MAX, "endless durations saturate");
    }

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), "b");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(50), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(50), "b")), "FIFO among ties");
        assert_eq!(q.pop(), Some((SimTime(50), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn engine_runs_cascading_events() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime(10), 1);
        let mut seen = Vec::new();
        engine.run_until(SimTime(100), |eng, t, e| {
            seen.push((t.as_secs(), e));
            if e < 3 {
                eng.schedule_in(20, e + 1);
            }
        });
        assert_eq!(seen, vec![(10, 1), (30, 2), (50, 3)]);
        assert_eq!(engine.now(), SimTime(100));
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn horizon_stops_early_and_preserves_future_events() {
        let mut engine: Engine<&str> = Engine::new();
        engine.schedule_at(SimTime(10), "now");
        engine.schedule_at(SimTime(1000), "later");
        let mut seen = Vec::new();
        engine.run_until(SimTime(100), |_, _, e| seen.push(e));
        assert_eq!(seen, vec!["now"]);
        assert_eq!(engine.pending(), 1);
        engine.run_until(SimTime(2000), |_, _, e| seen.push(e));
        assert_eq!(seen, vec!["now", "later"]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime(10), ());
        engine.run_until(SimTime(50), |_, _, _| {});
        engine.schedule_at(SimTime(5), ());
    }
}
