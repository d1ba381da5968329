//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! are kept in memory while the run lasts and written out once, when it
//! ends. Recording is off in untraced runs: every call then costs one
//! branch, so the untraced path times the program and nothing else.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in recording order).
pub type SpanId = usize;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder. Shared by reference across client threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span that ran from `start` to `end`. Returns its id, or
    /// `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose children need its id before it closes: the span
    /// is recorded with a provisional end and closed by [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.epoch.elapsed().as_secs_f64();
            let mut spans = self
                .spans
                .lock()
                .expect("no thread panics holding the span list");
            spans[id].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, 0, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }

    /// Writes every span as one JSON document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start,
                s.end,
                s.request,
                if i + 1 == spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per span name: `(count, total seconds, total self seconds, median
/// seconds)`, by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        by_name.entry(s.name).or_default().push((s.duration(), own));
    }
    by_name
        .into_iter()
        .map(|(name, v)| {
            let durations: Vec<f64> = v.iter().map(|x| x.0).collect();
            let total = durations.iter().sum();
            let own = v.iter().map(|x| x.1).sum();
            let med = stats::median(&durations).unwrap_or(0.0);
            (name, (v.len(), total, own, med))
        })
        .collect()
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Per parent span, the summed duration of its children named `name`:
/// e.g. the anneal time of each traced round.
pub fn totals_per_parent(spans: &[Span], name: &str) -> Vec<f64> {
    let mut per: BTreeMap<Option<SpanId>, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per.entry(s.parent).or_default() += s.duration();
    }
    per.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a`: the union 1..6 is covered once.
            span("b", 3.0, 6.0, Some(0)),
            span("leaf", 2.0, 3.0, Some(1)),
            // Sticks out of its parent: only the inside part counts.
            span("c", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("round", 0.0, 4.0, None),
            span("x", 0.0, 1.0, Some(0)),
            span("x", 1.0, 3.0, Some(0)),
        ];
        let s = summary(&spans);
        assert_eq!(s["x"], (2, 3.0, 3.0, 1.5));
        assert_eq!(s["round"], (1, 4.0, 1.0, 4.0));
        assert_eq!(totals_per_parent(&spans, "x"), vec![3.0]);
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", None, 0);
        t.close(id);
        assert_eq!(t.time("y", None, || 7), 7);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
