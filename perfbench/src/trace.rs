//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`; spans are kept in a vector and
//! written out once, when the run ends. A layer's self time is its span's
//! duration minus the durations of its direct children. Spans are strictly
//! nested and recorded by one thread: the mapper's phase totals
//! (`MapStats::phases`) are process-global, so concurrent spans would mix
//! runs.

use asyncmap::mapper::{MapPhase, PhaseTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the tracer's creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// The `MapStats::phases` entries recorded as children of a mapping span,
/// with the layer each belongs to.
const PHASE_SPANS: [(MapPhase, &str); 6] = [
    (MapPhase::Decompose, "network.decomp"),
    (MapPhase::Partition, "network.partition"),
    (MapPhase::ClusterEnum, "core.cluster_enum"),
    (MapPhase::Match, "core.match"),
    (MapPhase::HazardCheck, "core.hazard_check"),
    (MapPhase::CoverSelect, "core.cover_select"),
];

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure, which is the untraced baseline the overhead is taken
/// against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        self.last_closed = Some(index);
        out
    }

    /// Adds the phases of one mapping run as children of the span that
    /// closed last. `MapStats` gives durations only, so the children are
    /// laid back to back from the parent's start.
    pub fn phase_children(&mut self, phases: &PhaseTimes) {
        let Some(parent) = self.last_closed.filter(|_| self.enabled) else {
            return;
        };
        let mut at = self.spans[parent].start;
        for (phase, name) in PHASE_SPANS {
            let end = at + Duration::from_secs_f64(phases.secs(phase));
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(parent),
            });
            at = end;
        }
    }

    /// Adds `n` to the work counter `name`, counted where the work happens.
    pub fn add(&mut self, name: &'static str, n: usize) {
        *self.counters.entry(name).or_insert(0.0) += n as f64;
    }

    /// A work counter's total (zero if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Time since the tracer was created.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in seconds: each span's duration minus its
/// direct children's, floored at zero, summed over spans of one name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_total = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_total[p] += span.end.saturating_sub(span.start);
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_total) {
        let own = span.end.saturating_sub(span.start).saturating_sub(children);
        *out.entry(span.name).or_insert(0.0) += own.as_secs_f64();
    }
    out
}

/// The spans as JSON lines: `{"id":..,"name":..,"start_s":..,"end_s":..,"parent":..}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
            s.name,
            s.start.as_secs_f64(),
            s.end.as_secs_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("a", 0, 100, None),
            span("b", 10, 60, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 70, 80, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t["a"] - 0.040).abs() < 1e-9);
        assert!((t["b"] - 0.050).abs() < 1e-9);
        assert!((t["c"] - 0.010).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
