//! Spans recorded around calls into the simulator's layers.
//!
//! The benchmark never traces inside the program: a span brackets one
//! call into a layer's public function, from the benchmark's own code.
//! Each point, and the traced set-up, keeps its own [`SpanLog`] in
//! memory; the logs are written out when the benchmark ends.

use std::time::Instant;

/// One timed call: name, start and end (nanoseconds since the run's
/// epoch), and the index of the enclosing span in the same log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The spans of one point (or one set-up), in the order they were opened.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open on this log.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Opens a span that stays open until [`SpanLog::close`]; spans
    /// recorded in between nest under it.
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `index` returned by [`SpanLog::open`].
    pub fn close(&mut self, index: usize) {
        debug_assert_eq!(self.open.last(), Some(&index), "spans close in stack order");
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Runs `f`, inside a span when a log is given.
pub fn traced<R>(log: &mut Option<SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.span(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may nest, overlap one another (spans
/// from several threads under one parent) or stick out of the parent;
/// only their union inside the parent's interval is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as JSON lines, one object per span; `log` tells apart the
/// logs whose `parent` indices a span refers to.
pub fn to_json_lines(spans: &[(usize, Span)]) -> String {
    let mut out = String::new();
    for (log, s) in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"log\":{log},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("point", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("core", 20, 30, Some(1)),
            span("isa.check", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 50 - 10, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two workers' spans under one round overlap in time.
        let spans = vec![
            span("round", 0, 100, None),
            span("point", 10, 60, Some(0)),
            span("point", 40, 90, Some(0)),
            span("point", 50, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("round", 10, 50, None),
            span("point", 0, 20, Some(0)),
            span("point", 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn log_nests_by_call_order() {
        let mut log = SpanLog::new(Instant::now());
        let outer = log.open("point");
        log.span("sim.new", || ());
        log.span("sim.run", log_free_work);
        log.close(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].end_ns - spans[0].start_ns);
    }

    fn log_free_work() -> u64 {
        (0..1000u64).sum()
    }
}
