//! Spans and counts recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one item on one worker, so recording touches no
//! shared state; the pool returns each item's tracer with its result and
//! the spans are merged and written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-prefixed name (`lp.minmax`, `sim.run`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span within the same item, if any.
    pub parent: Option<usize>,
    /// The item the span belongs to.
    pub item: usize,
    /// The worker thread that ran it.
    pub worker: usize,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and count recorder for one item.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    item: usize,
    worker: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Small dense id for the calling thread, assigned on first use.
fn worker_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

impl Tracer {
    /// A recorder for `item`, timing against the run's `epoch`.
    pub fn new(epoch: Instant, item: usize) -> Self {
        Self {
            epoch,
            item,
            worker: worker_id(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
            worker: self.worker,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The recorded spans and counts.
    pub fn into_parts(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (self.spans, self.counts)
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its direct children cover. `spans` holds one item's spans
/// (parent indices refer into the same slice).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(span.start_ns, span.end_ns, kids);
        *out.entry(span.name).or_default() += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{},\"worker\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.item, s.worker
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, item: 0, worker: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // item [0, 100) ⊃ cache [10, 90) ⊃ map [20, 70) ⊃ lp [30, 40)
        let spans = vec![
            span("item", 0, 100, None),
            span("dse.cache.map", 10, 90, Some(0)),
            span("nmap.split.map", 20, 70, Some(1)),
            span("lp", 30, 40, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["item"], 20);
        assert_eq!(t["dse.cache.map"], 30);
        assert_eq!(t["nmap.split.map"], 40);
        assert_eq!(t["lp"], 10);
        let total: u64 = t.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn self_time_sums_repeated_names_and_sibling_children() {
        let spans = vec![
            span("route", 0, 50, None),
            span("lp", 5, 15, Some(0)),
            span("lp", 20, 45, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["route"], 15);
        assert_eq!(t["lp"], 35);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 10, 60, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 55, 80, Some(0)),
        ];
        // Covered: [10, 40) and [55, 60) → 35 of 50.
        assert_eq!(self_times(&spans)["parent"], 15);
    }

    #[test]
    fn tracer_nests_spans_and_counts() {
        let mut t = Tracer::new(Instant::now(), 7);
        let v = t.span("outer", |t| {
            t.count("work", 2);
            t.span("inner", |t| {
                t.count("work", 3);
                41
            }) + 1
        });
        assert_eq!(v, 42);
        let (spans, counts) = t.into_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].item, 7);
        assert_eq!(counts["work"], 5);
        assert_eq!(spans_jsonl(&spans).lines().count(), 2);
    }
}
