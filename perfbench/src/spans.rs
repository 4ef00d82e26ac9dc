//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program): a name, a start and an end on one
//! monotonic clock, and the span that was open when it started. Nothing
//! is written out until the run ends.

use std::time::Instant;

/// One closed (or still open) interval of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `net.run_net`.
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span tree for one process.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the caller).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends a pre-built span (its parent must already be recorded).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of `[start, end)` covered by at least one of the
    /// intervals, each clipped to `[start, end)` first.
    fn covered_ns(start: u64, end: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
        let mut clipped: Vec<(u64, u64)> = intervals
            .map(|(s, e)| (s.max(start), e.min(end)))
            .filter(|(s, e)| s < e)
            .collect();
        clipped.sort_unstable();
        let mut covered = 0;
        let mut reach = start;
        for (s, e) in clipped {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    fn children_covered_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        Self::covered_ns(
            parent.start_ns,
            parent.end_ns,
            self.spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| (s.start_ns, s.end_ns)),
        )
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns() - self.children_covered_ns(id)
    }

    /// Share of span `id` that no child span covers (0 for an empty span).
    pub fn unattributed_ratio(&self, id: usize) -> f64 {
        let total = self.spans[id].duration_ns();
        if total == 0 {
            return 0.0;
        }
        self.self_ns(id) as f64 / total as f64
    }

    /// Summed duration of the spans named `name` under `root` (at any
    /// depth), in seconds.
    pub fn total_s(&self, root: usize, name: &str) -> f64 {
        self.named_under(root, name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Longest single span named `name` under `root`, in seconds.
    pub fn max_s(&self, root: usize, name: &str) -> f64 {
        self.named_under(root, name)
            .map(Span::duration_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e9
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == root {
                return true;
            }
            id = p;
        }
        false
    }

    fn named_under<'s>(&'s self, root: usize, name: &'s str) -> impl Iterator<Item = &'s Span> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(i, s)| s.name == name && self.is_under(*i, root))
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// root [0, 100): children [10, 30) and [20, 50) overlap, [90, 120)
    /// runs past the root's end; a grandchild never counts against the
    /// root directly.
    fn sample() -> Trace {
        let mut t = Trace::new();
        let root = t.push(span("pass", None, 0, 100));
        let a = t.push(span("a", Some(root), 10, 30));
        t.push(span("b", Some(root), 20, 50));
        t.push(span("c", Some(root), 90, 120));
        t.push(span("a.inner", Some(a), 12, 18));
        t.push(span("elsewhere", None, 200, 260));
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let t = sample();
        // Covered: [10, 50) ∪ [90, 100) = 50 ns.
        assert_eq!(t.self_ns(0), 50);
        assert!((t.unattributed_ratio(0) - 0.5).abs() < 1e-12);
        // `a` [10, 30) minus its child [12, 18).
        assert_eq!(t.self_ns(1), 14);
        // A leaf's self time is its duration.
        assert_eq!(t.self_ns(2), 30);
        assert_eq!(t.self_ns(5), 60);
    }

    #[test]
    fn nested_and_disjoint_children_do_not_double_count() {
        let mut t = Trace::new();
        let root = t.push(span("pass", None, 0, 10));
        t.push(span("x", Some(root), 0, 10));
        t.push(span("y", Some(root), 2, 4));
        assert_eq!(t.self_ns(root), 0);
        assert_eq!(t.unattributed_ratio(root), 0.0);
        let empty = t.push(span("empty", None, 5, 5));
        assert_eq!(t.unattributed_ratio(empty), 0.0);
    }

    #[test]
    fn totals_and_maxima_only_see_spans_under_the_root() {
        let mut t = Trace::new();
        let r1 = t.push(span("pass", None, 0, 100));
        t.push(span("round", Some(r1), 0, 30));
        t.push(span("round", Some(r1), 30, 80));
        let r2 = t.push(span("pass", None, 100, 200));
        t.push(span("round", Some(r2), 100, 110));
        assert!((t.total_s(r1, "round") - 80e-9).abs() < 1e-18);
        assert!((t.max_s(r1, "round") - 50e-9).abs() < 1e-18);
        assert!((t.total_s(r2, "round") - 10e-9).abs() < 1e-18);
        assert_eq!(t.max_s(r2, "missing"), 0.0);
    }

    #[test]
    fn live_spans_nest_under_the_innermost_open_span() {
        let mut t = Trace::new();
        let root = t.enter("pass");
        let v = t.time("leaf", || 7);
        t.exit(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
    }
}
