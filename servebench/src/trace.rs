//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions — nothing inside the program is instrumented.
//! Every span carries its request id and parent, and the whole list is
//! written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `service.sketch_query`.
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so the
/// untraced run pays nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Returned by [`Tracer::open`] on a disabled tracer.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its handle for [`close`](Self::close) and for
    /// use as a child's parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            parent: parent.filter(|&p| p != NO_SPAN),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, span: usize) {
        if span != NO_SPAN {
            let now = self.now_ns();
            self.spans[span].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// (`request, index, parent, name, start_ns, end_ns, self_ns`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns"
        )?;
        let self_times = self_times_ns(&self.spans);
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
#[must_use]
pub fn clipped_union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to its own), so overlapping children are not counted
/// twice and a child running past its parent's end is not charged to it.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| span.duration_ns() - clipped_union_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(clipped_union_ns(&[], 0, 100), 0);
        assert_eq!(
            clipped_union_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100),
            30
        );
        assert_eq!(clipped_union_ns(&[(10, 20), (20, 30)], 0, 100), 20);
        assert_eq!(clipped_union_ns(&[(0, 50), (10, 20)], 0, 100), 50);
        // Clipped to the parent window [25, 45].
        assert_eq!(clipped_union_ns(&[(10, 30), (40, 60)], 25, 45), 10);
        assert_eq!(clipped_union_ns(&[(50, 60)], 0, 40), 0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a on [30, 40]
            span("a.child", Some(1), 15, 25),
        ];
        let self_ns = self_times_ns(&spans);
        // Root covers 100; children cover [10, 60] = 50.
        assert_eq!(self_ns, vec![50, 20, 30, 10]);
    }

    #[test]
    fn self_times_of_a_sequential_tree_sum_to_the_root() {
        let spans = vec![
            span("root", None, 0, 1_000),
            span("decode", Some(0), 5, 50),
            span("sketch", Some(0), 50, 800),
            span("rank", Some(0), 800, 990),
        ];
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn children_outside_the_parent_window_are_not_charged() {
        let spans = vec![
            span("root", None, 100, 200),
            span("late", Some(0), 150, 400),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 250]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let out = tracer.time("x", None, 1, || 7);
        assert_eq!(out, 7);
        let s = tracer.open("y", None, 1);
        tracer.close(s);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("root", None, 9);
        tracer.time("child", Some(root), 9, || ());
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
