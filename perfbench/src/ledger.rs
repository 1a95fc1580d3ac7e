//! The traced run's span ledger.
//!
//! The benchmark opens a span around every call it makes into a layer
//! of the program. A span's self time is its duration minus the part
//! of it that its child spans cover; the root span's self time is the
//! time no layer accounts for. The ledger closes when the self times
//! add up to the root's wall time and the unattributed share stays
//! under [`MAX_UNATTRIBUTED`].

use std::collections::BTreeMap;
use std::time::Instant;

/// The largest share of the traced wall time the ledger may leave
/// unattributed before the benchmark refuses it.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// One timed call into a layer, in nanoseconds since the ledger began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Ledger {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        result
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its
/// children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.nanos() - covered(s.start, s.end, kids))
        .collect()
}

/// A closed ledger: self time per span name, with the root's own
/// self time as the unattributed remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct Closed {
    pub wall_nanos: u64,
    pub unattributed_nanos: u64,
    pub self_nanos: BTreeMap<&'static str, u64>,
}

impl Closed {
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_nanos as f64 / self.wall_nanos.max(1) as f64
    }
}

/// Closes a ledger with exactly one root span.
///
/// # Errors
///
/// When there is not exactly one root, when the self times do not add
/// up to the root's wall time (spans that overlap or stick out of
/// their parent), or when the unattributed share exceeds
/// [`MAX_UNATTRIBUTED`].
pub fn close(spans: &[Span]) -> Result<Closed, String> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    let [root] = roots[..] else {
        return Err(format!("ledger has {} root spans, not 1", roots.len()));
    };
    let selfs = self_times(spans);
    let wall = spans[root].nanos();
    let total: u64 = selfs.iter().sum();
    if total != wall {
        return Err(format!(
            "ledger does not close: self times add up to {total} ns, wall is {wall} ns"
        ));
    }
    let mut self_nanos = BTreeMap::new();
    for (i, (s, &own)) in spans.iter().zip(&selfs).enumerate() {
        if i != root {
            *self_nanos.entry(s.name).or_insert(0) += own;
        }
    }
    let closed = Closed {
        wall_nanos: wall,
        unattributed_nanos: selfs[root],
        self_nanos,
    };
    if closed.unattributed_share() > MAX_UNATTRIBUTED {
        return Err(format!(
            "ledger leaves {:.1}% of the traced wall time unattributed (limit {:.0}%)",
            closed.unattributed_share() * 100.0,
            MAX_UNATTRIBUTED * 100.0
        ));
    }
    Ok(closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_the_children_it_covers() {
        let spans = [
            span("run", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 20, 25),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 40, 5]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span("run", None, 0, 100),
            span("x", Some(0), 10, 60),
            span("y", Some(0), 40, 120),
        ];
        // Children cover [10, 100): 90 of the root's 100 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn a_nested_ledger_closes_and_names_its_layers() {
        let spans = [
            span("run", None, 0, 1000),
            span("trace.decode", Some(0), 0, 300),
            span("core.translate", Some(0), 300, 980),
            span("trace.decode", Some(0), 980, 990),
        ];
        let closed = close(&spans).unwrap();
        assert_eq!(closed.wall_nanos, 1000);
        assert_eq!(closed.unattributed_nanos, 10);
        assert_eq!(closed.self_nanos["trace.decode"], 310);
        assert_eq!(closed.self_nanos["core.translate"], 680);
        assert!(!closed.self_nanos.contains_key("whomp.grammar"));
    }

    #[test]
    fn overlapping_siblings_do_not_close() {
        let spans = [
            span("run", None, 0, 100),
            span("a", Some(0), 0, 60),
            span("b", Some(0), 40, 100),
        ];
        assert!(close(&spans).unwrap_err().contains("does not close"));
    }

    #[test]
    fn too_much_unattributed_time_is_refused() {
        let spans = [span("run", None, 0, 100), span("a", Some(0), 0, 90)];
        assert!(close(&spans).unwrap_err().contains("unattributed"));
        let two_roots = [span("run", None, 0, 1), span("run", None, 1, 2)];
        assert!(close(&two_roots).is_err());
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut ledger = Ledger::default();
        ledger.span("run", |l| {
            l.span("a", |l| l.span("b", |_| ()));
            l.span("c", |_| ());
        });
        let parents: Vec<_> = ledger.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        let total: u64 = self_times(ledger.spans()).iter().sum();
        assert_eq!(total, ledger.spans()[0].end - ledger.spans()[0].start);
    }
}
