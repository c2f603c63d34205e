//! In-memory spans recorded by the traced replay, written out when the
//! run ends. A span is one call into a layer's public function; the
//! spans of one replayed request share its id, and a child names the
//! span that caused it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.encode`.
    pub name: &'static str,
    /// The replayed request this call served.
    pub request: u64,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace origin.
    pub start: u64,
    /// End, nanoseconds since the trace origin.
    pub end: u64,
}

/// Spans of one run, kept in memory.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose end is set later by [`Trace::close`] (a
    /// parent whose children are recorded in between).
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Self time of every span in microseconds, grouped by name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let t = self_time((s.start, s.end), kids);
            out.entry(s.name).or_default().push(t as f64 / 1e3);
        }
        out
    }

    /// Writes one JSON object per span (`name`, `request`, `parent`,
    /// `start_ns`, `end_ns`, `self_ns`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start,
                s.end,
                self_time((s.start, s.end), &children[i])
            )?;
        }
        w.flush()
    }
}

/// A span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in kids {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Overlapping children cover [10, 40]; one spills past the end
        // and is clipped to [90, 100].
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40), (90, 120)]), 60);
        // A child nested inside another is not counted twice.
        assert_eq!(self_time((0, 100), &[(10, 50), (20, 30)]), 60);
        // Children covering everything leave no self time.
        assert_eq!(self_time((5, 10), &[(0, 7), (7, 20)]), 0);
    }

    #[test]
    fn trace_groups_self_time_by_name() {
        let mut t = Trace::new();
        let req = t.open("request", 1);
        let (_, _) = t.span("decode", 1, Some(req), || std::hint::black_box(1 + 1));
        t.close(req);
        let times = t.self_times_us();
        assert_eq!(times["request"].len(), 1);
        assert_eq!(times["decode"].len(), 1);
        let total = (t.spans[req].end - t.spans[req].start) as f64 / 1e3;
        let sum = times["request"][0] + times["decode"][0];
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
    }
}
