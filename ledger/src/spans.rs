//! The ledger's trace recorder. Spans are recorded from the ledger's own
//! files, around its calls into each layer and from the phase durations the
//! product's result types report; they stay in memory until the run ends.
//! Spans inside the product are a later change (ROADMAP item 4).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Index of the request this span belongs to; spans of one request
    /// share it.
    pub request: u32,
    /// Index (into the recorder) of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Records a child of `parent` from a duration the product reported
    /// (it has no timestamps of its own): laid out from `*cursor_ns`, which
    /// advances past it, and clipped to the parent's interval.
    pub fn add_reported(
        &mut self,
        name: &'static str,
        parent: usize,
        cursor_ns: &mut u64,
        micros: u64,
    ) -> usize {
        let (request, limit) = (self.spans[parent].request, self.spans[parent].end_ns);
        let start = (*cursor_ns).min(limit);
        let end = (start + micros * 1_000).min(limit);
        *cursor_ns = end;
        self.add(name, request, Some(parent), start, end)
    }

    /// Total self time per span name, ns: a span's duration minus the part
    /// of its interval its children cover (children never overlap here).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Sum of root-span durations, ns: the end-to-end time the self times
    /// are shares of.
    pub fn root_total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let root = r.add("root", 0, None, 0, 1_000);
        let mut cursor = 100;
        let child = r.add_reported("child", root, &mut cursor, 0);
        assert_eq!(r.spans[child].end_ns, 100);
        r.add("a", 0, Some(root), 100, 400);
        let b = r.add("b", 0, Some(root), 500, 900);
        r.add("c", 0, Some(b), 600, 700);
        let st = r.self_times();
        assert_eq!(st["root"], 1_000 - 300 - 400);
        assert_eq!(st["a"], 300);
        assert_eq!(st["b"], 300);
        assert_eq!(st["c"], 100);
        assert_eq!(r.root_total(), 1_000);
    }

    #[test]
    fn reported_children_are_clipped_to_the_parent() {
        let mut r = Recorder::new();
        let root = r.add("root", 0, None, 0, 1_000);
        let mut cursor = 0;
        r.add_reported("x", root, &mut cursor, 2); // 2 us > 1 us parent
        assert_eq!(cursor, 1_000);
        assert_eq!(r.self_times()["root"], 0);
    }
}
