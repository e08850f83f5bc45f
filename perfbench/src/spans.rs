//! The benchmark's own trace: one span around every call it makes into a
//! layer (a client request, an in-process `Session` call, a bare-engine
//! run). Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// The request (or op) the span belongs to.
    pub request: u64,
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time their children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total: u64,
    pub self_time: u64,
}

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

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        since(self.origin)
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is filled in by [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Adds spans recorded elsewhere against the same origin (client
    /// threads keep their own buffers and hand them over at the end of a
    /// list).
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it (concurrent children, as from
    /// two client connections, are not counted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start;
                for (start, end) in kids {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end - span.start) - covered
            })
            .collect()
    }

    /// Totals per span name, in name order.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total += span.end - span.start;
            t.self_time += self_time;
        }
        out
    }

    /// Share (percent) of the grouping spans' time (roots with children,
    /// such as a request list) that no child span covers: the part of the
    /// run the trace does not attribute to any layer call. A root without
    /// children is itself a layer call and is fully attributed.
    pub fn unattributed_pct(&self) -> f64 {
        let selfs = self.self_times();
        let mut has_children = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                has_children[p] = true;
            }
        }
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (i, (span, self_time)) in self.spans.iter().zip(selfs).enumerate() {
            if span.parent.is_none() && has_children[i] {
                total += span.end - span.start;
                unattributed += self_time;
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * unattributed as f64 / total as f64
        }
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        let mut line = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            line.clear();
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                line,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start,
                span.end,
                span.request
            )
            .expect("writing to a String");
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Nanoseconds from `origin` to now.
pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
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
        let mut trace = Trace::new();
        let root = trace.push(span("list", 0, 100, None));
        // Two overlapping children (two connections) and one disjoint.
        trace.push(span("request", 10, 40, Some(root)));
        trace.push(span("request", 30, 50, Some(root)));
        trace.push(span("request", 70, 90, Some(root)));
        // A childless root is a layer call of its own: fully attributed.
        trace.push(span("session.verify", 200, 300, None));
        let selfs = trace.self_times();
        assert_eq!(selfs, vec![100 - 40 - 20, 30, 20, 20, 100]);
        let totals = trace.totals();
        assert_eq!(
            totals["request"],
            Totals {
                count: 3,
                total: 70,
                self_time: 70
            }
        );
        assert!((trace.unattributed_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn spans_serialize_with_their_parents() {
        let mut trace = Trace::new();
        let root = trace.push(span("pair", 0, 10, None));
        trace.push(span("verify", 1, 9, Some(root)));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}.json", std::process::id()));
        trace.write_json(&path, "sim-grid", 3).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"verify\",\"start_ns\":1,\"end_ns\":9,\"parent\":0"));
        lcs_obs::json::JsonValue::parse(text.trim()).expect("valid JSON");
    }
}
