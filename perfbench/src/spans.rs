//! Spans recorded from the benchmark's side of each call into the program.
//!
//! The program itself carries no tracing: every span wraps a call the
//! benchmark makes into a layer's public API (`World::admit_stream`,
//! `World::run_until`, `ShardedWorld::run_net_with_workers`, ...). Spans
//! are kept in memory and written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `None` parents are roots.
type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one run. A disabled tracer records nothing
/// and its calls reduce to one branch, so the untraced replay runs the same
/// code as the traced one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it its child spans cover, summed over spans of that name.
    /// Children of one span never overlap (the benchmark opens them from
    /// one thread, in sequence), so "covered" is the sum of their lengths.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line: run id, span id, parent, name,
    /// start and end in nanoseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"run\": \"{run_id}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("outer");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(30));
        t.close();
        t.close();
        let own = t.self_seconds();
        assert!(own["inner"] >= 0.03);
        assert!(own["outer"] >= 0.02 && own["outer"] < 0.03 + 0.02);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("outer");
        t.open("inner");
        t.close();
        t.close();
        assert!(t.self_seconds().is_empty());
    }
}
