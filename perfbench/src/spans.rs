//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into the public
//! functions of each layer; nothing inside the program is instrumented.
//! Every span carries a name, start and end (nanoseconds since the
//! recorder was created), its parent span and the run id of the cycle
//! that produced it. The spans are kept in memory and written out once,
//! when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (between two instants taken
    /// after this recorder was created) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            run: self.run,
        });
    }

    /// Sum of inclusive durations per span name, for one run id.
    pub fn totals(&self, run: u64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.run == run) {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Time of the named roots of one run and the part of it no child
    /// span covers. Children of one span never overlap (recording is
    /// single-threaded), so a root's self time is its duration minus its
    /// children's.
    pub fn unattributed(&self, run: u64, roots: &[&str]) -> (f64, f64) {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.run == run) {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.end_ns - s.start_ns;
            }
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run && s.parent.is_none() && roots.contains(&s.name) {
                let d = s.end_ns - s.start_ns;
                total += d;
                uncovered += d.saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
            }
        }
        (total as f64 / 1e9, uncovered as f64 / 1e9)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, run_tag: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run_tag}/{}\",\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
