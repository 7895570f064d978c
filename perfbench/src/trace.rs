//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around calls into each
//! layer's public functions: name, start, end, parent span and request
//! id. They stay in memory and are written out once, at the end of the
//! run. A layer's self time is its span's duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: calls, wall time and self time, in ms.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Self time of spans called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |l| l.self_ms)
    }

    /// Mean self time per span called `name`, in ms (0 when none).
    pub fn self_ms_per_call(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |l| l.self_ms / l.calls as f64)
    }

    /// Writes every span as one tab-separated line (written once, at
    /// the end of the run).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("id\tname\treq\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}
