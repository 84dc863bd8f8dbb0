//! The benchmark's own spans: recorded around calls into each layer's public
//! functions, kept in memory, and written out when the run ends. Nothing
//! inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One clock origin for every tracer of the process, so that spans from
/// different threads merge onto one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Span id; `NONE` marks a root span (and every id of a disabled tracer).
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    parent: SpanId,
    /// Identifier shared by every span of one request.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
}

impl Totals {
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        epoch();
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        epoch().elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans opened between the
    /// two calls with this span as `parent` are its children.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another tracer's spans (from another thread), re-parented
    /// into this trace's id space.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        for s in other.spans {
            self.spans.push(Span {
                parent: if s.parent == NONE {
                    NONE
                } else {
                    s.parent + base
                },
                ..s
            });
        }
    }

    /// Span count and total time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as one JSON line: id, parent, request, name, start
    /// and end in nanoseconds since the first tracer was made.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
