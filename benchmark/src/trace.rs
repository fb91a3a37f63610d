//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only at boundaries the benchmark itself crosses
//! (a `Workload::txn` call, a request leaving and its reply arriving, a
//! probe batch); spans inside the program are a later change. They stay
//! in memory until the run ends and are then written as JSON lines.
//! Hot loops do not call into this module: they push raw timestamps
//! into their own buffers and hand them over afterwards, so "tracing
//! on" costs one extra clock read and one vector push per operation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans of one name written to the trace file; the rest are counted
/// in that name's summary line. A 6 M-transaction window would
/// otherwise be a 500 MB file.
pub const SPANS_WRITTEN_PER_NAME: usize = 2_000;

/// Index of a span in the recorder (`NO_PARENT` for roots).
pub type SpanId = u32;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary crossed, e.g. `wl.txn`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Operation identifier shared by the spans of one request.
    pub op: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// The recorder. One per process; multi-threaded phases collect raw
/// timestamps per thread and add them here after joining.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span timestamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let t = self.now_ns();
        self.add(name, parent, op, t, t)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let t = self.now_ns();
        self.spans[id as usize].end_ns = t;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: `(count, total ns, self ns)`, where self time
    /// is a span's duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*kids);
        }
        out
    }

    /// Write the trace as JSON lines: the first
    /// [`SPANS_WRITTEN_PER_NAME`] spans of each name, then one summary
    /// line per name covering every span recorded.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            if *n >= SPANS_WRITTEN_PER_NAME {
                continue;
            }
            *n += 1;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in self.summary() {
            writeln!(
                f,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.add("run", NO_PARENT, 0, 0, 1_000);
        t.add("wl.txn", root, 1, 100, 300);
        t.add("wl.txn", root, 2, 400, 900);
        let s = t.summary();
        assert_eq!(s["run"], (1, 1_000, 300));
        assert_eq!(s["wl.txn"], (2, 700, 700));
    }

    #[test]
    fn open_close_orders_timestamps() {
        let mut t = Tracer::new();
        let id = t.open("probe.pmem-sim", NO_PARENT, 7);
        t.close(id);
        let s = t.spans()[id as usize];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(s.op, 7);
    }

    #[test]
    fn file_is_capped_per_name_and_summarised() {
        let mut t = Tracer::new();
        let root = t.add("run", NO_PARENT, 0, 0, 10);
        for i in 0..(SPANS_WRITTEN_PER_NAME as u64 + 50) {
            t.add("wl.txn", root, i, i, i + 1);
        }
        // Inside the benchmark's own (ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = text
            .lines()
            .filter(|l| l.contains("\"name\":\"wl.txn\""))
            .count();
        assert_eq!(spans, SPANS_WRITTEN_PER_NAME);
        assert!(text.contains(&format!(
            "{{\"summary\":\"wl.txn\",\"count\":{}",
            SPANS_WRITTEN_PER_NAME + 50
        )));
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
