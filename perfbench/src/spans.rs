//! Benchmark-side spans: one around each public call the benchmark makes
//! into a layer, kept in memory and written out as JSON lines at the end
//! of a traced run. An untraced run hands out span ids of 0 and records
//! nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type SpanId = u64;

/// An open span; close it with [`Spans::close`].
pub struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Instant,
}

impl Span {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

struct Record {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: String) -> Spans {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: SpanId) -> Span {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Relaxed)
        } else {
            0
        };
        Span {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends the span and returns its duration; the duration is measured
    /// whether or not spans are recorded.
    pub fn close(&self, span: Span) -> Duration {
        let end = Instant::now();
        if self.enabled {
            let nanos = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.records
                .lock()
                .expect("span log poisoned by a panicking recorder")
                .push(Record {
                    id: span.id,
                    parent: span.parent,
                    name: span.name,
                    start_ns: nanos(span.start),
                    end_ns: nanos(end),
                });
        }
        end - span.start
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// wall time.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, parent);
        let value = f();
        (value, self.close(span))
    }

    pub fn len(&self) -> usize {
        self.records.lock().expect("span log poisoned").len()
    }

    /// Writes every recorded span as one JSON line, in id order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut records = self.records.lock().expect("span log poisoned");
        records.sort_by_key(|r| r.id);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in records.iter() {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, r.id, r.parent, r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}
