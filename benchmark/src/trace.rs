//! Spans recorded by the benchmark's own code, kept in memory during the run
//! and written out as JSON after it ends. Spans inside the program are a
//! later change; these sit around the calls into it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::drive::OpRec;
use crate::gen::Item;
use crate::metrics::Stages;

/// A host-clock span: seconds since the process began measuring.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub id: u32,
    /// The span that caused this one (`0`: none).
    pub parent: u32,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// Collects host spans; one per run.
pub struct HostSpans {
    origin: Instant,
    pub spans: Vec<HostSpan>,
}

impl HostSpans {
    pub fn new() -> Self {
        HostSpans {
            origin: Instant::now(),
            // Room for every span of a run up front: growing this vector
            // inside a repetition would move that repetition's live-bytes
            // peak, which must repeat exactly.
            spans: Vec::with_capacity(256),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span now; close it with [`HostSpans::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.elapsed_s();
        self.spans.push(HostSpan {
            id,
            parent,
            name,
            start_s: now,
            end_s: now,
        });
        id
    }

    /// Closes span `id` now and returns how long it lasted.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.elapsed_s();
        let span = &mut self.spans[id as usize - 1];
        span.end_s = now;
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, parent);
        let value = f();
        (value, self.close(id))
    }
}

/// The traced repetition's spans and stage table, as written to disk.
///
/// `op_spans` rows are `[op index, class, client, virtual start ns, virtual
/// end ns]`; every op span's parent is the host span `drive_span`.
pub struct TraceFile<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub clients: usize,
    pub drive_span: u32,
    pub host: &'a [HostSpan],
    pub items: &'a [Item],
    pub recs: &'a [OpRec],
    pub stages: &'a Stages,
}

impl TraceFile<'_> {
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{}\",\"seed\":{},",
            self.workload, self.seed
        )?;
        writeln!(w, "\"host_spans\":[")?;
        for (i, s) in self.host.iter().enumerate() {
            let comma = if i + 1 < self.host.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{:.6},\"end_s\":{:.6}}}{comma}",
                s.id, s.parent, s.name, s.start_s, s.end_s
            )?;
        }
        writeln!(w, "],")?;
        let st = self.stages;
        writeln!(
            w,
            "\"stages_mean_us\":{{\"issue_to_dispatch\":{:.4},\"dispatch_to_wal\":{:.4},\"wal_to_flush\":{:.4},\"rest\":{:.4},\"op_latency\":{:.4},\"requests\":{}}},",
            st.issue_to_dispatch_us,
            st.dispatch_to_wal_us,
            st.wal_to_flush_us,
            st.rest_us,
            st.mean_latency_us,
            st.requests
        )?;
        writeln!(w, "\"op_spans_parent\":{},", self.drive_span)?;
        writeln!(w, "\"op_spans\":[")?;
        for (i, (item, rec)) in self.items.iter().zip(self.recs).enumerate() {
            let comma = if i + 1 < self.recs.len() { "," } else { "" };
            writeln!(
                w,
                "[{i},\"{}\",{},{},{}]{comma}",
                item.kind.name(),
                i % self.clients,
                rec.start_ns,
                rec.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
