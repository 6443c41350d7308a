//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out as JSON lines when the run ends.

use crate::round::Counters;
use std::io::Write;
use std::time::Instant;

/// Spans kept per span name for the written trace; every span counts in
/// the per-name totals.
const KEEP_PER_NAME: usize = 2_000;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// `layer.fn`.
    name: &'static str,
    /// The op (request) the span belongs to; spans of one op share it.
    op: u64,
    /// Sequential id of this span.
    id: u64,
    /// Id of the enclosing span, if any (none so far: the benchmark
    /// replays each layer as a rung of its own, so spans do not nest).
    parent: Option<u64>,
    /// Start, nanoseconds since the first span.
    start_ns: u64,
    /// End, nanoseconds since the first span.
    end_ns: u64,
    /// Simulated time that passed inside the span, µs.
    sim_us: u64,
    /// Layer counter deltas over the span, when the caller took them.
    deltas: Counters,
}

/// Per-name totals over every span of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans ended.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub ns: u64,
}

/// Records spans and keeps per-name totals.
#[derive(Debug, Default)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<(Span, Instant)>,
    next_id: u64,
    /// Whether the span closed last was kept in `spans`.
    last_kept: bool,
    /// Totals and kept-span counts by span name, in first-seen order (a
    /// run uses a handful of names, so a scan beats a map).
    totals: Vec<(&'static str, Total, usize)>,
}

impl Tracer {
    /// Opens a span; spans nest, so the innermost open span is its parent.
    pub fn enter(&mut self, name: &'static str, op: u64, sim_now: u64) {
        let now = Instant::now();
        self.next_id += 1;
        let span = Span {
            name,
            op,
            id: self.next_id,
            parent: self.open.last().map(|(p, _)| p.id),
            start_ns: (now - *self.origin.get_or_insert(now)).as_nanos() as u64,
            end_ns: 0,
            sim_us: sim_now,
            deltas: Counters::new(),
        };
        self.open.push((span, now));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self, sim_now: u64) {
        let (mut span, started) = self.open.pop().expect("exit matches an enter");
        let ns = started.elapsed().as_nanos() as u64;
        span.end_ns = span.start_ns + ns;
        span.sim_us = sim_now - span.sim_us;
        let k = match self.totals.iter().position(|(n, ..)| *n == span.name) {
            Some(k) => k,
            None => {
                self.totals.push((span.name, Total::default(), 0));
                self.totals.len() - 1
            }
        };
        let (_, t, kept) = &mut self.totals[k];
        t.count += 1;
        t.ns += ns;
        self.last_kept = *kept < KEEP_PER_NAME;
        if self.last_kept {
            *kept += 1;
            self.spans.push(span);
        }
    }

    /// Attaches layer counter deltas to the span closed last.
    pub fn set_deltas(&mut self, deltas: Counters) {
        if self.last_kept {
            if let Some(s) = self.spans.last_mut() {
                s.deltas = deltas;
            }
        }
    }

    /// Totals over every span so far.
    pub fn sum(&self) -> Total {
        self.totals
            .iter()
            .fold(Total::default(), |a, (_, t, _)| Total {
                count: a.count + t.count,
                ns: a.ns + t.ns,
            })
    }

    /// Writes the kept spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let deltas: Vec<String> = s
                .deltas
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                f,
                "{{\"name\": \"{}\", \"op\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"sim_us\": {}, \"deltas\": {{{}}}}}",
                s.name,
                s.op,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.sim_us,
                deltas.join(", ")
            )?;
        }
        f.flush()
    }
}
