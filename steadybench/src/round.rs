//! What one measured round of a workload yields, and the fixed
//! parameters of each workload's measurement.

use std::collections::BTreeMap;

/// What kind of operation a sample is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The workload's read class.
    Read,
    /// The workload's write class (a committed transaction in
    /// `commit_heavy`).
    Write,
    /// A flush the workload's flush policy issues between user ops
    /// (`cold_stream` only). It occupies the window and the simulated
    /// server but is neither a read nor a write: it is not counted in
    /// `ops_per_s` or in the read and write latencies.
    Flush,
}

/// One completed operation of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Read, write or flush.
    pub class: Class,
    /// Wall-clock latency, nanoseconds (from the first attempt).
    pub wall_ns: u64,
    /// Completion time, nanoseconds since the window opened.
    pub done_ns: u64,
    /// Simulated service time, microseconds.
    pub sim_us: u64,
    /// The simulated client that issued the op.
    pub agent: u32,
    /// Bit `i` set: the op holds simulated resource `i` while served.
    pub resources: u32,
}

/// Distinct seeded op streams per run. Round `i` runs stream
/// `i % STREAMS`, and the `sim_*` metrics replay the first `STREAMS`
/// rounds back to back, so they rest on several streams' samples.
pub const STREAMS: usize = 4;

/// Per-layer counter deltas over a window, by `layer.counter` name.
pub type Counters = BTreeMap<String, f64>;

/// `after - before`, counter by counter, dropping counters that did not
/// move.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    let mut d = Counters::new();
    add_delta(&mut d, before, after);
    d.retain(|_, v| *v != 0.0);
    d
}

/// Ops at the start of a traced window whose spans also carry layer
/// counter deltas (taking `stats()` around every op would cost more than
/// the op).
pub const DELTA_SPANS: usize = 64;

/// Adds `after - before` for every counter of `after` into `into`.
pub fn add_delta(into: &mut Counters, before: &Counters, after: &Counters) {
    for (k, v) in after {
        *into.entry(k.clone()).or_insert(0.0) += v - before.get(k).copied().unwrap_or(0.0);
    }
}

/// The outcome of one round: a fresh set-up, then a fixed op stream.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds spent formatting, seeding and warming.
    pub setup_s: f64,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    /// Every completed op of the window, in completion order.
    pub samples: Vec<Sample>,
    /// Ops attempted in the window (a retried transaction counts once).
    pub attempted: u64,
    /// Ops that did not complete (errors, exhausted retry budgets).
    pub failed: u64,
    /// Correctness violations found against the model; any one fails
    /// the run.
    pub errors: Vec<String>,
    /// Bytes allocated on the data disks ÷ live user bytes, at the end.
    pub space_amp: f64,
    /// Layer counters accumulated over the window.
    pub counters: Counters,
}

impl Round {
    /// Completed reads and writes (flushes are not user ops).
    pub fn user_ops(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.class != Class::Flush)
            .count()
    }

    /// Records a correctness violation (kept short: the first few are
    /// enough to diagnose).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        } else if self.errors.len() == 8 {
            self.errors.push("further errors suppressed".into());
        }
    }
}

/// Fixed parameters of a workload's measurement. They are constants of
/// the benchmark, never derived from the run measured.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Offered open-loop arrival rate for the `sim_*` latencies, ops per
    /// kilosecond (the fixed-point unit of `loadgen::Trace::replay`).
    pub rate_per_ks: u64,
    /// The p99 latency limit `sim_capacity_ops_s` must meet, µs.
    pub p99_limit_us: u64,
    /// Lowest rung of the capacity ladder, ops per kilosecond.
    pub ladder_base_per_ks: u64,
    /// Simulated clients in the replay.
    pub agents: usize,
    /// Simulated resources (servers, coordinator) in the replay.
    pub resources: usize,
}
