//! `commit_heavy`: two data servers; waves of two-file cross-shard
//! transactions through `Cluster::commit_batch`, with `Cluster::read`s
//! of committed bytes between waves. A transaction that aborts (a lock
//! conflict inside its wave votes no) is retried in the next wave.
//!
//! `txn` (locks, Prepared records, log forces, WAL/shadow apply), the
//! 2PC coordinator and the decision log do the work, on the same
//! `cluster`/`wire` path `hot_small` reads through.

use crate::hot;
use crate::round::{delta, Class, Counters, Round, Sample, Spec, DELTA_SPANS};
use crate::trace::Tracer;
use rhodos_bench::loadgen::SplitMix64;
use rhodos_cluster::{ClusterConfig, CommitOutcome, CrossOp};
use rhodos_net::NetConfig;
use rhodos_simdisk::LatencyModel;
use std::cell::RefCell;
use std::time::Instant;

/// Data servers.
pub const SERVERS: usize = 2;
/// Files; creation alternates their homes between the two servers.
pub const FILES: usize = 64;
/// Bytes per file (two 8 KiB pages).
pub const FILE_BYTES: usize = 16 * 1024;
/// Bytes each transaction writes into each of its two files.
pub const TXN_BYTES: usize = 256;
/// Transactions per `commit_batch` wave (retries first, then new ones).
pub const WAVE: usize = 8;
/// Reads of committed bytes between consecutive waves.
pub const READS_PER_WAVE: usize = 8;
/// Bytes per read.
pub const READ_BYTES: usize = 256;
/// Attempts before a transaction counts as failed.
pub const MAX_ATTEMPTS: u32 = 8;
/// Waves run before the window opens (part of set-up).
pub const WARM_WAVES: usize = 20;
/// Waves in one round's timed window.
pub const WINDOW_WAVES: usize = 500;
/// Simulated clients; transaction `k` and read `k` belong to `k % 16`.
const CLIENTS: usize = 16;
/// Replay resource of the 2PC coordinator (servers are 0 and 1).
const COORDINATOR: u32 = 2;

/// Open-loop replay parameters: a transaction holds the coordinator and
/// both servers for its share of each wave it rode in; a read holds its
/// home server.
pub const SIM: Spec = Spec {
    rate_per_ks: 2_500,
    p99_limit_us: 10_000_000,
    ladder_base_per_ks: 250,
    agents: CLIENTS,
    resources: 3,
};

/// The seeded inputs of a run: initial contents and a deterministic
/// supply of transactions and reads.
#[derive(Debug)]
pub struct Inputs {
    pub(crate) seed: u64,
    pub(crate) initial: Vec<Vec<u8>>,
}

/// Generates the run's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xc0_3317);
    Inputs {
        seed,
        initial: (0..FILES)
            .map(|_| (0..FILE_BYTES).map(|_| rng.next_u64() as u8).collect())
            .collect(),
    }
}

/// One rung of the ladder `commit_heavy`'s op stream can be driven
/// through. Files are indexed `0..FILES`; file `f` lives on server
/// `f % SERVERS`.
pub trait Coordinator {
    /// Span names of this rung's read and wave-commit calls.
    fn spans(&self) -> [&'static str; 2];
    /// Commits a wave of transactions, each a list of `(file, offset,
    /// bytes)` writes; returns which committed.
    fn commit_batch(&mut self, txns: &[Vec<(usize, u64, Vec<u8>)>]) -> Result<Vec<bool>, String>;
    /// Reads `len` bytes of file `f` at `off`.
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String>;
    /// The simulated clock, µs.
    fn now_us(&self) -> u64;
    /// Layer counters, for the first spans of a traced window.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

impl Coordinator for hot::ClusterStore {
    fn spans(&self) -> [&'static str; 2] {
        ["cluster.read", "cluster.commit_batch"]
    }
    fn commit_batch(&mut self, txns: &[Vec<(usize, u64, Vec<u8>)>]) -> Result<Vec<bool>, String> {
        let batch: Vec<Vec<CrossOp>> = txns
            .iter()
            .map(|t| {
                t.iter()
                    .map(|(f, off, data)| (self.gids[*f], *off, data.clone()))
                    .collect()
            })
            .collect();
        let outcomes = self
            .cluster
            .commit_batch(&batch)
            .map_err(|e| e.to_string())?;
        outcomes
            .into_iter()
            .map(|o| match o {
                CommitOutcome::Committed => Ok(true),
                CommitOutcome::Aborted => Ok(false),
                other => Err(format!("unexpected outcome {other:?}")),
            })
            .collect()
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        hot::Store::read(self, f, off, len)
    }
    fn now_us(&self) -> u64 {
        hot::Store::now_us(self)
    }
    fn counters(&self) -> Counters {
        hot::counters(&self.cluster)
    }
}

/// A transaction waiting to commit.
#[derive(Debug)]
struct Pending {
    ops: Vec<(usize, u64, Vec<u8>)>,
    attempts: u32,
    /// Wall time of the first attempt's wave start.
    first: Instant,
    /// Simulated service time accumulated over attempts.
    sim_us: u64,
    client: u32,
}

/// The seeded source of transactions and reads, with the retry queue.
pub struct Gen {
    rng: SplitMix64,
    retry: Vec<Pending>,
    next_client: u32,
}

impl Gen {
    /// The generator of stream `stream` (`None`: the warm-up stream).
    pub fn new(seed: u64, stream: Option<usize>) -> Self {
        let salt = stream.map_or(0, |k| (k as u64 + 1).wrapping_mul(0x9e37_79b9));
        Self {
            rng: SplitMix64::new(seed ^ 0x0077_a4e5 ^ salt),
            retry: Vec::new(),
            next_client: 0,
        }
    }

    /// A new transaction: one file on each server, a random aligned
    /// offset in each, a fresh payload.
    fn txn(&mut self, now: Instant) -> Pending {
        let half = (FILES / SERVERS) as u64;
        let a = 2 * self.rng.below(half) as usize;
        let b = 2 * self.rng.below(half) as usize + 1;
        let slots = (FILE_BYTES / TXN_BYTES) as u64;
        let mut ops = Vec::with_capacity(2);
        for f in [a, b] {
            let off = self.rng.below(slots) * TXN_BYTES as u64;
            let data = (0..TXN_BYTES).map(|_| self.rng.next_u64() as u8).collect();
            ops.push((f, off, data));
        }
        self.next_client = self.next_client.wrapping_add(1);
        Pending {
            ops,
            attempts: 0,
            first: now,
            sim_us: 0,
            client: self.next_client % CLIENTS as u32,
        }
    }
}

/// Runs `waves` waves (and the reads between them) against `c`,
/// applying committed transactions to `model` and checking every read
/// against it. With a tracer, each wave commit and each read is a span.
pub fn run_waves<C: Coordinator>(
    c: &mut C,
    g: &mut Gen,
    model: &mut [Vec<u8>],
    waves: usize,
    r: &mut Round,
    tr: Option<&RefCell<Tracer>>,
) {
    let spans = c.spans();
    let t0 = Instant::now();
    let mut op = 0u64;
    for _ in 0..waves {
        // One wave: carried-over retries first, then new transactions.
        let start = Instant::now();
        let mut wave: Vec<Pending> = std::mem::take(&mut g.retry);
        while wave.len() < WAVE {
            wave.push(g.txn(start));
            r.attempted += 1;
        }
        let batch: Vec<Vec<(usize, u64, Vec<u8>)>> = wave.iter().map(|p| p.ops.clone()).collect();
        let s0 = c.now_us();
        let deltas = tr.is_some() && (op as usize) < DELTA_SPANS;
        let c0 = if deltas {
            c.counters()
        } else {
            Counters::new()
        };
        if let Some(t) = tr {
            t.borrow_mut().enter(spans[1], op, s0);
        }
        let res = c.commit_batch(&batch);
        if let Some(t) = tr {
            t.borrow_mut().exit(c.now_us());
            if deltas {
                t.borrow_mut().set_deltas(delta(&c0, &c.counters()));
            }
        }
        op += 1;
        let outcomes = match res {
            Ok(o) => o,
            Err(e) => {
                r.error(format!("commit_batch: {e}"));
                return;
            }
        };
        let end = Instant::now();
        let share = (c.now_us() - s0) / wave.len() as u64;
        for (mut p, committed) in wave.into_iter().zip(outcomes) {
            p.attempts += 1;
            p.sim_us += share;
            if committed {
                for (f, off, data) in &p.ops {
                    let off = *off as usize;
                    model[*f][off..off + data.len()].copy_from_slice(data);
                }
                r.samples.push(Sample {
                    class: Class::Write,
                    wall_ns: (end - p.first).as_nanos() as u64,
                    done_ns: (end - t0).as_nanos() as u64,
                    sim_us: p.sim_us,
                    agent: p.client,
                    resources: 0b11 | 1 << COORDINATOR,
                });
            } else if p.attempts < MAX_ATTEMPTS {
                g.retry.push(p);
            } else {
                r.failed += 1;
            }
        }

        for _ in 0..READS_PER_WAVE {
            let f = g.rng.below(FILES as u64) as usize;
            let off = g.rng.below((FILE_BYTES - READ_BYTES) as u64 + 1) as usize;
            let client = g.rng.below(CLIENTS as u64) as u32;
            let s0 = c.now_us();
            if let Some(t) = tr {
                t.borrow_mut().enter(spans[0], op, s0);
            }
            let t = Instant::now();
            let res = c.read(f, off as u64, READ_BYTES);
            let end = Instant::now();
            if let Some(t) = tr {
                t.borrow_mut().exit(c.now_us());
            }
            op += 1;
            r.attempted += 1;
            match res {
                Ok(got) => {
                    if got != model[f][off..off + READ_BYTES] {
                        r.error(format!("file {f} offset {off}: read differs from model"));
                    }
                    r.samples.push(Sample {
                        class: Class::Read,
                        wall_ns: (end - t).as_nanos() as u64,
                        done_ns: (end - t0).as_nanos() as u64,
                        sim_us: c.now_us() - s0,
                        agent: client,
                        resources: 1 << (f % SERVERS),
                    });
                }
                Err(e) => {
                    r.failed += 1;
                    r.error(format!("file {f}: read failed: {e}"));
                }
            }
        }
    }
    r.window_s = t0.elapsed().as_secs_f64();
    // Transactions still waiting for a retry never committed: they are
    // in flight, neither failures nor in the model.
    r.attempted -= g.retry.len() as u64;
}

/// The cluster configuration: reliable links seeded from the workload
/// seed and the default (slow, seeking) disk model.
pub fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        latency: LatencyModel::default(),
        data_net: NetConfig {
            seed,
            ..NetConfig::reliable()
        },
        ..ClusterConfig::default()
    }
}

/// One round on op stream `stream`: set-up, the timed window, then the
/// durability check — every data server crashes (unflushed state is
/// lost) and recovers, and every acknowledged commit must still be
/// readable. With a tracer, the window's calls are spans.
pub fn round(inp: &Inputs, stream: usize, tr: Option<&RefCell<Tracer>>) -> Round {
    let t = Instant::now();
    let mut c = hot::seeded_cluster(config(inp.seed), &inp.initial);
    let mut model = inp.initial.clone();
    let mut warm = Round::default();
    run_waves(
        &mut c,
        &mut Gen::new(inp.seed, None),
        &mut model,
        WARM_WAVES,
        &mut warm,
        None,
    );
    let mut r = Round {
        setup_s: t.elapsed().as_secs_f64(),
        samples: Vec::with_capacity(WINDOW_WAVES * (WAVE + READS_PER_WAVE)),
        errors: warm.errors,
        ..Round::default()
    };
    // Warm-up aborts still waiting for a retry were never acknowledged;
    // the window starts on its own stream with fresh transactions only.
    let before = hot::counters(&c.cluster);
    let mut g = Gen::new(inp.seed, Some(stream));
    run_waves(&mut c, &mut g, &mut model, WINDOW_WAVES, &mut r, tr);
    crate::round::add_delta(&mut r.counters, &before, &hot::counters(&c.cluster));
    r.space_amp = hot::space_amp(&c.cluster, FILES * FILE_BYTES);
    for i in 0..SERVERS {
        c.cluster.crash_server(i);
    }
    // Decisions whose participant-side completion markers were lost in
    // the crash are re-delivered by the coordinator's orphan sweep.
    c.cluster.recover_coordinator();
    let in_doubt = c.cluster.in_doubt_gtids();
    if !in_doubt.is_empty() {
        r.error(format!(
            "{} transactions in doubt after recovery",
            in_doubt.len()
        ));
    }
    hot::verify(&mut c.cluster, &c.gids, &model, &mut r);
    r
}
