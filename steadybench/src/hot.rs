//! `hot_small`: two data servers behind `Cluster`, Zipf-skewed 1 KiB
//! reads (90%) and writes (10%) over a working set that fits each
//! server's block pool, on links that lose and duplicate a few frames.
//!
//! Every op is a wire frame plus a block-pool hit, so `cluster`,
//! `replication::wire`, `net` and `file-service` CPU dominate while
//! `disk-service`, `simdisk` and `txn` idle.

use crate::layers;
use crate::round::{delta, Class, Counters, Round, Sample, Spec, DELTA_SPANS, STREAMS};
use crate::stats::{fnv1a, fnv_start};
use crate::trace::Tracer;
use rhodos_bench::loadgen::{SplitMix64, Zipf};
use rhodos_cluster::{Cluster, ClusterConfig};
use rhodos_net::NetConfig;
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use std::cell::RefCell;
use std::time::Instant;

/// Data servers.
pub const SERVERS: usize = 2;
/// Files in the working set (Zipf ranks).
pub const FILES: usize = 32;
/// Bytes per file: one 8 KiB block, so the working set is 16 blocks per
/// server in a 128-block pool.
pub const FILE_BYTES: usize = 8 * 1024;
/// Bytes per read or write.
pub const IO: usize = 1024;
/// Percent of ops that are writes.
pub const WRITE_PCT: u64 = 10;
/// Zipf exponent of file popularity.
pub const SKEW: f64 = 0.99;
/// Frame loss and duplication probability on each data link.
pub const LOSS: f64 = 0.01;
/// Uniform extra one-way delay on each data link, µs (on top of 500).
pub const JITTER_US: u64 = 400;
/// Ops run before the window opens (part of set-up).
pub const WARM_OPS: usize = 20_000;
/// Ops in one round's timed window.
pub const WINDOW_OPS: usize = 200_000;
/// Distinct write payloads.
const PAYLOADS: usize = 64;

/// Open-loop replay parameters: every op holds its home server for its
/// simulated service time (two network legs plus any retry backoff).
pub const SIM: Spec = Spec {
    rate_per_ks: 1_000_000,
    p99_limit_us: 20_000,
    ladder_base_per_ks: 125_000,
    agents: 64,
    resources: SERVERS,
};

/// One generated op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub(crate) file: u16,
    pub(crate) offset: u32,
    pub(crate) write: bool,
    pub(crate) payload: u8,
}

/// The seeded inputs of a run: initial file contents, write payloads
/// and the warm-up and window op streams.
#[derive(Debug)]
pub struct Inputs {
    pub(crate) seed: u64,
    pub(crate) initial: Vec<Vec<u8>>,
    pub(crate) payloads: Vec<Vec<u8>>,
    pub(crate) warm: Vec<Op>,
    pub(crate) windows: Vec<Vec<Op>>,
}

fn ops(rng: &mut SplitMix64, zipf: &Zipf, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| Op {
            file: zipf.sample(rng) as u16,
            offset: (rng.below((FILE_BYTES / IO) as u64) as usize * IO) as u32,
            write: rng.below(100) < WRITE_PCT,
            payload: rng.below(PAYLOADS as u64) as u8,
        })
        .collect()
}

fn bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Generates the run's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x4807_5a11);
    let zipf = Zipf::new(FILES, SKEW);
    Inputs {
        seed,
        initial: (0..FILES).map(|_| bytes(&mut rng, FILE_BYTES)).collect(),
        payloads: (0..PAYLOADS).map(|_| bytes(&mut rng, IO)).collect(),
        warm: ops(&mut rng, &zipf, WARM_OPS),
        windows: (0..STREAMS)
            .map(|_| ops(&mut rng, &zipf, WINDOW_OPS))
            .collect(),
    }
}

/// The cluster configuration: lossy, duplicating data links seeded from
/// the workload seed; the disk model only matters for set-up.
pub fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        geometry: DiskGeometry::small(),
        latency: LatencyModel::default(),
        data_net: NetConfig {
            jitter_us: JITTER_US,
            ..NetConfig::lossy(LOSS, LOSS, seed)
        },
        ..ClusterConfig::default()
    }
}

/// One rung of the layer ladder that `hot_small`'s op stream can be
/// driven through: the cluster, or a layer below it. Files are indexed
/// `0..FILES`; file `f` lives on server `f % SERVERS`.
pub trait Store {
    /// Span names of this rung's read and write calls.
    fn spans(&self) -> [&'static str; 2];
    /// Reads `len` bytes of file `f` at `off`.
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String>;
    /// Writes `data` into file `f` at `off`.
    fn write(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String>;
    /// Makes every write so far durable. The `commit_heavy` rungs below
    /// `txn` call it after each wave; the default does nothing, for
    /// stores whose writes already reach the disk.
    fn sync(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The simulated clock, µs.
    fn now_us(&self) -> u64;
    /// Layer counters, for the first spans of a traced window.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// The cluster rung: every op through `Cluster`.
pub struct ClusterStore {
    /// The cluster under test.
    pub cluster: Cluster,
    /// Cluster file ids by file index.
    pub gids: Vec<u64>,
    clock: SimClock,
}

impl Store for ClusterStore {
    fn spans(&self) -> [&'static str; 2] {
        ["cluster.read", "cluster.write"]
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.cluster
            .read(self.gids[f], off, len)
            .map_err(|e| e.to_string())
    }
    fn write(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.cluster
            .write(self.gids[f], off, data)
            .map_err(|e| e.to_string())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
    fn counters(&self) -> Counters {
        counters(&self.cluster)
    }
}

/// Creates a cluster of `SERVERS` servers holding `initial` as files
/// `0..`, synced to disk, with file `f` homed on server `f % SERVERS`.
pub fn seeded_cluster(cfg: ClusterConfig, initial: &[Vec<u8>]) -> ClusterStore {
    let mut cluster = Cluster::new(SERVERS, cfg);
    let mut gids = Vec::with_capacity(initial.len());
    for (f, data) in initial.iter().enumerate() {
        let gid = cluster.create().expect("create");
        cluster.open(gid).expect("open");
        cluster.write(gid, 0, data).expect("seed write");
        // Least-loaded placement alternates an empty cluster's servers.
        assert_eq!(cluster.placement_of(gid).expect("placed").0, f % SERVERS);
        gids.push(gid);
    }
    cluster.sync_all();
    let clock = cluster.clock();
    ClusterStore {
        cluster,
        gids,
        clock,
    }
}

/// Runs `ops` against `s`, checking every read against `model` and
/// applying every write to it. With a tracer, each call is a span.
pub fn run_ops<S: Store>(
    s: &mut S,
    model: &mut [Vec<u8>],
    inp: &Inputs,
    ops: &[Op],
    r: &mut Round,
    tr: Option<&RefCell<Tracer>>,
) {
    let spans = s.spans();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let f = op.file as usize;
        let off = op.offset as usize;
        let s0 = s.now_us();
        let deltas = tr.is_some() && i < DELTA_SPANS;
        let c0 = if deltas {
            s.counters()
        } else {
            Counters::new()
        };
        if let Some(t) = tr {
            t.borrow_mut().enter(spans[op.write as usize], i as u64, s0);
        }
        // The clock stops when the call returns; the model is consulted
        // after it.
        let data = &inp.payloads[op.payload as usize];
        let t = Instant::now();
        let res = if op.write {
            s.write(f, off as u64, data).map(|()| None)
        } else {
            s.read(f, off as u64, IO).map(Some)
        };
        let end = Instant::now();
        let res = res.map(|got| match got {
            Some(got) => {
                if got != model[f][off..off + IO] {
                    r.error(format!("file {f} offset {off}: read differs from model"));
                }
            }
            None => model[f][off..off + IO].copy_from_slice(data),
        });
        if let Some(t) = tr {
            t.borrow_mut().exit(s.now_us());
            if deltas {
                t.borrow_mut().set_deltas(delta(&c0, &s.counters()));
            }
        }
        r.attempted += 1;
        match res {
            Ok(()) => r.samples.push(Sample {
                class: if op.write { Class::Write } else { Class::Read },
                wall_ns: (end - t).as_nanos() as u64,
                done_ns: (end - t0).as_nanos() as u64,
                sim_us: s.now_us() - s0,
                agent: (f % SIM.agents) as u32,
                resources: 1 << (f % SERVERS),
            }),
            Err(e) => {
                r.failed += 1;
                r.error(format!("file {f}: {e}"));
            }
        }
    }
    r.window_s = t0.elapsed().as_secs_f64();
}

/// Counters of every layer the cluster exposes.
pub fn counters(c: &Cluster) -> Counters {
    let mut out = Counters::new();
    let s = c.stats();
    out.insert("cluster.reads".into(), s.reads as f64);
    out.insert("cluster.writes".into(), s.writes as f64);
    out.insert("cluster.cross_commits".into(), s.cross_commits as f64);
    out.insert("cluster.cross_aborts".into(), s.cross_aborts as f64);
    out.insert("cluster.prepare_rpcs".into(), s.prepare_rpcs as f64);
    out.insert("cluster.decision_forces".into(), s.decision_forces as f64);
    for i in 0..c.server_count() {
        let h = c.server_handle(i);
        let ts = h.lock();
        layers::file_service(&mut out, ts.file_service());
        layers::txn(&mut out, &ts.stats());
    }
    out
}

/// Bytes allocated on the servers' data disks ÷ live user bytes.
pub fn space_amp(c: &Cluster, live: usize) -> f64 {
    let alloc: u64 = (0..c.server_count())
        .map(|i| layers::allocated_bytes(c.server_handle(i).lock().file_service()))
        .sum();
    alloc as f64 / live as f64
}

/// Checks every file against the model, byte for byte and by the
/// cluster's own content fingerprint.
pub fn verify(c: &mut Cluster, gids: &[u64], model: &[Vec<u8>], r: &mut Round) {
    let mut fp = fnv_start();
    for (f, (&gid, want)) in gids.iter().zip(model).enumerate() {
        match c.read(gid, 0, want.len()) {
            Ok(got) if got == *want => {}
            Ok(_) => r.error(format!("file {f}: final content differs from model")),
            Err(e) => r.error(format!("file {f}: final read failed: {e}")),
        }
        fnv1a(&mut fp, &gid.to_le_bytes());
        fnv1a(&mut fp, &(want.len() as u64).to_le_bytes());
        fnv1a(&mut fp, want);
    }
    if c.content_fingerprint() != fp {
        r.error("content fingerprint differs from model".into());
    }
}

/// One round on op stream `stream`: set-up (format, seed, warm), then
/// the timed window, then the checks. With a tracer, the window's calls
/// are spans.
pub fn round(inp: &Inputs, stream: usize, tr: Option<&RefCell<Tracer>>) -> Round {
    let t = Instant::now();
    let mut s = seeded_cluster(config(inp.seed), &inp.initial);
    let mut model = inp.initial.clone();
    let mut warm = Round::default();
    run_ops(&mut s, &mut model, inp, &inp.warm, &mut warm, None);
    let mut r = Round {
        setup_s: t.elapsed().as_secs_f64(),
        samples: Vec::with_capacity(WINDOW_OPS),
        errors: warm.errors,
        ..Round::default()
    };
    let before = counters(&s.cluster);
    run_ops(&mut s, &mut model, inp, &inp.windows[stream], &mut r, tr);
    crate::round::add_delta(&mut r.counters, &before, &counters(&s.cluster));
    r.space_amp = space_amp(&s.cluster, FILES * FILE_BYTES);
    verify(&mut s.cluster, &s.gids, &model, &mut r);
    r
}
