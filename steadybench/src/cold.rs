//! `cold_stream`: one `FileAgent` in its default coherence mode over a
//! RAID-5 (4+1) striped file service, with a data set more than ten
//! times the server block pool, the disk services' track caches and the
//! agent's client cache together. The load is multi-block sequential
//! `pread`s and partial-stripe `pwrite`s, with a flush every
//! [`FLUSH_EVERY`] ops.
//!
//! `simdisk` seeks, the `disk-service` elevator and track cache,
//! `file-service` parity read-modify-write and the `ParallelIo::Auto`
//! thread fan-out do the work; `replication`, `net` and `txn` are
//! bypassed.

use crate::layers;
use crate::round::{delta, Class, Counters, Round, Sample, Spec, DELTA_SPANS, STREAMS};
use crate::trace::Tracer;
use parking_lot::Mutex;
use rhodos_agent::{FileAgent, ObjectDescriptor, ServerHandle};
use rhodos_bench::loadgen::SplitMix64;
use rhodos_disk_service::{DiskService, DiskServiceConfig, BLOCK_SIZE};
use rhodos_file_service::{FileId, FileService, FileServiceConfig, Redundancy, ServiceType};
use rhodos_naming::{AttributedName, NamingService, SystemName};
use rhodos_net::{NetConfig, SimNetwork};
use rhodos_simdisk::{DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::{TransactionService, TxnConfig};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Spindles: four data units and one rotating parity unit per row.
pub const DISKS: usize = 5;
/// Blocks in the server's block pool.
pub const POOL_BLOCKS: usize = 32;
/// Tracks cached by each disk service.
pub const TRACK_CACHE: usize = 2;
/// Sectors per track (2 KiB sectors: a 64 KiB track).
pub const SECTORS_PER_TRACK: u64 = 32;
/// Blocks in the agent's client cache.
pub const AGENT_BLOCKS: usize = 16;
/// Files, each one sequential read stream.
pub const FILES: usize = 8;
/// Bytes per file; the 12 MiB data set is 12× the 1 MiB of caches
/// (256 KiB pool + 5 × 128 KiB track caches + 128 KiB client cache).
pub const FILE_BYTES: usize = 1536 * 1024;
/// Bytes per sequential read: one full stripe row of data.
pub const READ_BYTES: usize = 4 * BLOCK_SIZE;
/// Bytes per write: one block, a partial stripe row.
pub const WRITE_BYTES: usize = BLOCK_SIZE;
/// Percent of ops that are writes.
pub const WRITE_PCT: u64 = 25;
/// Ops run before the window opens (part of set-up).
pub const WARM_OPS: usize = 200;
/// Ops in one round's timed window.
pub const WINDOW_OPS: usize = 8_000;
/// Flush policy: after every this many ops (reads and writes), the
/// agent's and the server's delayed writes are flushed, as an op of its
/// own ([`Class::Flush`]).
pub const FLUSH_EVERY: usize = 64;

/// Measurement parameters: one agent, one server; every op holds the
/// server for its simulated service time. The offered rate, 5.5 ops/s,
/// is below the capacity (about 6.2 ops/s) yet high enough that most
/// writes queue behind a read or a flush: at 4 ops/s over half of them
/// found the server idle, so the write p50 was the fixed request cost
/// alone, the same for every seed.
pub const SIM: Spec = Spec {
    rate_per_ks: 5_500,
    p99_limit_us: 2_000_000,
    ladder_base_per_ks: 1_000,
    agents: 1,
    resources: 1,
};

/// One generated op.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// The next `READ_BYTES` of a file's sequential stream.
    Read { file: u8 },
    /// One block-aligned block overwrite with payload `payload`.
    Write { file: u8, block: u32, payload: u8 },
}

const PAYLOADS: usize = 32;

/// The seeded inputs of a run.
#[derive(Debug)]
pub struct Inputs {
    pub(crate) seed: u64,
    pub(crate) initial: Vec<Vec<u8>>,
    pub(crate) payloads: Vec<Vec<u8>>,
    pub(crate) warm: Vec<Op>,
    pub(crate) windows: Vec<Vec<Op>>,
}

fn ops(rng: &mut SplitMix64, n: usize) -> Vec<Op> {
    let blocks = (FILE_BYTES / BLOCK_SIZE) as u64;
    (0..n)
        .map(|_| {
            let file = rng.below(FILES as u64) as u8;
            if rng.below(100) < WRITE_PCT {
                Op::Write {
                    file,
                    block: rng.below(blocks) as u32,
                    payload: rng.below(PAYLOADS as u64) as u8,
                }
            } else {
                Op::Read { file }
            }
        })
        .collect()
}

fn bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Generates the run's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xc01d_57ea);
    Inputs {
        seed,
        initial: (0..FILES).map(|_| bytes(&mut rng, FILE_BYTES)).collect(),
        payloads: (0..PAYLOADS)
            .map(|_| bytes(&mut rng, WRITE_BYTES))
            .collect(),
        warm: ops(&mut rng, WARM_OPS),
        windows: (0..STREAMS).map(|_| ops(&mut rng, WINDOW_OPS)).collect(),
    }
}

/// The RAID-5 file service the agent talks to.
pub fn file_service(clock: &SimClock) -> FileService {
    let geometry = DiskGeometry::new(256, SECTORS_PER_TRACK);
    let disks = (0..DISKS)
        .map(|_| {
            DiskService::with_stable(
                geometry,
                LatencyModel::default(),
                clock.clone(),
                DiskServiceConfig {
                    track_readahead: true,
                    cache_tracks: TRACK_CACHE,
                },
            )
        })
        .collect();
    FileService::format(
        disks,
        FileServiceConfig {
            cache_blocks: POOL_BLOCKS,
            redundancy: Redundancy::Parity { k: 4, m: 1 },
            ..FileServiceConfig::default()
        },
    )
    .expect("format the striped file service")
}

/// One rung of the ladder `cold_stream`'s op stream can be driven
/// through: the agent, or a layer below it.
pub trait Volume {
    /// Span names of this rung's read, write and flush calls.
    fn spans(&self) -> [&'static str; 3];
    /// Reads `len` bytes of file `f` at `off`.
    fn pread(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String>;
    /// Writes `data` into file `f` at `off`.
    fn pwrite(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String>;
    /// Makes every write so far durable.
    fn flush(&mut self) -> Result<(), String>;
    /// The simulated clock, µs.
    fn now_us(&self) -> u64;
    /// Layer counters, for the first spans of a traced window.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// The agent rung: a `FileAgent` in its default coherence mode.
pub struct AgentVolume {
    agent: FileAgent,
    server: ServerHandle,
    ods: Vec<ObjectDescriptor>,
    clock: SimClock,
}

impl Volume for AgentVolume {
    fn spans(&self) -> [&'static str; 3] {
        ["agent.pread", "agent.pwrite", "agent.flush"]
    }
    fn pread(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.agent
            .pread(self.ods[f], off, len)
            .map_err(|e| e.to_string())
    }
    fn pwrite(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.agent
            .pwrite(self.ods[f], off, data)
            .map_err(|e| e.to_string())
    }
    /// Flushes the agent's dirty blocks, then the server's delayed
    /// writes.
    fn flush(&mut self) -> Result<(), String> {
        for &od in &self.ods {
            self.agent.flush(od).map_err(|e| e.to_string())?;
        }
        self.server
            .lock()
            .file_service_mut()
            .flush_all()
            .map_err(|e| e.to_string())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
    fn counters(&self) -> Counters {
        counters(self)
    }
}

/// A transaction service over a freshly formatted RAID-5 file service
/// holding `initial` as files `0..` (written server-side in full stripe
/// rows, flushed, left open), with their file ids.
pub fn seeded_server(clock: &SimClock, initial: &[Vec<u8>]) -> (TransactionService, Vec<FileId>) {
    let mut ts = TransactionService::new(file_service(clock), TxnConfig::default())
        .expect("transaction service starts");
    let fs = ts.file_service_mut();
    let mut fids = Vec::with_capacity(initial.len());
    for data in initial {
        let fid = fs.create(ServiceType::Basic).expect("create");
        fs.open(fid).expect("seed open");
        fs.write(fid, 0, data.clone()).expect("seed write");
        fs.flush_all().expect("seed flush");
        fids.push(fid);
    }
    (ts, fids)
}

fn agent_volume(inp: &Inputs) -> AgentVolume {
    let clock = SimClock::new();
    let (ts, fids) = seeded_server(&clock, &inp.initial);
    let server: ServerHandle = Arc::new(Mutex::new(ts));
    let net = SimNetwork::new(
        clock.clone(),
        NetConfig {
            seed: inp.seed,
            ..NetConfig::reliable()
        },
    );
    let naming = Arc::new(Mutex::new(NamingService::new()));
    let mut agent =
        FileAgent::with_servers(1, vec![server.clone()], naming.clone(), net, AGENT_BLOCKS);
    let ods = fids
        .iter()
        .enumerate()
        .map(|(f, &fid)| {
            let name = AttributedName::parse(&format!("name=cold-{f}")).expect("name parses");
            naming
                .lock()
                .register(name, SystemName::file(0, fid.0))
                .expect("register");
            agent.open_fid(fid).expect("open")
        })
        .collect();
    AgentVolume {
        agent,
        server,
        ods,
        clock,
    }
}

/// Where each file's sequential read stream is.
#[derive(Debug, Clone)]
pub struct Cursors {
    pos: Vec<usize>,
}

impl Cursors {
    /// Every stream at the start of its file.
    pub fn new() -> Self {
        Self {
            pos: vec![0; FILES],
        }
    }
}

/// Runs `ops` against `v`, checking every read against `model` and
/// applying every write to it. Flush policy: after every
/// [`FLUSH_EVERY`]th op, a flush of its own makes the delayed writes
/// durable (partial-stripe updates pay the parity read-modify-write
/// there, or earlier when a cache evicts a dirty block). With a tracer,
/// each op and each flush is a span.
pub fn run_ops<V: Volume>(
    v: &mut V,
    model: &mut [Vec<u8>],
    cur: &mut Cursors,
    inp: &Inputs,
    ops: &[Op],
    r: &mut Round,
    tr: Option<&RefCell<Tracer>>,
) {
    let spans = v.spans();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let flush = (i + 1) % FLUSH_EVERY == 0;
        let classes: &[Class] = match (op, flush) {
            (Op::Read { .. }, false) => &[Class::Read],
            (Op::Write { .. }, false) => &[Class::Write],
            (Op::Read { .. }, true) => &[Class::Read, Class::Flush],
            (Op::Write { .. }, true) => &[Class::Write, Class::Flush],
        };
        for &class in classes {
            let s0 = v.now_us();
            let deltas = tr.is_some() && i < DELTA_SPANS;
            let c0 = if deltas {
                v.counters()
            } else {
                Counters::new()
            };
            if let Some(t) = tr {
                t.borrow_mut().enter(spans[class as usize], i as u64, s0);
            }
            // The clock stops when the call returns; the model is
            // consulted after it.
            let t = Instant::now();
            let res = match (class, *op) {
                (Class::Flush, _) => v.flush().map(|()| None),
                (_, Op::Read { file }) => {
                    let f = file as usize;
                    let off = cur.pos[f];
                    cur.pos[f] = (off + READ_BYTES) % FILE_BYTES;
                    v.pread(f, off as u64, READ_BYTES)
                        .map(|got| Some((f, off, got)))
                }
                (
                    _,
                    Op::Write {
                        file,
                        block,
                        payload,
                    },
                ) => {
                    let off = block as u64 * BLOCK_SIZE as u64;
                    v.pwrite(file as usize, off, &inp.payloads[payload as usize])
                        .map(|()| None)
                }
            };
            let end = Instant::now();
            if let Some(t) = tr {
                t.borrow_mut().exit(v.now_us());
                if deltas {
                    t.borrow_mut().set_deltas(delta(&c0, &v.counters()));
                }
            }
            if class != Class::Flush {
                r.attempted += 1;
            }
            match res {
                Ok(got) => {
                    match (got, *op) {
                        (Some((f, off, got)), _) if got != model[f][off..off + READ_BYTES] => {
                            r.error(format!("file {f} offset {off}: read differs from model"));
                        }
                        (
                            None,
                            Op::Write {
                                file,
                                block,
                                payload,
                            },
                        ) if class == Class::Write => {
                            let off = block as usize * BLOCK_SIZE;
                            model[file as usize][off..off + WRITE_BYTES]
                                .copy_from_slice(&inp.payloads[payload as usize]);
                        }
                        _ => {}
                    }
                    r.samples.push(Sample {
                        class,
                        wall_ns: (end - t).as_nanos() as u64,
                        done_ns: (end - t0).as_nanos() as u64,
                        sim_us: v.now_us() - s0,
                        agent: 0,
                        resources: 1,
                    });
                }
                Err(e) => {
                    if class != Class::Flush {
                        r.failed += 1;
                    }
                    r.error(format!("{class:?} {op:?}: {e}"));
                }
            }
        }
    }
    r.window_s = t0.elapsed().as_secs_f64();
}

/// Counters of the agent and every layer below it.
pub fn counters(v: &AgentVolume) -> Counters {
    let mut out = Counters::new();
    let s = v.agent.stats();
    out.insert("agent.cache_hits".into(), s.cache.hits as f64);
    out.insert("agent.cache_misses".into(), s.cache.misses as f64);
    out.insert("agent.round_trips".into(), s.round_trips as f64);
    let ts = v.server.lock();
    layers::file_service(&mut out, ts.file_service());
    layers::txn(&mut out, &ts.stats());
    out
}

/// One round on op stream `stream`: set-up (format, seed, warm), then
/// the timed window, then the checks — after a final flush every file
/// is read back through the agent and compared with the model. With a
/// tracer, the window's ops are spans.
pub fn round(inp: &Inputs, stream: usize, tr: Option<&RefCell<Tracer>>) -> Round {
    let t = Instant::now();
    let mut v = agent_volume(inp);
    let mut model = inp.initial.clone();
    let mut cur = Cursors::new();
    let mut warm = Round::default();
    run_ops(
        &mut v, &mut model, &mut cur, inp, &inp.warm, &mut warm, None,
    );
    let mut r = Round {
        setup_s: t.elapsed().as_secs_f64(),
        samples: Vec::with_capacity(WINDOW_OPS),
        errors: warm.errors,
        ..Round::default()
    };
    let before = counters(&v);
    run_ops(
        &mut v,
        &mut model,
        &mut cur,
        inp,
        &inp.windows[stream],
        &mut r,
        tr,
    );
    crate::round::add_delta(&mut r.counters, &before, &counters(&v));
    if let Err(e) = v.flush() {
        r.error(format!("final flush: {e}"));
    }
    for (f, want) in model.iter().enumerate() {
        match v.pread(f, 0, FILE_BYTES) {
            Ok(got) if got == *want => {}
            Ok(_) => r.error(format!("file {f}: final content differs from model")),
            Err(e) => r.error(format!("file {f}: final read failed: {e}")),
        }
    }
    r.space_amp = layers::allocated_bytes(v.server.lock().file_service()) as f64
        / (FILES * FILE_BYTES) as f64;
    r
}
