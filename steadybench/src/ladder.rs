//! The traced run (`--trace 1`): each workload's op stream is replayed
//! one layer lower at a time — `cluster` → `replication::wire` `Channel`
//! → `file-service` for `hot_small`; `cluster` → wire coordinator → `txn`
//! → `file-service` → `disk-service` → `simdisk` for `commit_heavy`;
//! `agent` → `file-service` → `disk-service` → `simdisk` for
//! `cold_stream`. Every call into a rung is a span. A layer's self time
//! is its rung's mean span time minus the rung below it; the lowest rung
//! a public API reaches is reported whole and named as a residual of
//! everything beneath it. Layer counters come from each layer's public
//! `stats()`.

use crate::cold::{self, Volume};
use crate::commit::{self, Coordinator};
use crate::hot::{self, Store};
use crate::layers;
use crate::report::Metric;
use crate::round::{add_delta, Class, Counters, Round};
use crate::stats::{ratio, slowness};
use crate::trace::Tracer;
use rhodos_cluster::{serve_txn, DecisionLog};
use rhodos_disk_service::codec::Decoder;
use rhodos_disk_service::{StablePolicy, BLOCK_SIZE, FRAGS_PER_BLOCK};
use rhodos_file_service::{BlockDescriptor, FileId, FileService, ServiceType};
use rhodos_net::{ReplayCache, RpcClient, SimNetwork};
use rhodos_replication::wire::{
    decode_reply, decode_votes, encode_create, encode_fid_op, encode_read, encode_txn_decide,
    encode_txn_prepare, encode_write, Channel, PrepareTxn, OP_OPEN,
};
use rhodos_simdisk::SimClock;
use rhodos_txn::TransactionService;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// What the passes of a ladder accumulate.
#[derive(Debug, Default)]
struct Ladder {
    /// Host-speed factor of the last rung run.
    last_speed: f64,
    tracer: RefCell<Tracer>,
    /// Per rung: scaled span nanoseconds and ops.
    rungs: BTreeMap<&'static str, (f64, f64)>,
    /// Untraced and traced top-rung ops/s, scaled, one per pass.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Layer counters over the top rung's traced windows.
    counters: Counters,
    /// Wire-rung channel counters and frame bytes.
    wire: Counters,
    /// Ops, reads, writes (commits) and user bytes written at the top.
    ops: f64,
    writes: f64,
    user_bytes: f64,
    rounds: Vec<Round>,
}

impl Ladder {
    /// Times `f` and returns its result with the host-speed factor
    /// around it.
    fn speed<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = slowness();
        let out = f();
        (out, (before + slowness()) / 2.0)
    }

    /// Runs one rung (`f` returns its round), timing every span it
    /// records and scaling them by the calibration around the rung.
    fn rung(&mut self, name: &'static str, f: impl FnOnce(&RefCell<Tracer>) -> Round) -> Round {
        let t0 = self.tracer.borrow().sum();
        let (r, speed) = self.speed(|| f(&self.tracer));
        let t1 = self.tracer.borrow().sum();
        self.last_speed = speed;
        let e = self.rungs.entry(name).or_default();
        e.0 += (t1.ns - t0.ns) as f64 / speed;
        e.1 += (t1.count - t0.count) as f64;
        r
    }

    /// Mean scaled µs per op of a rung (0 when it did not run).
    fn mean_us(&self, rung: &str) -> f64 {
        self.rungs
            .get(rung)
            .map_or(0.0, |&(ns, n)| ratio(ns, n) / 1000.0)
    }

    /// Runs the top rung untraced (for the tracing overhead) and keeps
    /// its round.
    fn untraced(&mut self, f: impl FnOnce() -> Round) {
        let (r, speed) = self.speed(f);
        self.untraced.push(r.user_ops() as f64 / r.window_s * speed);
        self.keep(r);
    }

    /// Records the traced top rung's round, just run by [`Self::rung`]:
    /// its rate, counters and user bytes written (`write_bytes` per
    /// write).
    fn top(&mut self, r: Round, write_bytes: usize) {
        self.traced
            .push(r.user_ops() as f64 / r.window_s * self.last_speed);
        let writes = r.samples.iter().filter(|s| s.class == Class::Write).count() as f64;
        self.ops += r.user_ops() as f64;
        self.writes += writes;
        self.user_bytes += writes * write_bytes as f64;
        add_delta(&mut self.counters, &Counters::new(), &r.counters);
        self.keep(r);
    }

    fn keep(&mut self, mut r: Round) {
        r.samples = Vec::new();
        self.rounds.push(r);
    }
}

// ---- hot_small: cluster → wire channel → file service -----------------

/// One data server behind a benchmark-owned wire channel, built exactly
/// as `Cluster` builds its nodes (same link seeds, same client ids).
struct WireServer {
    ts: TransactionService,
    chan: Channel,
}

fn wire_servers(cfg: &rhodos_cluster::ClusterConfig, n: usize) -> (Vec<WireServer>, SimClock) {
    let clock = SimClock::new();
    let servers = (0..n)
        .map(|i| {
            let fs = FileService::single_disk(cfg.geometry, cfg.latency, clock.clone(), cfg.fs)
                .expect("data server formats");
            let mut net = cfg.data_net;
            net.seed = cfg.data_net.seed.wrapping_add(i as u64 * 7919);
            WireServer {
                ts: TransactionService::new(fs, cfg.txn).expect("transaction service starts"),
                chan: Channel {
                    net: SimNetwork::new(clock.clone(), net),
                    client: RpcClient::new(i as u64 + 1),
                    cache: ReplayCache::new(),
                },
            }
        })
        .collect();
    (servers, clock)
}

/// The wire rung: the cluster's data path without the cluster — each op
/// encoded, sent over the server's lossy channel, served at most once.
struct WireStore {
    servers: Vec<WireServer>,
    fids: Vec<FileId>,
    clock: SimClock,
    frame_bytes: u64,
}

impl WireStore {
    /// Creates, opens and seeds `initial` over the wire, as the cluster
    /// does, then flushes every server.
    fn new(cfg: &rhodos_cluster::ClusterConfig, initial: &[Vec<u8>]) -> Self {
        let (servers, clock) = wire_servers(cfg, hot::SERVERS);
        let mut s = Self {
            servers,
            fids: Vec::new(),
            clock,
            frame_bytes: 0,
        };
        for (f, data) in initial.iter().enumerate() {
            let i = f % hot::SERVERS;
            let reply = s
                .call(i, &encode_create(ServiceType::Basic))
                .expect("create");
            let fid = FileId(Decoder::new(&reply).u64().expect("create reply"));
            s.call(i, &encode_fid_op(OP_OPEN, fid)).expect("open");
            s.call(i, &encode_write(fid, 0, data)).expect("seed write");
            s.fids.push(fid);
        }
        for w in &mut s.servers {
            w.ts.file_service_mut().flush_all().expect("seed flush");
        }
        s.frame_bytes = 0;
        s
    }

    fn call(&mut self, i: usize, req: &[u8]) -> Result<Vec<u8>, String> {
        let WireServer { ts, chan } = &mut self.servers[i];
        let reply = chan
            .call(ts.file_service_mut(), req)
            .map_err(|e| format!("{e:?}"))?;
        self.frame_bytes += (req.len() + reply.len() + 1) as u64;
        Ok(reply)
    }

    fn channel_counters(&self) -> Counters {
        let mut c = Counters::new();
        for w in &self.servers {
            layers::channel(
                &mut c,
                w.chan.net.stats(),
                w.chan.client.stats(),
                w.chan.cache.stats(),
            );
        }
        c.insert("wire.frame_bytes".into(), self.frame_bytes as f64);
        c
    }
}

impl Store for WireStore {
    fn spans(&self) -> [&'static str; 2] {
        ["replication.read", "replication.write"]
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.call(f % hot::SERVERS, &encode_read(self.fids[f], off, len))
    }
    fn write(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.call(f % hot::SERVERS, &encode_write(self.fids[f], off, data))
            .map(|_| ())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

/// The file-service rung: the same servers, called directly. As a rung of
/// `commit_heavy` (in [`Decided`]), a wave's writes are made durable by
/// one `flush_all` per server.
struct FsStore {
    servers: Vec<TransactionService>,
    fids: Vec<FileId>,
    clock: SimClock,
}

impl FsStore {
    fn new(cfg: &rhodos_cluster::ClusterConfig, initial: &[Vec<u8>]) -> Self {
        let (ws, clock) = wire_servers(cfg, hot::SERVERS);
        let mut servers: Vec<TransactionService> = ws.into_iter().map(|w| w.ts).collect();
        let mut fids = Vec::new();
        for (f, data) in initial.iter().enumerate() {
            let fs = servers[f % hot::SERVERS].file_service_mut();
            let fid = fs.create(ServiceType::Basic).expect("create");
            fs.open(fid).expect("open");
            fs.write(fid, 0, data.clone()).expect("seed write");
            fids.push(fid);
        }
        for ts in &mut servers {
            ts.file_service_mut().flush_all().expect("seed flush");
        }
        Self {
            servers,
            fids,
            clock,
        }
    }
}

impl Store for FsStore {
    fn spans(&self) -> [&'static str; 2] {
        ["file-service.read", "file-service.write"]
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.servers[f % hot::SERVERS]
            .file_service_mut()
            .read(self.fids[f], off, len)
            .map_err(|e| e.to_string())
    }
    fn write(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.servers[f % hot::SERVERS]
            .file_service_mut()
            .write(self.fids[f], off, data.to_vec())
            .map_err(|e| e.to_string())
    }
    fn sync(&mut self) -> Result<(), String> {
        for ts in &mut self.servers {
            ts.file_service_mut()
                .flush_all()
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

fn hot_pass(inp: &hot::Inputs, stream: usize, lad: &mut Ladder) {
    lad.untraced(|| hot::round(inp, stream, None));
    let r = lad.rung("cluster", |t| hot::round(inp, stream, Some(t)));
    lad.top(r, hot::IO);
    let cfg = hot::config(inp.seed);
    let ops = &inp.windows[stream];
    let mut wire = WireStore::new(&cfg, &inp.initial);
    let mut model = inp.initial.clone();
    let mut warm = Round::default();
    hot::run_ops(&mut wire, &mut model, inp, &inp.warm, &mut warm, None);
    let before = wire.channel_counters();
    let r = lad.rung("replication", |t| {
        let mut r = Round::default();
        hot::run_ops(&mut wire, &mut model, inp, ops, &mut r, Some(t));
        r
    });
    add_delta(&mut lad.wire, &before, &wire.channel_counters());
    lad.keep(r);
    lad.keep(warm);
    let mut fs = FsStore::new(&cfg, &inp.initial);
    let mut model = inp.initial.clone();
    let mut warm = Round::default();
    hot::run_ops(&mut fs, &mut model, inp, &inp.warm, &mut warm, None);
    let r = lad.rung("file-service", |t| {
        let mut r = Round::default();
        hot::run_ops(&mut fs, &mut model, inp, ops, &mut r, Some(t));
        r
    });
    lad.keep(r);
    lad.keep(warm);
}

// ---- commit_heavy: cluster → wire coordinator → txn → file service → …

/// The wire rung of `commit_heavy`: the benchmark coordinates 2PC
/// itself over benchmark-owned channels — one prepare RPC per server per
/// wave, one decision-log force per wave, decisions to yes-voters — the
/// protocol `Cluster::commit_batch` runs. With `direct`, requests skip
/// the channel and go straight to the transaction-aware server loop:
/// the `txn` rung. Every wave's outcome is recorded, for the rungs below.
struct TxnStore {
    servers: Vec<WireServer>,
    fids: Vec<FileId>,
    clock: SimClock,
    log: DecisionLog,
    next_gtid: u64,
    direct: bool,
    outcomes: Vec<Vec<bool>>,
}

impl TxnStore {
    fn new(cfg: &rhodos_cluster::ClusterConfig, initial: &[Vec<u8>], direct: bool) -> Self {
        let wire = WireStore::new(cfg, initial);
        Self {
            servers: wire.servers,
            fids: wire.fids,
            clock: wire.clock,
            log: DecisionLog::default(),
            next_gtid: 1,
            direct,
            outcomes: Vec::new(),
        }
    }

    fn call(&mut self, i: usize, req: &[u8]) -> Result<Vec<u8>, String> {
        let WireServer { ts, chan } = &mut self.servers[i];
        if self.direct {
            return decode_reply(&serve_txn(ts, req)).map_err(|e| e.to_string());
        }
        chan.call_serve(req, |r| serve_txn(ts, r))
            .map_err(|e| format!("{e:?}"))
    }
}

impl Coordinator for TxnStore {
    fn spans(&self) -> [&'static str; 2] {
        if self.direct {
            ["txn.read", "txn.commit_batch"]
        } else {
            ["replication.read", "replication.commit_batch"]
        }
    }
    fn commit_batch(&mut self, txns: &[Vec<(usize, u64, Vec<u8>)>]) -> Result<Vec<bool>, String> {
        let first = self.next_gtid;
        self.next_gtid += txns.len() as u64;
        let mut by_server: BTreeMap<usize, Vec<PrepareTxn>> = BTreeMap::new();
        for (k, ops) in txns.iter().enumerate() {
            let mut per: BTreeMap<usize, Vec<(FileId, u64, Vec<u8>)>> = BTreeMap::new();
            for (f, off, data) in ops {
                per.entry(f % commit::SERVERS).or_default().push((
                    self.fids[*f],
                    *off,
                    data.clone(),
                ));
            }
            for (s, w) in per {
                by_server.entry(s).or_default().push((first + k as u64, w));
            }
        }
        let mut yes: BTreeMap<(usize, u64), bool> = BTreeMap::new();
        for (&s, batch) in &by_server {
            let votes = decode_votes(&self.call(s, &encode_txn_prepare(batch))?);
            for ((gtid, _), v) in batch.iter().zip(votes) {
                yes.insert((s, *gtid), v);
            }
        }
        let commit: Vec<bool> = (0..txns.len() as u64)
            .map(|k| {
                by_server
                    .iter()
                    .filter(|(_, b)| b.iter().any(|(g, _)| *g == first + k))
                    .all(|(s, _)| yes.get(&(*s, first + k)) == Some(&true))
            })
            .collect();
        for (k, c) in commit.iter().enumerate() {
            if *c {
                self.log.append_commit(first + k as u64);
            }
        }
        self.log.force();
        for (k, c) in commit.iter().enumerate() {
            let gtid = first + k as u64;
            let servers: Vec<usize> = yes
                .iter()
                .filter(|((_, g), v)| *g == gtid && **v)
                .map(|((s, _), _)| *s)
                .collect();
            for s in servers {
                self.call(s, &encode_txn_decide(gtid, *c, false))?;
            }
        }
        self.outcomes.push(commit.clone());
        Ok(commit)
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        let i = f % commit::SERVERS;
        if self.direct {
            let fs = self.servers[i].ts.file_service_mut();
            return fs.read(self.fids[f], off, len).map_err(|e| e.to_string());
        }
        let WireServer { ts, chan } = &mut self.servers[i];
        chan.call(ts.file_service_mut(), &encode_read(self.fids[f], off, len))
            .map_err(|e| format!("{e:?}"))
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

/// A rung below `txn` for `commit_heavy`: each wave commits exactly the
/// transactions the `txn` rung committed in that wave, as plain writes of
/// their bytes to the store, then syncs it. Locks, Prepared records, log
/// forces, stable writes and WAL/shadow applies are the transaction
/// service's own work and are not replayed here.
struct Decided<S> {
    store: S,
    outcomes: VecDeque<Vec<bool>>,
}

impl<S: Store> Coordinator for Decided<S> {
    fn spans(&self) -> [&'static str; 2] {
        self.store.spans()
    }
    fn commit_batch(&mut self, txns: &[Vec<(usize, u64, Vec<u8>)>]) -> Result<Vec<bool>, String> {
        let out = self
            .outcomes
            .pop_front()
            .filter(|o| o.len() == txns.len())
            .ok_or("wave does not match the txn rung's")?;
        for (ops, _) in txns.iter().zip(&out).filter(|(_, c)| **c) {
            for (f, off, data) in ops {
                self.store.write(*f, *off, data)?;
            }
        }
        self.store.sync()?;
        Ok(out)
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.store.read(f, off, len)
    }
    fn now_us(&self) -> u64 {
        self.store.now_us()
    }
}

/// Runs the window waves of op stream `stream` (`None`: the warm-up
/// waves) against `c`, keeping `model` in step.
fn commit_window<C: Coordinator>(
    c: &mut C,
    inp: &commit::Inputs,
    model: &mut [Vec<u8>],
    stream: Option<usize>,
    tr: Option<&RefCell<Tracer>>,
) -> Round {
    let mut r = Round::default();
    let waves = match stream {
        Some(_) => commit::WINDOW_WAVES,
        None => commit::WARM_WAVES,
    };
    let mut g = commit::Gen::new(inp.seed, stream);
    commit::run_waves(c, &mut g, model, waves, &mut r, tr);
    r
}

fn commit_pass(inp: &commit::Inputs, stream: usize, lad: &mut Ladder) {
    lad.untraced(|| commit::round(inp, stream, None));
    let r = lad.rung("cluster", |t| commit::round(inp, stream, Some(t)));
    lad.top(r, 2 * commit::TXN_BYTES);
    let cfg = commit::config(inp.seed);
    let mut decided = Vec::new();
    for (name, direct) in [("replication", false), ("txn", true)] {
        let mut c = TxnStore::new(&cfg, &inp.initial, direct);
        let mut model = inp.initial.clone();
        let warm = commit_window(&mut c, inp, &mut model, None, None);
        c.outcomes.clear();
        let r = lad.rung(name, |t| {
            commit_window(&mut c, inp, &mut model, Some(stream), Some(t))
        });
        lad.keep(r);
        lad.keep(warm);
        decided = c.outcomes;
    }
    // The rungs below replay the txn rung's window decisions from the
    // seeded contents, without a warm-up (seeding already fills the
    // block pool).
    let fs = || FsStore::new(&cfg, &inp.initial);
    decided_rung(lad, "file-service", fs(), &decided, inp, stream);
    decided_rung(
        lad,
        "disk-service",
        Blocks::of_servers(fs(), false),
        &decided,
        inp,
        stream,
    );
    decided_rung(
        lad,
        "simdisk",
        Blocks::of_servers(fs(), true),
        &decided,
        inp,
        stream,
    );
}

/// Runs rung `name` of `commit_heavy` on `store`, committing what the
/// `txn` rung `decided`.
fn decided_rung<S: Store>(
    lad: &mut Ladder,
    name: &'static str,
    store: S,
    decided: &[Vec<bool>],
    inp: &commit::Inputs,
    stream: usize,
) {
    let mut c = Decided {
        store,
        outcomes: decided.iter().cloned().collect(),
    };
    let mut model = inp.initial.clone();
    let r = lad.rung(name, |t| {
        commit_window(&mut c, inp, &mut model, Some(stream), Some(t))
    });
    lad.keep(r);
}

// ---- cold_stream: agent → file service → disk service → simdisk -------

/// The file-service rung: the agent's server, called directly.
struct FsVolume {
    ts: TransactionService,
    fids: Vec<FileId>,
    clock: SimClock,
}

impl Volume for FsVolume {
    fn spans(&self) -> [&'static str; 3] {
        [
            "file-service.read",
            "file-service.write",
            "file-service.flush_all",
        ]
    }
    fn pread(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.ts
            .file_service_mut()
            .read(self.fids[f], off, len)
            .map_err(|e| e.to_string())
    }
    fn pwrite(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.ts
            .file_service_mut()
            .write(self.fids[f], off, data.to_vec())
            .map_err(|e| e.to_string())
    }
    fn flush(&mut self) -> Result<(), String> {
        self.ts
            .file_service_mut()
            .flush_all()
            .map_err(|e| e.to_string())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

/// The disk-service rung (`sectors` false: `get`/`put` of block
/// extents) and the simdisk rung (`sectors` true: `read_sectors`/
/// `write_sectors`): each op becomes the transfers of the data blocks it
/// touches, at the addresses the file service laid them out at. A
/// partial-block write reads the block, patches it and writes it back.
/// Parity units are the file service's own work and are not replayed,
/// so writes here are data-only and reads still match the model.
struct Blocks {
    servers: Vec<TransactionService>,
    /// Per file: its server and its block descriptors.
    files: Vec<(usize, Vec<BlockDescriptor>)>,
    clock: SimClock,
    sectors: bool,
}

impl Blocks {
    /// The blocks of `fids`, file `f` on server `home(f)`.
    fn new(
        mut servers: Vec<TransactionService>,
        fids: &[FileId],
        home: impl Fn(usize) -> usize,
        clock: SimClock,
        sectors: bool,
    ) -> Self {
        let files = fids
            .iter()
            .enumerate()
            .map(|(f, &fid)| {
                let fs = servers[home(f)].file_service_mut();
                (home(f), fs.block_descriptors(fid).expect("descriptors"))
            })
            .collect();
        Self {
            servers,
            files,
            clock,
            sectors,
        }
    }

    /// The blocks of the file-service rung's servers.
    fn of_servers(fs: FsStore, sectors: bool) -> Self {
        Self::new(
            fs.servers,
            &fs.fids,
            |f| f % commit::SERVERS,
            fs.clock,
            sectors,
        )
    }

    fn get(&mut self, f: usize, b: usize) -> Result<Vec<u8>, String> {
        let (s, ref descs) = self.files[f];
        let d = descs[b];
        let ds = self.servers[s].file_service_mut().disk_mut(d.disk as usize);
        let buf = if self.sectors {
            ds.disk_mut()
                .read_sectors(d.addr, FRAGS_PER_BLOCK)
                .map_err(|e| e.to_string())?
        } else {
            ds.get(d.block_extent()).map_err(|e| e.to_string())?
        };
        Ok(buf.to_vec())
    }

    fn put(&mut self, f: usize, b: usize, block: &[u8]) -> Result<(), String> {
        let (s, ref descs) = self.files[f];
        let d = descs[b];
        let ds = self.servers[s].file_service_mut().disk_mut(d.disk as usize);
        if self.sectors {
            ds.disk_mut()
                .write_sectors(d.addr, block)
                .map(|_| ())
                .map_err(|e| e.to_string())
        } else {
            ds.put(d.block_extent(), block, StablePolicy::None)
                .map_err(|e| e.to_string())
        }
    }

    fn read_range(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        let (off, end) = (off as usize, off as usize + len);
        let mut out = Vec::with_capacity(len);
        for b in off / BLOCK_SIZE..end.div_ceil(BLOCK_SIZE) {
            let block = self.get(f, b)?;
            let lo = off.max(b * BLOCK_SIZE) - b * BLOCK_SIZE;
            let hi = end.min((b + 1) * BLOCK_SIZE) - b * BLOCK_SIZE;
            out.extend_from_slice(&block[lo..hi]);
        }
        Ok(out)
    }

    fn write_range(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        let (off, end) = (off as usize, off as usize + data.len());
        for b in off / BLOCK_SIZE..end.div_ceil(BLOCK_SIZE) {
            let lo = off.max(b * BLOCK_SIZE);
            let hi = end.min((b + 1) * BLOCK_SIZE);
            let chunk = &data[lo - off..hi - off];
            if hi - lo == BLOCK_SIZE {
                self.put(f, b, chunk)?;
            } else {
                let mut block = self.get(f, b)?;
                block[lo - b * BLOCK_SIZE..hi - b * BLOCK_SIZE].copy_from_slice(chunk);
                self.put(f, b, &block)?;
            }
        }
        Ok(())
    }
}

impl Volume for Blocks {
    fn spans(&self) -> [&'static str; 3] {
        if self.sectors {
            [
                "simdisk.read_sectors",
                "simdisk.write_sectors",
                "simdisk.flush",
            ]
        } else {
            ["disk-service.get", "disk-service.put", "disk-service.flush"]
        }
    }
    fn pread(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.read_range(f, off, len)
    }
    fn pwrite(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.write_range(f, off, data)
    }
    /// Nothing to do: every write already went to its disk.
    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

impl Store for Blocks {
    fn spans(&self) -> [&'static str; 2] {
        let [read, write, _] = Volume::spans(self);
        [read, write]
    }
    fn read(&mut self, f: usize, off: u64, len: usize) -> Result<Vec<u8>, String> {
        self.read_range(f, off, len)
    }
    fn write(&mut self, f: usize, off: u64, data: &[u8]) -> Result<(), String> {
        self.write_range(f, off, data)
    }
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }
}

fn cold_pass(inp: &cold::Inputs, stream: usize, lad: &mut Ladder) {
    lad.untraced(|| cold::round(inp, stream, None));
    let r = lad.rung("agent", |t| cold::round(inp, stream, Some(t)));
    lad.top(r, cold::WRITE_BYTES);
    let ops = &inp.windows[stream];

    let clock = SimClock::new();
    let (ts, fids) = cold::seeded_server(&clock, &inp.initial);
    let mut fs = FsVolume { ts, fids, clock };
    let (mut model, mut cur) = (inp.initial.clone(), cold::Cursors::new());
    let mut warm = Round::default();
    cold::run_ops(
        &mut fs, &mut model, &mut cur, inp, &inp.warm, &mut warm, None,
    );
    let r = lad.rung("file-service", |t| {
        let mut r = Round::default();
        cold::run_ops(&mut fs, &mut model, &mut cur, inp, ops, &mut r, Some(t));
        r
    });
    lad.keep(r);
    lad.keep(warm);

    for (name, sectors) in [("disk-service", false), ("simdisk", true)] {
        let clock = SimClock::new();
        let (ts, fids) = cold::seeded_server(&clock, &inp.initial);
        let mut v = Blocks::new(vec![ts], &fids, |_| 0, clock, sectors);
        let (mut model, mut cur) = (inp.initial.clone(), cold::Cursors::new());
        let r = lad.rung(name, |t| {
            let mut r = Round::default();
            cold::run_ops(&mut v, &mut model, &mut cur, inp, ops, &mut r, Some(t));
            r
        });
        lad.keep(r);
    }
}

// ---- the report -------------------------------------------------------

/// Per-layer ratios: metric, unit, numerator, base. Counters are named as
/// in `layers.rs`; `ops`, `writes` and `user_bytes` are the top rung's,
/// and the `*_lookups`, `cluster.attempts`, `net.replayed_x1000` and
/// `net.delay_backoff_us` bases are derived in [`metrics`].
#[rustfmt::skip]
const RATIOS: [(&str, &str, &str, &str); 31] = [
    ("cluster_prepare_rpcs_per_commit", "ratio", "cluster.prepare_rpcs", "cluster.cross_commits"),
    ("cluster_decision_forces_per_commit", "ratio", "cluster.decision_forces", "cluster.cross_commits"),
    ("cluster_attempts_per_commit", "ratio", "cluster.attempts", "cluster.cross_commits"),
    ("wire_bytes_per_op", "B", "wire.frame_bytes", "ops"),
    ("net_sends_per_rpc", "ratio", "net.sent", "net.rpc_calls"),
    ("net_replayed_per_kop", "count", "net.replayed_x1000", "ops"),
    ("net_sim_delay_backoff_us_per_op", "us", "net.delay_backoff_us", "ops"),
    ("agent_cache_hit_ratio", "ratio", "agent.cache_hits", "agent.cache_lookups"),
    ("agent_round_trips_per_op", "ratio", "agent.round_trips", "ops"),
    ("txn_log_flushes_per_commit", "ratio", "txn.log_flushes", "cluster.cross_commits"),
    ("txn_records_per_flush", "ratio", "txn.records_flushed", "txn.log_flushes"),
    ("txn_wal_pages_per_commit", "ratio", "txn.wal_pages", "txn.committed"),
    ("txn_shadow_pages_per_commit", "ratio", "txn.shadow_pages", "txn.committed"),
    ("txn_would_blocks_per_commit", "ratio", "txn.would_blocks", "cluster.cross_commits"),
    ("fs_pool_hit_ratio", "ratio", "file-service.pool_hits", "file-service.pool_lookups"),
    ("fs_fit_hit_ratio", "ratio", "file-service.fit_hits", "file-service.fit_lookups"),
    ("fs_full_stripe_per_write", "ratio", "file-service.full_stripe_writes", "writes"),
    ("fs_parity_delta_per_write", "ratio", "file-service.parity_delta_writes", "writes"),
    ("fs_reconstruct_per_write", "ratio", "file-service.reconstruct_writes", "writes"),
    ("ds_track_hit_ratio", "ratio", "disk-service.track_hits", "disk-service.track_lookups"),
    ("ds_batches_per_op", "ratio", "disk-service.sched_batches", "ops"),
    ("ds_merged_per_batch", "ratio", "disk-service.sched_merged", "disk-service.sched_batches"),
    ("ds_extent_allocs_per_op", "ratio", "disk-service.extent_allocs", "ops"),
    ("sd_sector_reads_per_op", "ratio", "simdisk.sector_reads", "ops"),
    ("sd_sector_writes_per_op", "ratio", "simdisk.sector_writes", "ops"),
    ("sd_seeks_per_op", "ratio", "simdisk.seeks", "ops"),
    ("sd_busy_sim_us_per_op", "us", "simdisk.busy_us", "ops"),
    ("sd_stable_writes_per_commit", "ratio", "simdisk.stable_writes", "cluster.cross_commits"),
    ("sd_bytes_written_per_user_byte", "ratio", "simdisk.bytes_written", "user_bytes"),
    ("buf_copied_bytes_per_op", "B", "buf.bytes_copied", "ops"),
    ("buf_shared_bytes_per_op", "B", "buf.bytes_shared", "ops"),
];

/// Self-time metrics, in `BENCHMARK.json` order; the ones a workload's
/// path does not reach read 0.
const SELF_TIMES: [&str; 7] = [
    "cluster_self_us",
    "replication_self_us",
    "agent_self_us",
    "txn_self_us",
    "file_service_self_us",
    "disk_service_self_us",
    "simdisk_self_us",
];

/// Self times, tracing overhead and ratios: one metric per per-layer
/// name of `BENCHMARK.json`.
fn metrics(lad: &Ladder, workload: &str) -> Vec<Metric> {
    // Each layer's self time is its rung's mean minus the rung below; the
    // last rung a workload's API reaches is whole (a residual when layers
    // still lie beneath it). A note says what a rung's self time holds
    // that the rungs below do not replay.
    type Pair = (&'static str, &'static str, &'static str);
    let (pairs, last, beneath): (&[Pair], &str, &str) = match workload {
        "hot_small" => (
            &[
                ("cluster", "replication", ""),
                ("replication", "file-service", ""),
            ],
            "file-service",
            "RESIDUAL, includes disk-service and simdisk, ",
        ),
        "commit_heavy" => (
            &[
                ("cluster", "replication", ""),
                ("replication", "txn", ""),
                (
                    "txn",
                    "file-service",
                    "; includes the locks, log forces, stable writes and WAL/shadow applies",
                ),
                ("file-service", "disk-service", ""),
                ("disk-service", "simdisk", ""),
            ],
            "simdisk",
            "",
        ),
        _ => (
            &[
                ("agent", "file-service", ""),
                (
                    "file-service",
                    "disk-service",
                    "; includes the parity reads and writes",
                ),
                ("disk-service", "simdisk", ""),
            ],
            "simdisk",
            "",
        ),
    };
    let n = |rung: &str| lad.rungs.get(rung).map_or(0.0, |r| r.1);
    let name = |rung: &str| format!("{}_self_us", rung.replace('-', "_"));
    let mut m: Vec<Metric> = pairs
        .iter()
        .map(|&(a, b, note)| {
            let how = format!(
                "mean span of rung {a} ({} spans) minus rung {b} ({} spans){note}",
                n(a),
                n(b)
            );
            Metric::new(&name(a), "us", lad.mean_us(a) - lad.mean_us(b), how)
        })
        .collect();
    let how = format!("rung {last} whole ({beneath}{} spans)", n(last));
    m.push(Metric::new(&name(last), "us", lad.mean_us(last), how));
    for s in SELF_TIMES {
        if !m.iter().any(|x| x.name == s) {
            m.push(Metric::new(
                s,
                "us",
                0.0,
                "layer not on this workload's path".into(),
            ));
        }
    }
    let untraced = crate::stats::median(&lad.untraced);
    let traced = crate::stats::median(&lad.traced);
    m.push(Metric::new(
        "tracing_overhead_pct",
        "%",
        100.0 * (ratio(untraced, traced) - 1.0),
        format!("untraced {untraced:.1} vs traced {traced:.1} top-rung ops/s"),
    ));

    let mut c = lad.counters.clone();
    c.extend(lad.wire.clone());
    let get = |c: &Counters, k: &str| c.get(k).copied().unwrap_or(0.0);
    let sum = |c: &Counters, a: &str, b: &str| get(c, a) + get(c, b);
    let derived = [
        ("ops", lad.ops),
        ("writes", lad.writes),
        ("user_bytes", lad.user_bytes),
        (
            "cluster.attempts",
            sum(&c, "cluster.cross_commits", "cluster.cross_aborts"),
        ),
        ("net.replayed_x1000", 1000.0 * get(&c, "net.replayed")),
        (
            "net.delay_backoff_us",
            sum(&c, "net.transit_us", "net.backoff_us"),
        ),
        (
            "agent.cache_lookups",
            sum(&c, "agent.cache_hits", "agent.cache_misses"),
        ),
        (
            "file-service.pool_lookups",
            sum(&c, "file-service.pool_hits", "file-service.pool_misses"),
        ),
        (
            "file-service.fit_lookups",
            sum(&c, "file-service.fit_hits", "file-service.fit_loads"),
        ),
        (
            "disk-service.track_lookups",
            sum(&c, "disk-service.track_hits", "disk-service.track_misses"),
        ),
    ];
    for (k, v) in derived {
        c.insert(k.to_string(), v);
    }
    for (metric, unit, num, den) in RATIOS {
        let (x, y) = (get(&c, num), get(&c, den));
        m.push(Metric::new(
            metric,
            unit,
            ratio(x, y),
            format!("{x} {num} / {y} {den}"),
        ));
    }
    m
}

/// Runs the ladder for `seconds` (at least one pass), writes the spans
/// and returns the rounds (for the correctness verdict) and metrics.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<(Vec<Round>, Vec<Metric>), String> {
    let t = Instant::now();
    let mut lad = Ladder::default();
    // Whole passes (every rung once, alternating streams) until
    // `seconds` have passed.
    let mut passes = 0;
    let mut repeat = |pass: &mut dyn FnMut(usize, &mut Ladder)| {
        while passes == 0 || t.elapsed().as_secs_f64() < seconds {
            pass(passes % crate::round::STREAMS, &mut lad);
            passes += 1;
        }
    };
    match workload {
        "hot_small" => {
            let inp = hot::inputs(seed);
            repeat(&mut |k, lad| hot_pass(&inp, k, lad));
        }
        "cold_stream" => {
            let inp = cold::inputs(seed);
            repeat(&mut |k, lad| cold_pass(&inp, k, lad));
        }
        "commit_heavy" => {
            let inp = commit::inputs(seed);
            repeat(&mut |k, lad| commit_pass(&inp, k, lad));
        }
        other => return Err(format!("unknown workload {other}")),
    }
    let m = metrics(&lad, workload);
    let path = std::path::PathBuf::from(format!("steadybench/out/trace-{workload}-{seed}.jsonl"));
    lad.tracer
        .borrow()
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans written to {} ({passes} ladder passes)",
        path.display()
    );
    Ok((lad.rounds, m))
}
