//! Flattens each layer's public `stats()` into named counters, so a
//! window's work can be reported as per-layer deltas and ratios.

use crate::round::Counters;
use rhodos_file_service::FileService;
use rhodos_net::{NetStats, ReplayStats, RpcClientStats};
use rhodos_simdisk::SECTOR_SIZE;
use rhodos_txn::TxnStats;

fn add(c: &mut Counters, name: &str, v: u64) {
    *c.entry(name.to_string()).or_insert(0.0) += v as f64;
}

/// Counters of one file service and everything below it: block pool,
/// FIT pool, parity tier, disk services, simulated disks and the buffer
/// copy/share accounting of all three cache layers.
pub fn file_service(c: &mut Counters, fs: &FileService) {
    let s = fs.stats();
    add(c, "file-service.pool_hits", s.cache.hits);
    add(c, "file-service.pool_misses", s.cache.misses);
    add(c, "file-service.fit_hits", s.fit_cache_hits);
    add(c, "file-service.fit_loads", s.fit_loads);
    add(
        c,
        "file-service.full_stripe_writes",
        s.parity.full_stripe_writes,
    );
    add(
        c,
        "file-service.parity_delta_writes",
        s.parity.parity_delta_writes,
    );
    add(
        c,
        "file-service.reconstruct_writes",
        s.parity.reconstruct_writes,
    );
    let mut copied = s.cache.bytes_copied;
    let mut shared = s.cache.bytes_borrowed;
    for d in &s.disks {
        add(c, "disk-service.track_hits", d.cache.fragment_hits);
        add(c, "disk-service.track_misses", d.cache.fragment_misses);
        add(c, "disk-service.sched_batches", d.scheduler.batches);
        add(c, "disk-service.sched_merged", d.scheduler.merged_requests);
        add(
            c,
            "disk-service.extent_allocs",
            d.index.index_hits + d.index.bitmap_fallbacks,
        );
        add(c, "simdisk.sector_reads", d.disk.sector_reads);
        add(c, "simdisk.sector_writes", d.disk.sector_writes);
        add(c, "simdisk.seeks", d.disk.seeks + d.stable.seeks);
        add(c, "simdisk.busy_us", d.disk.busy_us + d.stable.busy_us);
        add(c, "simdisk.stable_writes", d.stable.write_ops);
        add(
            c,
            "simdisk.bytes_written",
            (d.disk.sector_writes + d.stable.sector_writes) * SECTOR_SIZE as u64,
        );
        copied += d.cache.bytes_copied + d.disk.bytes_copied;
        shared += d.cache.bytes_borrowed + d.disk.bytes_borrowed;
    }
    add(c, "buf.bytes_copied", copied);
    add(c, "buf.bytes_shared", shared);
}

/// Counters of one transaction service.
pub fn txn(c: &mut Counters, s: &TxnStats) {
    add(c, "txn.committed", s.committed);
    add(c, "txn.aborted", s.aborted);
    add(c, "txn.log_flushes", s.log_flushes);
    add(c, "txn.records_flushed", s.records_flushed);
    add(c, "txn.wal_pages", s.wal_pages);
    add(c, "txn.shadow_pages", s.shadow_pages);
    add(c, "txn.would_blocks", s.would_blocks);
    add(c, "txn.prepares", s.prepares);
    add(c, "txn.prepare_flushes", s.prepare_flushes);
}

/// Counters of one wire channel: link, retry client and replay cache.
pub fn channel(c: &mut Counters, net: NetStats, rpc: RpcClientStats, replay: ReplayStats) {
    add(c, "net.sent", net.sent);
    add(c, "net.lost", net.lost);
    add(c, "net.duplicated", net.duplicated);
    add(c, "net.transit_us", net.transit_us);
    add(c, "net.rpc_calls", rpc.calls);
    add(c, "net.rpc_retries", rpc.retries);
    add(c, "net.backoff_us", rpc.backoff_us);
    add(c, "net.replayed", replay.replayed);
}

/// Bytes allocated on a file service's main data disks: every used
/// fragment, whether it holds data, parity, the intention log, a FIT or
/// the directory.
pub fn allocated_bytes(fs: &FileService) -> u64 {
    fs.stats()
        .disks
        .iter()
        .map(|d| (d.total_fragments - d.free_fragments) * SECTOR_SIZE as u64)
        .sum()
}
