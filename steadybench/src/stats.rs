//! Small numeric helpers shared by the workloads and the report.

use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, the same hash `Cluster::content_fingerprint` uses, so a
/// model fingerprint can be compared with the cluster's.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A fresh FNV-1a state.
pub fn fnv_start() -> u64 {
    FNV_OFFSET
}

/// Nearest-rank percentile of an ascending slice, `q` in `0.0..=1.0`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a set of measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Interquartile mean: the mean of the middle half of the values (all
/// of them when fewer than four) — steadier than the median, as robust
/// to a few outlying rounds.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 4;
    let mid = &v[k..v.len() - k];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A ratio that reads 0 instead of NaN on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Time of [`calibrate`] on the reference host (an Intel Xeon VM with
/// two vCPUs, in its fast regime), nanoseconds. Wall-clock metrics are
/// multiplied or divided by `calibrate() / CALIBRATION_REF_NS` so that
/// the host's own speed swings cancel out; see `NOTES.md`.
pub const CALIBRATION_REF_NS: f64 = 6.5e6;

/// The calibration kernel: ordered- and hashed-map lookups, 1 KiB buffer
/// copies, small encodes and FNV hashing — the instruction and memory
/// mix of the storage stack's request path — frozen in the benchmark so
/// it never changes with the program.
fn kernel(iters: usize) -> u64 {
    use std::collections::{BTreeMap, HashMap};
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut ordered: BTreeMap<u64, u64> = (0..4096u64).map(|i| (i.wrapping_mul(MIX), i)).collect();
    let src = vec![0x5au8; 1024];
    let mut hashed: HashMap<u64, Vec<u8>> = (0..64u64).map(|i| (i, src.clone())).collect();
    let mut x = MIX;
    let mut h = fnv_start();
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if let Some(v) = ordered.get_mut(&((x % 4096).wrapping_mul(MIX))) {
            *v ^= x;
        }
        let e = hashed.get_mut(&(x % 64)).expect("every key is present");
        let copy = e.clone();
        e[(x % 1024) as usize] = copy[((x >> 10) % 1024) as usize] ^ x as u8;
        fnv1a(&mut h, &copy[..32]);
        let mut enc = Vec::with_capacity(64);
        enc.extend_from_slice(&x.to_le_bytes());
        enc.extend_from_slice(&h.to_le_bytes());
        std::hint::black_box(&enc);
    }
    std::hint::black_box(h)
}

/// How slow the host is now: the kernel's time ÷ its reference time.
pub fn slowness() -> f64 {
    calibrate() / CALIBRATION_REF_NS
}

/// Times the kernel on the driver thread. Returns nanoseconds.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    kernel(40_000);
    t.elapsed().as_nanos() as f64
}
