//! Turns measured rounds into the end-to-end metrics, the steadiness
//! self-checks and the final JSON line.

use crate::round::{Class, Round, Sample, Spec, STREAMS};
use crate::stats::{fnv1a, fnv_start, iqm, median, percentile};
use rhodos_bench::loadgen::{OpClass, Replay, Trace};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// What the value was computed from.
    pub basis: String,
}

impl Metric {
    /// A metric with its unit and basis.
    pub fn new(name: &str, unit: &'static str, value: f64, basis: String) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            basis,
        }
    }
}

/// Fixed request-processing cost added to each op's measured simulated
/// time, as `loadgen` does, so an op served from a cache (which moves
/// the simulated clock not at all) still occupies its resources.
fn cpu_us(class: Class) -> u64 {
    match class {
        Class::Read => 20,
        Class::Write | Class::Flush => 40,
    }
}

/// The simulated-clock trace of a round, ready for open-loop replays.
pub fn sim_trace(samples: &[Sample], spec: &Spec) -> Trace {
    let ops = samples
        .iter()
        .map(|s| {
            // A flush replays as the replay's third class, so it holds
            // the server without entering the read or write latencies.
            let class = match s.class {
                Class::Read => OpClass::Read,
                Class::Write => OpClass::Write,
                Class::Flush => OpClass::Update,
            };
            let res = (0..spec.resources as u32)
                .filter(|i| s.resources & (1 << i) != 0)
                .collect();
            (class, s.agent as usize, s.sim_us + cpu_us(s.class), res)
        })
        .collect();
    Trace::from_ops(ops, spec.resources, spec.agents)
}

/// Whether a replay keeps up with its offered rate: the last op
/// finishes within 3% of the arrival span, so no backlog grows.
fn keeps_up(r: &Replay) -> bool {
    r.achieved_per_ks * 100 >= r.offered_per_ks * 97
}

fn meets(r: &Replay, spec: &Spec) -> bool {
    keeps_up(r)
        && (r.read.count == 0 || r.read.p99 <= spec.p99_limit_us)
        && (r.write.count == 0 || r.write.p99 <= spec.p99_limit_us)
}

/// Highest offered rate, ops/s, that meets the p99 limit with no growing
/// backlog: the last passing rung of a doubling ladder from the spec's
/// base, refined by sixteen bisection steps towards the first failing rung.
/// The rate counts every replayed op, flushes included.
pub fn sim_capacity(trace: &Trace, spec: &Spec) -> f64 {
    let pass = |per_ks: u64| meets(&trace.replay(per_ks), spec);
    let mut lo = 0u64;
    let mut hi = spec.ladder_base_per_ks;
    for _ in 0..24 {
        if !pass(hi) {
            break;
        }
        lo = hi;
        hi *= 2;
    }
    if lo == 0 {
        return 0.0;
    }
    for _ in 0..16 {
        let mid = (lo + hi) / 2;
        if pass(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f64 / 1000.0
}

/// FNV digest of a round's simulated service times: equal digests mean
/// the simulated clock repeated exactly.
pub fn sim_digest(samples: &[Sample]) -> u64 {
    let mut h = fnv_start();
    for s in samples {
        fnv1a(&mut h, &s.sim_us.to_le_bytes());
        fnv1a(&mut h, &[s.class as u8]);
    }
    h
}

/// What a round is reduced to as soon as it ends, so a run's memory
/// does not grow with the number of rounds it fits in. Wall-clock
/// figures are kept as measured, with the host slowness to scale them by.
#[derive(Debug, Clone)]
pub struct RoundStats {
    stream: usize,
    /// Host slowness during the round: calibration time ÷ reference.
    speed: f64,
    setup_s: f64,
    ops_per_s: f64,
    /// Wall p50 and p99, µs: read p50, read p99, write p50, write p99,
    /// flush p50, flush p99 (`None` when the class had no samples).
    wall_us: [Option<f64>; 6],
    /// Samples per class: reads, writes, flushes.
    counts: [usize; 3],
    digest: u64,
    halves: [f64; 4],
}

impl RoundStats {
    /// A figure of this round at reference host speed: times are divided
    /// by the slowness, rates multiplied.
    fn scaled(&self, value: f64, rate: bool) -> f64 {
        if rate {
            value * self.speed
        } else {
            value / self.speed
        }
    }
}

/// Reduces one round: wall latencies per class, the simulated-clock
/// digest and the half-window split. `speed` is the calibration time ÷
/// the reference time around this round.
pub fn summarize(r: &Round, stream: usize, speed: f64) -> RoundStats {
    let s = &r.samples;
    let mut by_class: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for x in s {
        by_class[x.class as usize].push(x.wall_ns);
    }
    let mut wall_us = [None; 6];
    for (c, v) in by_class.iter_mut().enumerate() {
        v.sort_unstable();
        if !v.is_empty() {
            wall_us[2 * c] = Some(percentile(v, 0.50) as f64 / 1000.0);
            wall_us[2 * c + 1] = Some(percentile(v, 0.99) as f64 / 1000.0);
        }
    }
    let user: Vec<Sample> = s
        .iter()
        .filter(|x| x.class != Class::Flush)
        .copied()
        .collect();
    let mid = user.len() / 2;
    let mut halves = [0.0; 4];
    if mid > 0 {
        let t_mid = user[mid - 1].done_ns as f64 / 1e9;
        let t_end = user[user.len() - 1].done_ns as f64 / 1e9;
        let p50 = |part: &[Sample]| {
            let mut v: Vec<u64> = part.iter().map(|x| x.wall_ns).collect();
            v.sort_unstable();
            percentile(&v, 0.5) as f64 / 1000.0 / speed
        };
        halves = [
            mid as f64 / t_mid * speed,
            (user.len() - mid) as f64 / (t_end - t_mid) * speed,
            p50(&user[..mid]),
            p50(&user[mid..]),
        ];
    }
    RoundStats {
        stream,
        speed,
        setup_s: r.setup_s,
        ops_per_s: user.len() as f64 / r.window_s,
        wall_us,
        counts: [by_class[0].len(), by_class[1].len(), by_class[2].len()],
        digest: sim_digest(s),
        halves,
    }
}

/// Computes the end-to-end metrics other than `peak_rss_mb` (which the
/// caller reads before this analysis) and prints the steadiness
/// self-checks. The first
/// [`STREAMS`] rounds still hold their samples, for the simulated replay.
/// A wall-clock figure's basis also gives the unscaled figure it came
/// from.
pub fn end_to_end(rounds: &[Round], stats: &[RoundStats], spec: &Spec) -> Vec<Metric> {
    let n_rounds = rounds.len();
    // Interquartile mean over rounds of a per-round figure, scaled to
    // reference host speed, and as measured.
    let mean = |f: &dyn Fn(&RoundStats) -> Option<f64>, rate: bool| -> (f64, f64) {
        let raw: Vec<f64> = stats.iter().filter_map(f).collect();
        let scaled: Vec<f64> = stats
            .iter()
            .filter_map(|s| f(s).map(|v| s.scaled(v, rate)))
            .collect();
        (iqm(&scaled), iqm(&raw))
    };
    let scaled = |raw: f64| format!(", at reference host speed; unscaled {raw:.6}");
    let count = |k: usize| stats.iter().map(|s| s.counts[k]).sum::<usize>();
    let (reads, writes) = (count(0), count(1));
    let (v, raw) = mean(&|s| Some(s.ops_per_s), true);
    let mut m = vec![Metric::new(
        "ops_per_s",
        "1/s",
        v,
        format!(
            "interquartile mean of {n_rounds} rounds, {} ops{}",
            reads + writes,
            scaled(raw)
        ),
    )];
    for (k, name) in ["read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"]
        .into_iter()
        .enumerate()
    {
        let (v, raw) = mean(&|s| s.wall_us[k], false);
        m.push(Metric::new(
            name,
            "us",
            v,
            format!(
                "interquartile mean of {n_rounds} rounds' percentiles, {} samples{}",
                if k < 2 { reads } else { writes },
                scaled(raw)
            ),
        ));
    }

    // Simulated clock: the first STREAMS rounds, replayed back to back
    // open-loop at the fixed offered rate.
    let samples: Vec<Sample> = rounds
        .iter()
        .take(STREAMS)
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let trace = sim_trace(&samples, spec);
    let replay = trace.replay(spec.rate_per_ks);
    let rate = spec.rate_per_ks as f64 / 1000.0;
    let sim_basis =
        |n: usize| format!("open loop at {rate} ops/s, {n} samples from {STREAMS} streams");
    let (sr, sw) = (replay.read.count, replay.write.count);
    m.push(Metric::new(
        "sim_read_p50_us",
        "us",
        replay.read.p50 as f64,
        sim_basis(sr),
    ));
    m.push(Metric::new(
        "sim_read_p99_us",
        "us",
        replay.read.p99 as f64,
        sim_basis(sr),
    ));
    m.push(Metric::new(
        "sim_write_p50_us",
        "us",
        replay.write.p50 as f64,
        sim_basis(sw),
    ));
    m.push(Metric::new(
        "sim_write_p99_us",
        "us",
        replay.write.p99 as f64,
        sim_basis(sw),
    ));
    m.push(Metric::new(
        "sim_capacity_ops_s",
        "1/s",
        sim_capacity(&trace, spec),
        format!(
            "doubling ladder from {} ops/s + bisection, p99 limit {} us, {} ops",
            spec.ladder_base_per_ks as f64 / 1000.0,
            spec.p99_limit_us,
            samples.len()
        ),
    ));
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    m.push(Metric::new(
        "space_amp",
        "ratio",
        per_round(&|r| r.space_amp),
        format!("median of {n_rounds} rounds, at end of window"),
    ));
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    m.push(Metric::new(
        "success_ratio",
        "ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        format!(
            "{} of {attempted} ops completed and verified",
            attempted - failed
        ),
    ));
    let (v, raw) = mean(&|s| Some(s.setup_s), false);
    m.push(Metric::new(
        "setup_s",
        "s",
        v,
        format!(
            "interquartile mean of {n_rounds} set-ups (format + seed + warm){}",
            scaled(raw)
        ),
    ));

    let flushes = count(2);
    if flushes > 0 {
        let (p50, _) = mean(&|s| s.wall_us[4], false);
        let (p99, _) = mean(&|s| s.wall_us[5], false);
        println!(
            "info flush: {flushes} flushes (not in ops_per_s or the read/write latencies); wall p50 {p50:.3} us, p99 {p99:.3} us (interquartile means over rounds); sim open loop p50 {} us, p99 {} us ({} samples)",
            replay.update.p50, replay.update.p99, replay.update.count
        );
    }
    self_checks(stats, &replay, spec);
    m
}

/// Prints the steadiness self-checks: the host's speed, first vs second
/// half of each window (a ramp shows as a gap), whether rounds of the
/// same stream repeat their simulated-clock digest exactly, and the
/// fixed-rate replay's backlog.
fn self_checks(stats: &[RoundStats], replay: &Replay, spec: &Spec) {
    let all = |f: &dyn Fn(&RoundStats) -> f64| stats.iter().map(f).collect::<Vec<_>>();
    let speeds = all(&|s| s.speed);
    println!(
        "selfcheck host speed: calibration / reference median {:.3} (min {:.3}, max {:.3}); unscaled ops_per_s median {:.1}",
        median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(0.0, f64::max),
        median(&all(&|s| s.ops_per_s)),
    );
    let half = |k: usize| median(&all(&|s| s.halves[k]));
    println!(
        "selfcheck halves: ops_per_s first {:.1} second {:.1} ({:+.1}%), wall p50 first {:.3} us second {:.3} us",
        half(0),
        half(1),
        100.0 * (half(1) / half(0) - 1.0),
        half(2),
        half(3),
    );
    let firsts: Vec<u64> = stats.iter().take(STREAMS).map(|s| s.digest).collect();
    let repeats = stats
        .iter()
        .skip(STREAMS)
        .filter(|s| s.digest == firsts[s.stream])
        .count();
    let digest = firsts.iter().fold(fnv_start(), |mut h, d| {
        fnv1a(&mut h, &d.to_le_bytes());
        h
    });
    println!(
        "selfcheck sim_digest: {digest:016x}; {repeats} of {} repeated rounds match their stream's first digest exactly",
        stats.len().saturating_sub(STREAMS)
    );
    let ratio = replay.achieved_per_ks as f64 / replay.offered_per_ks as f64;
    println!(
        "selfcheck backlog at {} ops/s: achieved/offered {ratio:.4} ({}); generator lateness 0 us (simulated arrivals are exact)",
        spec.rate_per_ks as f64 / 1000.0,
        if keeps_up(replay) {
            "no growing backlog"
        } else {
            "BACKLOG GROWS: offered rate is above capacity"
        }
    );
}

/// Prints each metric with its unit and basis, then the final JSON line.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.basis);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
