//! End-to-end and per-layer benchmark of the RHODOS stack.
//!
//! ```text
//! steadybench --workload <hot_small|cold_stream|commit_heavy> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one driver thread. A run repeats *rounds* until
//! `--seconds` have passed (at least one per op stream): each round
//! formats a fresh system, seeds and warms it (timed as `setup_s`), then
//! drives a seeded op stream through the public APIs in a closed loop and
//! checks every output against a model. Wall-clock metrics are
//! interquartile means over the rounds; `sim_*` metrics replay the
//! measured simulated service times open-loop at the workload's fixed
//! rate. `--trace 1` instead runs the
//! layer ladder of `ladder.rs` and prints the per-layer metrics. See
//! `NOTES.md` beside this crate.

mod cold;
mod commit;
mod hot;
mod ladder;
mod layers;
mod report;
mod round;
mod stats;
mod trace;

use report::{Metric, RoundStats};
use round::{Round, STREAMS};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Repeats `round` (on streams 0, 1, ..) until `seconds` have passed and
/// every stream ran once, reducing each round as it ends. Only the first
/// [`STREAMS`] rounds keep their samples, for the simulated replay. The
/// calibration kernel runs between rounds; each round is scaled by the
/// mean of the timings on either side of it.
fn rounds(seconds: f64, mut round: impl FnMut(usize) -> Round) -> (Vec<Round>, Vec<RoundStats>) {
    let t = Instant::now();
    let (mut out, mut stats) = (Vec::new(), Vec::new());
    let mut before = stats::slowness();
    while out.len() < STREAMS || t.elapsed().as_secs_f64() < seconds {
        let mut r = round(out.len() % STREAMS);
        let after = stats::slowness();
        let speed = (before + after) / 2.0;
        before = after;
        stats.push(report::summarize(&r, out.len() % STREAMS, speed));
        if out.len() >= STREAMS {
            r.samples = Vec::new();
        }
        out.push(r);
    }
    (out, stats)
}

fn measure(args: &Args) -> Result<(Vec<Round>, Vec<Metric>), String> {
    let s = args.seconds;
    let (spec, (rounds, stats)) = match args.workload.as_str() {
        "hot_small" => {
            let inp = hot::inputs(args.seed);
            (hot::SIM, rounds(s, |k| hot::round(&inp, k, None)))
        }
        "cold_stream" => {
            let inp = cold::inputs(args.seed);
            (cold::SIM, rounds(s, |k| cold::round(&inp, k, None)))
        }
        "commit_heavy" => {
            let inp = commit::inputs(args.seed);
            (commit::SIM, rounds(s, |k| commit::round(&inp, k, None)))
        }
        other => return Err(format!("unknown workload {other}")),
    };
    // Read before the analysis, whose replay buffers are the
    // benchmark's own.
    let rss = stats::peak_rss_mb();
    let mut m = report::end_to_end(&rounds, &stats, &spec);
    m.push(Metric::new(
        "peak_rss_mb",
        "MB",
        rss,
        "VmHWM over the rounds".into(),
    ));
    Ok((rounds, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steadybench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "steadybench workload={} seed={} seconds={} trace={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        ladder::run(&args.workload, args.seed, args.seconds)
    } else {
        measure(&args)
    };
    let (rounds, metrics) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("steadybench: {e}");
            return ExitCode::from(2);
        }
    };
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let errors: Vec<&String> = rounds.iter().flat_map(|r| &r.errors).collect();
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    report::emit(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
