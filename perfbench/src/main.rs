//! End-to-end and per-layer benchmark of the simulated cluster cache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_shared|coop_spread|tenant_rw|node_storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics (medians over the repetitions). `--trace 1` makes a
//! separate traced run and prints the per-layer metrics. Both check every
//! repetition's outputs. The last line of standard output is the result
//! as one JSON object; see `perfbench/README.md` for what each metric
//! means and which layer it belongs to.

mod des;
mod driver;
mod metrics;
mod probes;
mod storm;

use des::DesWorkload;
use metrics::{Layers, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Des(DesWorkload),
    NodeStorm,
}

const WORKLOADS: &[(&str, Workload)] = &[
    ("paper_shared", Workload::Des(DesWorkload::PaperShared)),
    ("coop_spread", Workload::Des(DesWorkload::CoopSpread)),
    ("tenant_rw", Workload::Des(DesWorkload::TenantRw)),
    ("node_storm", Workload::NodeStorm),
];

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One invocation's outcome, before it is printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, empty when every output was correct.
    pub problems: Vec<String>,
    pub metrics: Layers,
    /// Worker threads the measurement ran on.
    pub threads: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = match (args.workload, args.trace) {
        (Workload::Des(w), false) => driver::des_end_to_end(w, args.seed, args.seconds),
        (Workload::Des(w), true) => driver::des_traced(w, args.seed, args.seconds),
        (Workload::NodeStorm, trace) => storm::run(args.seed, args.seconds, trace, cpus),
    };
    out.metrics.set("host.cpus", cpus as f64);
    out.metrics.set("host.threads", out.threads as f64);
    out.metrics.set("error_rate", metrics::ratio(out.failed, out.attempted));
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, problems) = metrics::result_line(
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        spec,
        &out.metrics,
    );
    for p in out.problems.iter().chain(&problems) {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "# workload={} seed={} trace={} cpus={cpus} threads={}",
        args.name,
        args.seed,
        u8::from(args.trace),
        out.threads
    );
    println!("{line}");
    ExitCode::SUCCESS
}
