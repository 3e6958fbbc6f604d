//! The stencil stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve|serve_open|serve_closed|paper_table3 \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the repository's layers through their public
//! functions, checks every output, and prints one metric per line followed
//! by a final JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` runs the workload untraced and then traced, and reports the
//! per-layer metrics plus the tracing overhead. Any verification failure
//! exits with code 1. See `perfbench/README.md` for why each workload
//! exists and which layers it loads.

mod machine;
mod serve;
mod solve;
mod stats;
mod table3;

use std::process::ExitCode;

/// Where a metric's number comes from. Simulated quantities (simulated
/// cycles, modelled GFLOP/s) are correctness outputs and never metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall clock or resident memory.
    Measured,
    /// A count or a ratio of counts.
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Count => "count",
        }
    }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::Measured),
    ("cells_per_s", "1/s", Kind::Measured),
    ("jobs_per_s", "1/s", Kind::Measured),
    ("latency_p50_ms", "ms", Kind::Measured),
    ("latency_p99_ms", "ms", Kind::Measured),
    ("wall_s", "s", Kind::Measured),
    ("peak_rss_mib", "MiB", Kind::Measured),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reads 0 (README.md lists which workload fills which).
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("specialize.compile_us", "us", Kind::Measured),
    ("specialize.cells_per_s", "1/s", Kind::Measured),
    ("functional.cells_per_s", "1/s", Kind::Measured),
    ("functional.halo_share", "share", Kind::Count),
    ("functional.bytes_per_cell", "B", Kind::Count),
    ("cpu_engine.cells_per_s", "1/s", Kind::Measured),
    ("serial_ref.cells_per_s", "1/s", Kind::Measured),
    ("kernel_ir.reference_cells_per_s", "1/s", Kind::Measured),
    ("worker.exec_p50_ms", "ms", Kind::Measured),
    ("worker.exec_p99_ms", "ms", Kind::Measured),
    ("worker.busy_share", "share", Kind::Measured),
    ("worker.functional_cells_per_s", "1/s", Kind::Measured),
    ("worker.program_exec_share", "share", Kind::Measured),
    ("worker.retries", "count", Kind::Count),
    ("shadow.share", "share", Kind::Measured),
    ("shadow.runs", "count", Kind::Count),
    ("runtime.submit_p99_us", "us", Kind::Measured),
    ("planner.plan_p99_ms", "ms", Kind::Measured),
    ("planner.hit_rate", "share", Kind::Count),
    ("queue.wait_p50_ms", "ms", Kind::Measured),
    ("queue.wait_p99_ms", "ms", Kind::Measured),
    ("queue.max_depth", "count", Kind::Count),
    ("batch.jobs_per_batch", "count", Kind::Count),
    ("steal.hit_rate", "share", Kind::Count),
    ("steal.sweeps", "count", Kind::Count),
    ("pool.hit_rate", "share", Kind::Count),
    ("memo.kernel_hit_rate", "share", Kind::Count),
    ("memo.stencil_hit_rate", "share", Kind::Count),
    ("pool.resident_high_water_mib", "MiB", Kind::Count),
    ("stream.send_p99_ms", "ms", Kind::Measured),
    ("tenant.p99_spread", "ratio", Kind::Measured),
    ("tuner.tune_s", "s", Kind::Measured),
    ("synthesize.s", "s", Kind::Measured),
    ("timing.host_s", "s", Kind::Measured),
    ("model.estimate_us", "us", Kind::Measured),
    ("loadgen.lag_p99_ms", "ms", Kind::Measured),
    ("trace.overhead_share", "share", Kind::Measured),
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every verification passed.
    pub correct: bool,
    /// Operations offered (problems, jobs or table rows).
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// `(name, value)` pairs; names must appear in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the run failed verification, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// Records a verification failure (the run exits non-zero).
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: VERIFICATION FAILED: {why}");
        self.problems.push(why);
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["solve", "serve_open", "serve_closed", "paper_table3"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload = workload?;
    let seconds = seconds?;
    if !(WORKLOADS.contains(&workload.as_str()) && seconds > 0.0 && seconds <= 600.0) {
        return None;
    }
    Some(Args {
        workload,
        seed: seed?,
        seconds,
        trace: trace?,
    })
}

/// VmHWM of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    println!("machine: {}", machine::tag());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "solve" => solve::run(&args),
        "serve_open" => serve::run(&args, serve::Loop::Open),
        "serve_closed" => serve::run(&args, serve::Loop::Closed),
        _ => table3::run(&args),
    };
    if !args.trace {
        out.put("peak_rss_mib", peak_rss_mib());
    }
    out.correct = out.problems.is_empty();

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit, kind) in wanted {
        let value = out
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        println!("  {name:<34} {value:>16.6} {unit:<6} [{}]", kind.label());
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    println!(
        "  failed_share                       {:>16.6} share  [count] ({} of {} operations)",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Full-precision JSON number (non-finite values cannot be JSON; they read
/// as 0 and a verification failure is recorded by the workload instead).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
