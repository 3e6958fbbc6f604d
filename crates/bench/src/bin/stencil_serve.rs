//! Load-test driver for the `stencil-runtime` job-serving layer.
//!
//! ```text
//! stencil_serve --synthetic [--jobs N] [--seed S] [--quick]
//!               [--shadow-pct P] [--queue-cap C] [--workers W]
//!               [--auto-plan] [--plan-explain] [--device ddr|hbm]
//!               [--tenants N] [--tenant-weight NAME=W] [--tenant-cap NAME=C]
//!               [--mean-arrival-us U] [--stream-out FILE|-]
//!               [--fairness-ratio F] [--programs] [--kernels]
//!               [--out BENCH_serve.json]
//! stencil_serve --workload FILE.jsonl [--out FILE]
//! stencil_serve --synthetic --emit-workload FILE.jsonl [--jobs N] [--seed S]
//! stencil_serve --check-report FILE [--min-pool-hit-rate F] [--min-warm-convergence F]
//!               [--min-kernel-cache-hit-rate F]
//! stencil_serve --diff-winners A.json B.json
//! stencil_serve --check-trace FILE.jsonl
//! stencil_serve --trace-summary FILE.jsonl
//! ```
//!
//! `--synthetic` generates a seeded, deterministic open-loop workload
//! (exponential inter-arrival gaps) covering every backend, both
//! dimensionalities, a spread of radii/priorities, forced shadow
//! verification, injected transient failures, and near-impossible
//! deadlines; `--workload` replays a JSONL file instead (one
//! [`stencil_runtime::JobSpec`] per line). A replay file is checked whole
//! before the runtime starts: the first line that does not parse, or that
//! admission would refuse, exits 2 naming `file:line`, so no job runs.
//! Either way the driver submits every job through the bounded admission
//! queue, drains the runtime, and writes a
//! [`stencil_runtime::ServeReport`] to `--out`.
//!
//! `--auto-plan` switches every job to [`stencil_runtime::PlanMode::Auto`]:
//! the runtime's model-guided planner picks the backend and block
//! configuration per job, refining its choice from measured throughput.
//! `--plan-explain` additionally dumps each shape class's ranked candidate
//! table after the run. `--device` selects the memory profile the planner
//! models: `ddr` (Arria 10, two channels, the default) confines every shape
//! to a single deep-temporal chain, while `hbm` (Stratix 10 MX, 32
//! channels) opens the hybrid replicas-by-partime axis.
//!
//! The admission front-end is asynchronous and multi-tenant. `--tenants N`
//! spreads the synthetic workload round-robin over N tenants
//! (`tenant-0..tenant-N-1`) scheduled by deficit-weighted round-robin;
//! `--tenant-weight` and `--tenant-cap` set a tenant's DWRR weight and
//! in-flight quota (quota rejections are counted separately from
//! queue-full). `--mean-arrival-us` overrides the open-loop mean
//! inter-arrival gap — the 10x/100x arrival-rate experiments in
//! EXPERIMENTS.md. `--stream-out FILE` (`-` = stdout) switches submission
//! to the non-blocking streaming path: every terminal result is emitted as
//! one JSON line the moment its shard finishes it, and the driver verifies
//! the stream delivered exactly one line per terminal job.
//! `--fairness-ratio F` gates the run on per-tenant p99 spread: the
//! slowest tenant's p99 must stay within `F×` the fastest's.
//!
//! `--programs` mixes multi-node stencil *programs* into the synthetic
//! stream (a heat→gradient 2D pipeline and a 3-stage seismic 3D pipeline
//! on half the job ids, spread across both tenant parities): each program
//! is placed across simulated devices by the planner, computed frame by
//! frame through the functional engine, bit-verified against the serial
//! program interpreter, and scheduled once by the deterministic
//! discrete-event cluster model (frames streaming through bounded
//! inter-device channels). The report's `dataflow` section compares the
//! pipelined makespan with the 1-device sequential one, the sum of the
//! stages' busy ticks. Also honored by `--emit-workload`, so program jobs
//! replay over `--workload`.
//!
//! `--kernels` mixes declarative *kernel-desc* jobs into the synthetic
//! stream (a quarter of the ids, disjoint from the `--programs` slice):
//! star/box/asymmetric tap families under clamp/periodic/reflective
//! boundaries, lowered at runtime by the kernel specializer, cached in the
//! compiled-kernel memo, and every one bit-verified against the frozen
//! generic-reference interpreter. `--check-report
//! --min-kernel-cache-hit-rate F` then gates on the report's
//! `memory.kernel_memo_hit_rate` — the CI assertion that repeated kernel
//! shapes actually reuse compiled kernels instead of re-specializing.
//!
//! `--trace-out FILE` makes the runtime emit one JSONL
//! [`stencil_runtime::TraceRecord`] per terminal job — span timestamps for
//! queue wait, planning, every execution attempt, shadow verification, and
//! stream delivery, plus tenant, backend, plan provenance, and placement —
//! closed by a footer carrying the record count. `--check-trace FILE`
//! re-validates such a file (span arithmetic, uniqueness, footer count;
//! exit 2 on any violation) and `--trace-summary FILE` prints nearest-rank
//! span percentiles from it. They are the report's own numbers: the
//! report's `queue_wait_ms`, `run_ms` and `total_ms` fold the same spans
//! with the same function, so `queue_wait`, `exec` and `total` match them.
//! `--planner-memory FILE`
//! persists the planner's measured-rate table to a checksummed sidecar at
//! drain and warm-starts the plan cache from it at boot (corrupt or
//! mismatched sidecars are rejected and counted, never fatal);
//! `--check-report --min-warm-convergence F` then gates on the report's
//! `trace.converged_at_fraction`: a warm-started run must reach its final
//! cache hit rate within the first `F` fraction of plan requests.
//!
//! `--diff-winners` compares the planner sections of two emitted reports
//! (e.g. a DDR run and an HBM run of the same workload) and exits 0 only
//! when at least one common shape class picked a different winning plan —
//! the CI assertion that the memory profile actually changes decisions.
//!
//! Exit status: 0 for a healthy run (zero shadow mismatches, zero wedged
//! workers, every admitted job terminal), 1 for an unhealthy one, 2 for
//! usage or validation errors — the same convention as
//! `stencil_bench --check-matrix`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;
use stencil_runtime::workload::{to_jsonl, ArrivalGaps, JsonlStream};
use stencil_runtime::{
    place_program, validate_report_json, validate_trace_file, DeviceProfile, JobSpec,
    LatencySummary, PlanMode, ResultStream, Runtime, RuntimeConfig, ServeReport, SubmitError,
    SyntheticParams, TenantPolicy,
};

#[derive(Debug)]
struct Args {
    synthetic: bool,
    jobs: usize,
    seed: u64,
    quick: bool,
    shadow_pct: u8,
    queue_cap: usize,
    workers: usize,
    auto_plan: bool,
    plan_explain: bool,
    device: DeviceProfile,
    out: String,
    workload: Option<String>,
    emit_workload: Option<String>,
    check: Option<String>,
    min_pool_hit_rate: Option<f64>,
    diff_winners: Option<(String, String)>,
    tenants: usize,
    programs: bool,
    kernels: bool,
    tenant_policy: TenantPolicy,
    mean_arrival_us: Option<u64>,
    stream_out: Option<String>,
    fairness_ratio: Option<f64>,
    trace_out: Option<String>,
    planner_memory: Option<String>,
    check_trace: Option<String>,
    trace_summary: Option<String>,
    min_warm_convergence: Option<f64>,
    min_kernel_cache_hit_rate: Option<f64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        synthetic: false,
        jobs: 500,
        seed: 42,
        quick: false,
        shadow_pct: 10,
        queue_cap: 256,
        workers: 2,
        auto_plan: false,
        plan_explain: false,
        device: DeviceProfile::default(),
        out: "BENCH_serve.json".into(),
        workload: None,
        emit_workload: None,
        check: None,
        min_pool_hit_rate: None,
        diff_winners: None,
        tenants: 1,
        programs: false,
        kernels: false,
        tenant_policy: TenantPolicy::default(),
        mean_arrival_us: None,
        stream_out: None,
        fairness_ratio: None,
        trace_out: None,
        planner_memory: None,
        check_trace: None,
        trace_summary: None,
        min_warm_convergence: None,
        min_kernel_cache_hit_rate: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).unwrap_or_else(|| usage()).clone()
        };
        match argv[i].as_str() {
            "--synthetic" => a.synthetic = true,
            "--jobs" => a.jobs = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quick" => a.quick = true,
            "--shadow-pct" => a.shadow_pct = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => a.queue_cap = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--workers" => a.workers = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--auto-plan" => a.auto_plan = true,
            "--plan-explain" => a.plan_explain = true,
            "--device" => {
                a.device = DeviceProfile::parse(&take(&mut i)).unwrap_or_else(|| usage());
            }
            "--out" => a.out = take(&mut i),
            "--workload" => a.workload = Some(take(&mut i)),
            "--emit-workload" => a.emit_workload = Some(take(&mut i)),
            "--check-report" => a.check = Some(take(&mut i)),
            "--diff-winners" => {
                let left = take(&mut i);
                let right = take(&mut i);
                a.diff_winners = Some((left, right));
            }
            "--tenants" => a.tenants = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--programs" => a.programs = true,
            "--kernels" => a.kernels = true,
            "--tenant-weight" => {
                let (name, w) = split_kv(&take(&mut i));
                let weight: u64 = w.parse().unwrap_or_else(|_| usage());
                if weight == 0 {
                    usage();
                }
                a.tenant_policy.overrides.entry(name).or_default().weight = weight;
            }
            "--tenant-cap" => {
                let (name, c) = split_kv(&take(&mut i));
                a.tenant_policy
                    .overrides
                    .entry(name)
                    .or_default()
                    .max_in_flight = c.parse().unwrap_or_else(|_| usage());
            }
            "--mean-arrival-us" => {
                let v: u64 = take(&mut i).parse().unwrap_or_else(|_| usage());
                if v == 0 {
                    usage();
                }
                a.mean_arrival_us = Some(v);
            }
            "--stream-out" => a.stream_out = Some(take(&mut i)),
            "--fairness-ratio" => {
                let v: f64 = take(&mut i).parse().unwrap_or_else(|_| usage());
                if !v.is_finite() || v < 1.0 {
                    usage();
                }
                a.fairness_ratio = Some(v);
            }
            "--min-pool-hit-rate" => {
                let v: f64 = take(&mut i).parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&v) {
                    usage();
                }
                a.min_pool_hit_rate = Some(v);
            }
            "--min-warm-convergence" => {
                let v: f64 = take(&mut i).parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&v) {
                    usage();
                }
                a.min_warm_convergence = Some(v);
            }
            "--min-kernel-cache-hit-rate" => {
                let v: f64 = take(&mut i).parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&v) {
                    usage();
                }
                a.min_kernel_cache_hit_rate = Some(v);
            }
            "--trace-out" => a.trace_out = Some(take(&mut i)),
            "--planner-memory" => a.planner_memory = Some(take(&mut i)),
            "--check-trace" => a.check_trace = Some(take(&mut i)),
            "--trace-summary" => a.trace_summary = Some(take(&mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    let modes = a.synthetic as usize
        + a.workload.is_some() as usize
        + a.check.is_some() as usize
        + a.diff_winners.is_some() as usize
        + a.check_trace.is_some() as usize
        + a.trace_summary.is_some() as usize;
    if modes != 1
        || a.jobs == 0
        || a.shadow_pct > 100
        || a.queue_cap == 0
        || a.workers == 0
        || a.tenants == 0
    {
        usage();
    }
    if (a.min_pool_hit_rate.is_some()
        || a.min_warm_convergence.is_some()
        || a.min_kernel_cache_hit_rate.is_some())
        && a.check.is_none()
    {
        usage();
    }
    // Trace emission and planner persistence only make sense on a run.
    let running = a.synthetic || a.workload.is_some();
    if (a.trace_out.is_some() || a.planner_memory.is_some()) && !running {
        usage();
    }
    // Program and kernel workloads are synthesized; replay files carry
    // their own program/kernel jobs inline.
    if (a.programs || a.kernels) && !a.synthetic {
        usage();
    }
    a
}

/// Splits a `NAME=VALUE` flag operand.
fn split_kv(arg: &str) -> (String, String) {
    match arg.split_once('=') {
        Some((k, v)) if !k.is_empty() => (k.to_string(), v.to_string()),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: stencil_serve --synthetic [--jobs N] [--seed S] [--quick] \
         [--shadow-pct P] [--queue-cap C] [--workers W] [--auto-plan] \
         [--plan-explain] [--device ddr|hbm] [--tenants N] [--programs] [--kernels] \
         [--tenant-weight NAME=W] [--tenant-cap NAME=C] [--mean-arrival-us U] \
         [--stream-out FILE|-] [--fairness-ratio F] [--trace-out FILE.jsonl] \
         [--planner-memory FILE] [--out FILE]\
         \n       stencil_serve --workload FILE.jsonl [--auto-plan] [--out FILE]\
         \n       stencil_serve --synthetic --emit-workload FILE.jsonl [--jobs N] [--seed S]\
         \n       stencil_serve --check-report FILE [--min-pool-hit-rate F] \
         [--min-warm-convergence F] [--min-kernel-cache-hit-rate F]\
         \n       stencil_serve --diff-winners A.json B.json\
         \n       stencil_serve --check-trace FILE.jsonl\
         \n       stencil_serve --trace-summary FILE.jsonl"
    );
    std::process::exit(2);
}

fn main() {
    let a = parse_args();
    if let Some(file) = &a.check {
        check_report(
            file,
            a.min_pool_hit_rate,
            a.min_warm_convergence,
            a.min_kernel_cache_hit_rate,
        );
        return;
    }
    if let Some((left, right)) = &a.diff_winners {
        diff_winners(left, right);
        return;
    }
    if let Some(file) = &a.check_trace {
        check_trace(file);
        return;
    }
    if let Some(file) = &a.trace_summary {
        trace_summary(file);
        return;
    }

    // Assemble the workload source. Synthetic workloads are generated in
    // memory; JSONL replays stream line-buffered off disk — the file is
    // never materialized, so a replay can be arbitrarily long.
    let mut params = SyntheticParams::new(a.jobs, a.seed, a.quick);
    params.tenants = a.tenants;
    params.programs = a.programs;
    params.kernels = a.kernels;
    if let Some(u) = a.mean_arrival_us {
        params.mean_arrival_us = u;
    }
    let auto_plan = a.auto_plan;
    let (kind, seed, specs): (&str, u64, Box<dyn Iterator<Item = JobSpec>>) =
        if let Some(file) = a.workload.clone() {
            check_workload(&file, auto_plan, a.device);
            let stream = workload_stream(&file).map(move |r| {
                r.unwrap_or_else(|(line, msg)| {
                    eprintln!("stencil_serve: {file}:{line}: {msg}");
                    std::process::exit(2);
                })
            });
            ("jsonl", 0, Box::new(stream))
        } else {
            let specs = stencil_runtime::synthetic_workload(&params);
            ("synthetic", a.seed, Box::new(specs.into_iter()))
        };
    let mut specs = specs.map(move |spec| as_submitted(spec, auto_plan));

    if let Some(file) = &a.emit_workload {
        let all: Vec<_> = specs.collect();
        if let Err(e) = std::fs::write(file, to_jsonl(&all)) {
            eprintln!("stencil_serve: cannot write {file}: {e}");
            std::process::exit(2);
        }
        println!("wrote {file} ({} job specs)", all.len());
        return;
    }

    println!(
        "stencil_serve: {kind} workload (seed {seed}{}), queue cap {}, \
         {} workers/shard, shadow {}%, device {}, mean arrival {} us{}{}{}{}{}",
        if a.quick { ", quick" } else { "" },
        a.queue_cap,
        a.workers,
        a.shadow_pct,
        a.device,
        params.mean_arrival_us,
        if a.auto_plan { ", auto-planned" } else { "" },
        if a.programs { ", programs" } else { "" },
        if a.kernels { ", kernels" } else { "" },
        if a.tenants > 1 {
            format!(", {} tenants", a.tenants)
        } else {
            String::new()
        },
        if a.stream_out.is_some() {
            ", streaming"
        } else {
            ""
        },
    );

    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: a.queue_cap,
        workers_per_shard: a.workers,
        shadow_percent: a.shadow_pct,
        device: a.device,
        tenants: a.tenant_policy.clone(),
        planner_memory: a.planner_memory.as_ref().map(PathBuf::from),
        trace_out: a.trace_out.as_ref().map(PathBuf::from),
        ..RuntimeConfig::default()
    });

    // Streaming mode: results flow over a bounded channel to a consumer
    // thread that emits one JSON line per terminal job as it completes.
    let streaming = a.stream_out.as_ref().map(|path| {
        let (tx, rx) = ResultStream::bounded(a.queue_cap.max(64));
        let sink: Box<dyn Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("stencil_serve: cannot write {path}: {e}");
                std::process::exit(2);
            }))
        };
        let consumer = std::thread::spawn(move || -> u64 {
            let mut w = std::io::BufWriter::new(sink);
            let mut lines = 0u64;
            for result in rx {
                let line = serde_json::to_string(&result).expect("result serializes");
                writeln!(w, "{line}").expect("stream sink writable");
                lines += 1;
            }
            w.flush().expect("stream sink flushes");
            lines
        });
        (tx, consumer)
    });

    // Open-loop submission: sleep the pre-drawn gap, then offer the job.
    // QueueFull (global backpressure) and QuotaExceeded (per-tenant cap)
    // are expected under burst — the runtime counts both rejections.
    let gaps = ArrivalGaps::new(a.seed, params.mean_arrival_us);
    let mut jobs_requested = 0usize;
    for (spec, gap_us) in (&mut specs).zip(gaps) {
        std::thread::sleep(Duration::from_micros(gap_us));
        jobs_requested += 1;
        let id = spec.id;
        let submitted = match &streaming {
            Some((tx, _)) => rt.submit_streaming(spec, tx),
            None => rt.submit(spec),
        };
        match submitted {
            Ok(_) | Err(SubmitError::QueueFull) | Err(SubmitError::QuotaExceeded { .. }) => {}
            Err(e) => {
                // Stop submitting, but let the admitted jobs finish first.
                eprintln!("stencil_serve: job {id}: unexpected refusal: {e}");
                rt.drain();
                std::process::exit(2);
            }
        }
    }
    if jobs_requested == 0 {
        eprintln!("stencil_serve: workload is empty");
        std::process::exit(2);
    }

    let metrics = std::sync::Arc::clone(rt.metrics());
    let planner = std::sync::Arc::clone(rt.planner());
    let outcome = rt.drain();
    // With the runtime drained every shard has sent its last reply; dropping
    // our sender closes the stream and the consumer reports its line count.
    let streamed = streaming.map(|(tx, consumer)| {
        drop(tx);
        consumer.join().expect("stream consumer")
    });
    let shapes = planner.snapshot();
    let history = planner.plan_history();
    let report = ServeReport::build(
        kind,
        seed,
        a.quick,
        a.device,
        jobs_requested,
        &outcome.results,
        &metrics,
        &shapes,
        &history,
        &outcome.tenants,
        outcome.steals,
        outcome.wedged_workers,
        outcome.wall_seconds,
    );
    print_summary(&report);
    if a.plan_explain {
        print_plan_tables(&shapes);
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&a.out, json + "\n") {
        eprintln!("stencil_serve: cannot write {}: {e}", a.out);
        std::process::exit(2);
    }
    println!("wrote {}", a.out);

    if let Some(lines) = streamed {
        let terminal = report.terminal_jobs();
        if lines != terminal {
            eprintln!(
                "stencil_serve: STREAM LOSS: {lines} streamed lines vs {terminal} terminal jobs"
            );
            std::process::exit(1);
        }
        println!("  stream: {lines} results delivered, zero loss");
    }

    // Re-validate the trace the runtime just wrote: every span checks out
    // and the record count equals the terminal job count — the lossless
    // trace-writer contract, proven from the file itself.
    if let Some(path) = &a.trace_out {
        match validate_trace_file(Path::new(path)) {
            Ok(stats) if stats.records == report.terminal_jobs() => {
                println!(
                    "  trace: {path}: {} records, one per terminal job, zero loss",
                    stats.records
                );
            }
            Ok(stats) => {
                eprintln!(
                    "stencil_serve: TRACE LOSS: {path} holds {} records vs {} terminal jobs",
                    stats.records,
                    report.terminal_jobs()
                );
                std::process::exit(1);
            }
            Err(msg) => {
                eprintln!("stencil_serve: {path}: {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Some(bound) = a.fairness_ratio {
        check_fairness(&report, bound);
    }

    if !report.healthy() {
        eprintln!(
            "stencil_serve: UNHEALTHY run ({} shadow mismatches, {} wedged workers, \
             {} admitted vs {} terminal)",
            report.shadow_mismatches,
            report.wedged_workers,
            report.jobs_admitted,
            report.terminal_jobs(),
        );
        std::process::exit(1);
    }
}

/// Opens a JSONL replay file as a line-buffered spec stream (exit 2 when
/// it cannot be read).
fn workload_stream(file: &str) -> JsonlStream<std::io::BufReader<std::fs::File>> {
    let f = std::fs::File::open(file).unwrap_or_else(|e| {
        eprintln!("stencil_serve: cannot read {file}: {e}");
        std::process::exit(2);
    });
    JsonlStream::new(std::io::BufReader::new(f))
}

/// A spec as the driver submits it: `--auto-plan` hands every job to the
/// planner.
fn as_submitted(mut spec: JobSpec, auto_plan: bool) -> JobSpec {
    if auto_plan {
        spec.plan = PlanMode::Auto;
    }
    spec
}

/// Refuses a replay file whole, before the runtime starts: one streaming
/// pass checks every line as it will be submitted with the checks
/// `Runtime::submit` makes before queueing a job (`JobSpec::validate`,
/// plus placement for program jobs), and exits 2 naming the first line
/// that fails. A file refused halfway through a run would leave the jobs
/// already admitted without a report.
fn check_workload(file: &str, auto_plan: bool, device: DeviceProfile) {
    let mut stream = workload_stream(file);
    while let Some(parsed) = stream.next() {
        let checked = parsed.and_then(|spec| {
            let spec = as_submitted(spec, auto_plan);
            spec.validate()
                .and_then(|()| match &spec.program {
                    Some(program) => place_program(device, &spec, program).map(drop),
                    None => Ok(()),
                })
                .map_err(|e| (stream.line(), e.to_string()))
        });
        if let Err((line, msg)) = checked {
            eprintln!("stencil_serve: {file}:{line}: {msg}");
            std::process::exit(2);
        }
    }
}

/// The `--fairness-ratio` gate: among tenants that completed work, the
/// slowest p99 must stay within `bound ×` the fastest p99 — the DWRR
/// starvation check. Exit 1 on violation; fewer than two tenants pass
/// trivially.
fn check_fairness(report: &ServeReport, bound: f64) {
    let p99s: Vec<(&str, f64)> = report
        .tenants
        .iter()
        .filter(|t| t.completed > 0)
        .map(|t| (t.tenant.as_str(), t.total_ms.p99_ms))
        .collect();
    if p99s.len() < 2 {
        println!("  fairness: fewer than two active tenants, gate passes trivially");
        return;
    }
    let max = p99s.iter().fold(f64::MIN, |m, (_, v)| m.max(*v));
    // Floor the denominator so an instant-finish tenant cannot demand an
    // infinite ratio of the others.
    let min = p99s.iter().fold(f64::MAX, |m, (_, v)| m.min(*v)).max(0.1);
    let ratio = max / min;
    if ratio > bound {
        eprintln!(
            "stencil_serve: FAIRNESS VIOLATION: tenant p99 spread {ratio:.2}x exceeds {bound:.2}x"
        );
        for (name, p99) in &p99s {
            eprintln!("    {name}: p99 {p99:.2} ms");
        }
        std::process::exit(1);
    }
    println!("  fairness: tenant p99 spread {ratio:.2}x within {bound:.2}x");
}

fn print_summary(r: &ServeReport) {
    println!(
        "  {} submitted: {} admitted, {} rejected (queue full), {} quota-rejected, {} invalid",
        r.jobs_submitted, r.jobs_admitted, r.jobs_rejected, r.jobs_quota_rejected, r.jobs_invalid
    );
    println!(
        "  outcomes: {} completed, {} failed, {} timed out, {} cancelled \
         ({} retries, {} batches)",
        r.jobs_completed, r.jobs_failed, r.jobs_timed_out, r.jobs_cancelled, r.retries, r.batches
    );
    println!(
        "  shadow: {} runs, {} mismatches; max queue depth {}; {} wedged workers",
        r.shadow_runs, r.shadow_mismatches, r.max_queue_depth, r.wedged_workers
    );
    println!(
        "  latency ms (total): p50 {:.2}, p95 {:.2}, p99 {:.2}, max {:.2}",
        r.total_ms.p50_ms, r.total_ms.p95_ms, r.total_ms.p99_ms, r.total_ms.max_ms
    );
    println!(
        "  throughput: {:.1} jobs/s, {:.3e} cells/s over {:.2}s",
        r.jobs_per_second, r.cells_per_second, r.wall_seconds
    );
    for b in &r.backends {
        println!(
            "    {:>10}: {} jobs ({} ok), run p95 {:.2} ms, {} shadow / {} mismatch",
            b.backend, b.jobs, b.completed, b.run_ms.p95_ms, b.shadow_runs, b.shadow_mismatches
        );
    }
    let m = &r.memory;
    println!(
        "  memory: pool {:.0}% hit ({} hits / {} misses), {} allocations avoided, \
         {:.1} MiB recycled, memo {} hits / {} misses",
        m.pool_hit_rate * 100.0,
        m.pool_hits,
        m.pool_misses,
        m.allocations_avoided,
        m.bytes_pooled as f64 / (1024.0 * 1024.0),
        m.stencil_memo_hits,
        m.stencil_memo_misses,
    );
    if m.kernel_memo_hits + m.kernel_memo_misses > 0 {
        println!(
            "  kernel cache: {:.0}% hit ({} hits / {} misses, {} evicted)",
            m.kernel_memo_hit_rate * 100.0,
            m.kernel_memo_hits,
            m.kernel_memo_misses,
            m.kernel_memo_evictions,
        );
    }
    for t in &r.tenants {
        println!(
            "    tenant {:>10} (w{}): {} admitted, {} quota-rejected, \
             {} completed, total p99 {:.2} ms",
            t.tenant, t.weight, t.admitted, t.rejected_quota, t.completed, t.total_ms.p99_ms
        );
    }
    println!(
        "  scheduler: DWRR quantum {} cells",
        r.scheduler.dwrr_quantum_cells
    );
    let d = &r.dataflow;
    if d.enabled {
        println!(
            "  dataflow: {}/{} programs, {} nodes on up to {} devices, \
             {} frames; pipelined {} ticks vs sequential {} ({:.2}x), \
             channel high water {}/{}",
            d.programs_completed,
            d.programs_requested,
            d.nodes_placed,
            d.devices_used_max,
            d.frames,
            d.pipelined_ticks,
            d.sequential_ticks,
            if d.pipelined_ticks > 0 {
                d.sequential_ticks as f64 / d.pipelined_ticks as f64
            } else {
                0.0
            },
            d.channel_high_water_max,
            d.channel_depth_max,
        );
        for s in &d.stages {
            println!(
                "    stage {}: {} cells over {} busy ticks ({:.1} cells/tick)",
                s.stage, s.cells_updated, s.busy_ticks, s.cells_per_tick
            );
        }
    }
    let p = &r.planner;
    if p.enabled {
        println!(
            "  planner: {} plans, {} hits / {} misses (hit rate {:.0}%), \
             {} feedback samples, {} shapes",
            p.plans_requested,
            p.cache_hits,
            p.cache_misses,
            p.hit_rate * 100.0,
            p.feedback_samples,
            p.shapes.len(),
        );
        let t = &r.trace;
        println!(
            "  warm start: {} shapes loaded, {} sidecars rejected, {} warm hits; \
             hit rate converged after {:.0}% of plans",
            t.warm_shapes_loaded,
            t.warm_rejected,
            t.warm_hits,
            t.converged_at_fraction * 100.0,
        );
    }
}

/// The `--plan-explain` dump: every shape class's ranked candidate table.
fn print_plan_tables(shapes: &[stencil_runtime::planner::ShapeSnapshot]) {
    println!("plan cache ({} shape classes):", shapes.len());
    for s in shapes {
        println!(
            "  {} — {} jobs planned, winner #{}, measured {:.3e} cells/s",
            s.key.label(),
            s.planned,
            s.best_index,
            s.mean_cells_per_sec,
        );
        for (i, c) in s.candidates.iter().enumerate() {
            println!(
                "    #{i}: {:>10} bsize {}x{} parvec {} partime {} replicas {}  score {:.3}{}",
                c.backend.name(),
                c.config.bsize_x,
                c.config.bsize_y,
                c.config.parvec,
                c.config.partime,
                c.replicas,
                c.score,
                if i == s.best_index { "  <- winner" } else { "" },
            );
        }
    }
}

/// Validates an emitted report file; exit 0 on success, 2 on any mismatch.
/// With `--min-pool-hit-rate F`, additionally requires the memory section's
/// pool hit rate to reach `F` — the CI gate that keeps the serving path
/// actually pooled. With `--min-warm-convergence F`, requires the run to
/// have warm-started from a planner-memory sidecar and reached its final
/// cache hit rate within the first `F` fraction of plan requests — the CI
/// gate that keeps the sidecar actually useful. With
/// `--min-kernel-cache-hit-rate F`, requires the compiled-kernel cache's
/// hit rate to reach `F` — the CI gate that keeps repeated kernel shapes
/// reusing compiled kernels instead of re-specializing.
fn check_report(
    path: &str,
    min_pool_hit_rate: Option<f64>,
    min_warm_convergence: Option<f64>,
    min_kernel_cache_hit_rate: Option<f64>,
) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stencil_serve: {path}: cannot read: {e}");
            std::process::exit(2);
        }
    };
    match validate_report_json(&text) {
        Ok(n) => println!("{path}: OK ({n} backend slices match the serve schema)"),
        Err(msg) => {
            eprintln!("stencil_serve: {path}: {msg}");
            std::process::exit(2);
        }
    }
    if let Some(min) = min_pool_hit_rate {
        // Validation above guarantees the report parses; re-read the rate.
        let report: ServeReport = serde_json::from_str(&text).expect("validated above");
        if report.memory.pool_hit_rate < min {
            eprintln!(
                "stencil_serve: {path}: pool hit rate {:.3} below required {min:.3}",
                report.memory.pool_hit_rate
            );
            std::process::exit(2);
        }
        println!(
            "{path}: pool hit rate {:.3} >= {min:.3}",
            report.memory.pool_hit_rate
        );
    }
    if let Some(max_fraction) = min_warm_convergence {
        let report: ServeReport = serde_json::from_str(&text).expect("validated above");
        let t = &report.trace;
        if t.warm_shapes_loaded == 0 {
            eprintln!(
                "stencil_serve: {path}: no planner-memory sidecar was loaded \
                 ({} rejected) — the run never warm-started",
                t.warm_rejected
            );
            std::process::exit(2);
        }
        if t.converged_at_fraction > max_fraction {
            eprintln!(
                "stencil_serve: {path}: hit rate only converged after {:.0}% of \
                 plans (required <= {:.0}%)",
                t.converged_at_fraction * 100.0,
                max_fraction * 100.0
            );
            std::process::exit(2);
        }
        println!(
            "{path}: warm start ({} shapes) converged after {:.0}% of plans (<= {:.0}%)",
            t.warm_shapes_loaded,
            t.converged_at_fraction * 100.0,
            max_fraction * 100.0
        );
    }
    if let Some(min) = min_kernel_cache_hit_rate {
        let report: ServeReport = serde_json::from_str(&text).expect("validated above");
        let m = &report.memory;
        if m.kernel_memo_hits + m.kernel_memo_misses == 0 {
            eprintln!(
                "stencil_serve: {path}: no compiled-kernel cache activity — \
                 the run never executed a kernel-desc job"
            );
            std::process::exit(2);
        }
        if m.kernel_memo_hit_rate < min {
            eprintln!(
                "stencil_serve: {path}: kernel cache hit rate {:.3} below required {min:.3}",
                m.kernel_memo_hit_rate
            );
            std::process::exit(2);
        }
        println!(
            "{path}: kernel cache hit rate {:.3} >= {min:.3}",
            m.kernel_memo_hit_rate
        );
    }
}

/// The `--check-trace` gate: the file must be a healthy trace — every line
/// parses at the current trace schema, every record's span arithmetic is
/// consistent, no job appears twice, and the closing footer's count matches
/// the records present. Exit 0 on success, 2 on any violation, mirroring
/// `--check-report`.
fn check_trace(path: &str) {
    match validate_trace_file(Path::new(path)) {
        Ok(stats) => println!(
            "{path}: OK ({} records, {} attempts, {} warm; \
             outcomes {}/{}/{}/{} completed/timed-out/cancelled/failed)",
            stats.records,
            stats.attempts,
            stats.warm,
            stats.by_outcome[0],
            stats.by_outcome[1],
            stats.by_outcome[2],
            stats.by_outcome[3],
        ),
        Err(msg) => {
            eprintln!("stencil_serve: {path}: {msg}");
            std::process::exit(2);
        }
    }
}

/// The `--trace-summary` view: validates the trace, then prints
/// nearest-rank percentiles over the per-record spans through
/// [`LatencySummary::from_samples`], the fold the serve report uses, so
/// `queue_wait`, `exec` and `total` equal the report's `queue_wait_ms`,
/// `run_ms` and `total_ms` for the same run. Exit 2 on an invalid trace.
fn trace_summary(path: &str) {
    let stats = match validate_trace_file(Path::new(path)) {
        Ok(stats) => stats,
        Err(msg) => {
            eprintln!("stencil_serve: {path}: {msg}");
            std::process::exit(2);
        }
    };
    println!(
        "{path}: {} records ({} completed, {} timed out, {} cancelled, {} failed), \
         {} attempts, {} warm-planned",
        stats.records,
        stats.by_outcome[0],
        stats.by_outcome[1],
        stats.by_outcome[2],
        stats.by_outcome[3],
        stats.attempts,
        stats.warm,
    );
    for (name, samples) in [
        ("queue_wait", &stats.queue_wait_ms),
        ("exec", &stats.exec_ms),
        ("total", &stats.total_ms),
    ] {
        let l = LatencySummary::from_samples(samples);
        println!(
            "  {name:>10} ms (exact): p50 {:.3}, p95 {:.3}, p99 {:.3}, max {:.3}",
            l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms,
        );
    }
}

/// The `--diff-winners` gate: both reports must validate, and at least one
/// shape class present in both must have picked a different winning plan.
/// Exit 0 when the profiles disagree somewhere, 1 when every common shape
/// class chose the same plan (or the reports share no shape classes), 2 on
/// unreadable or invalid input.
fn diff_winners(left_path: &str, right_path: &str) {
    let load = |path: &str| -> ServeReport {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stencil_serve: {path}: cannot read: {e}");
                std::process::exit(2);
            }
        };
        if let Err(msg) = validate_report_json(&text) {
            eprintln!("stencil_serve: {path}: {msg}");
            std::process::exit(2);
        }
        serde_json::from_str(&text).expect("validated above")
    };
    let left = load(left_path);
    let right = load(right_path);

    // Winning plan per shape class, keyed by the report's shape label.
    type Plan = (String, u64, u64, u64, u64, u64);
    let winners = |r: &ServeReport| -> Vec<(String, Plan)> {
        r.planner
            .shapes
            .iter()
            .map(|s| {
                (
                    s.key.clone(),
                    (
                        s.backend.clone(),
                        s.bsize_x,
                        s.bsize_y,
                        s.parvec,
                        s.partime,
                        s.replicas,
                    ),
                )
            })
            .collect()
    };
    let l = winners(&left);
    let r = winners(&right);

    let mut common = 0usize;
    let mut differing = 0usize;
    for (key, lw) in &l {
        let Some((_, rw)) = r.iter().find(|(k, _)| k == key) else {
            continue;
        };
        common += 1;
        if lw != rw {
            differing += 1;
            println!(
                "shape {key}: {} ({}) picked {}/{}x{}/pv{}/pt{}/r{} vs {} ({}) {}/{}x{}/pv{}/pt{}/r{}",
                left_path,
                left.device_profile,
                lw.0,
                lw.1,
                lw.2,
                lw.3,
                lw.4,
                lw.5,
                right_path,
                right.device_profile,
                rw.0,
                rw.1,
                rw.2,
                rw.3,
                rw.4,
                rw.5,
            );
        }
    }
    println!(
        "{differing} of {common} common shape classes picked different winners \
         ({left_path}: {}, {right_path}: {})",
        left.device_profile, right.device_profile
    );
    if common == 0 {
        eprintln!("stencil_serve: the reports share no shape classes");
        std::process::exit(1);
    }
    if differing == 0 {
        eprintln!("stencil_serve: the two profiles agreed on every common shape class");
        std::process::exit(1);
    }
}
