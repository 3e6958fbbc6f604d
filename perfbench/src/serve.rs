//! `serve_open` and `serve_closed`: the committed serve mix through the
//! runtime's streaming front end.
//!
//! The mix is the one the committed serve reports run: auto-planned jobs
//! with stencil programs and kernel-IR jobs mixed in, two tenants, the DDR
//! device profile and 10% shadow verification, with fewer programs (see
//! [`jobs`]). The jobs come from `synthetic_workload` at the committed
//! seed, so every run offers the same work; `--seed` draws the arrival times and shuffles the order
//! within small blocks. The job seed also decides which jobs the runtime
//! shadows and which plans explore, so drawing it per run would change
//! the work itself. Impossible one-millisecond deadlines, which the mix
//! carries to test the timeout path, are cleared so that no job is meant
//! to fail.
//!
//! - Open loop: one submitter offers jobs on an exponential schedule at
//!   [`OPEN_RATE`] jobs/s and one receiver takes results off the stream.
//!   Latency runs from when a job was due to when its result arrived.
//! - Closed loop: one thread keeps [`IN_FLIGHT`] jobs in flight and
//!   submits the next job when a result arrives.

use crate::stats::{median, percentile, ratio};
use crate::{Args, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stencil_runtime::workload::XorShift64;
use stencil_runtime::{
    synthetic_workload, validate_trace_file, ArrivalGaps, DeviceProfile, JobResult, JobSpec,
    Outcome as JobOutcome, PlanMode, ResultSender, ResultStream, Runtime, RuntimeConfig,
    ServeReport, SyntheticParams, TraceRecord,
};

/// Open-loop offered rate, jobs/s: about half of the closed-loop capacity
/// measured for the committed mix on a 2-core machine (see README.md); a
/// 25 s window then holds 1000 jobs, ten of them beyond the p99.
const OPEN_RATE: f64 = 40.0;
/// Jobs the closed loop keeps in flight (far below the queue capacity).
const IN_FLIGHT: usize = 32;
/// Seed of the job shapes; the committed serve reports use the same one.
const MIX_SEED: u64 = 42;
/// Admission queue capacity and workers per backend shard, as committed.
const QUEUE_CAPACITY: usize = 256;
const WORKERS_PER_SHARD: usize = 2;
/// An open-loop run whose generator lagged its schedule by more than two
/// mean gaps at p99 did not offer the load it claims, and is invalid.
/// Smaller lags are scheduler noise; latency counts them either way,
/// since it runs from when a job was due.
const LAG_TOLERANCE_MS: f64 = 2000.0 / OPEN_RATE;
/// Longest wait for any one result before the run is declared wedged.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);
/// Seconds each pass runs before its measured window opens, so the plan
/// cache, pools and memos are warm.
const WARMUP_S: f64 = 5.0;
/// Slices of the measured window the closed loop's throughput is the
/// median over.
const SUB_WINDOWS: usize = 5;
/// Jobs a seed may reorder among themselves.
const SHUFFLE_BLOCK: usize = 16;
/// Jobs generated per second of measurement: well above any capacity.
const JOBS_PER_SECOND_BOUND: f64 = 250.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    Open,
    Closed,
}

/// The job stream, in an order `seed` shuffles within consecutive blocks
/// of [`SHUFFLE_BLOCK`] jobs, so every seed offers the same work in a
/// different interleaving.
///
/// The committed mix makes exactly half of its jobs programs, which run
/// for tens to hundreds of milliseconds on both cores, against a few
/// milliseconds for single-kernel jobs. A median over such a mix sits on
/// the edge between the two and swung by half between runs. The closed
/// loop therefore leaves out every other program job (the kept ones
/// alternate between the two tenants), so its median falls among the
/// single-kernel jobs. The open loop leaves programs out altogether: a
/// single-kernel job's latency then depends on its own work, not on
/// whether a program happened to hold both cores when it arrived.
fn jobs(seed: u64, n: usize, mode: Loop) -> Vec<JobSpec> {
    let mut params = SyntheticParams::new(n, MIX_SEED, false);
    params.tenants = 2;
    params.programs = mode == Loop::Closed;
    params.kernels = true;
    let mut specs = synthetic_workload(&params);
    specs.retain(|s| s.program.is_none() || (s.id % 4 == 1) == (s.id / 4 % 2 == 0));
    for spec in &mut specs {
        spec.plan = PlanMode::Auto;
        if spec.deadline_ms == 1 {
            spec.deadline_ms = 0;
        }
    }
    let mut rng = XorShift64::new(seed ^ 0x005e_ed0f_b10c);
    for block in specs.chunks_mut(SHUFFLE_BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
    }
    specs
}

fn config(trace_out: Option<PathBuf>) -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: QUEUE_CAPACITY,
        workers_per_shard: WORKERS_PER_SHARD,
        shadow_percent: 10,
        device: DeviceProfile::Ddr,
        trace_out,
        ..RuntimeConfig::default()
    }
}

/// The submitting side of a pass: the runtime, our end of the result
/// stream, and the submit spans.
struct Client {
    rt: Runtime,
    tx: ResultSender,
    submit_us: Vec<f64>,
    refused: Vec<String>,
}

impl Client {
    fn submit(&mut self, spec: &JobSpec) -> bool {
        let t = Instant::now();
        let r = self.rt.submit_streaming(spec.clone(), &self.tx);
        self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        r.map_err(|e| self.refused.push(format!("job {}: refused: {e}", spec.id)))
            .is_ok()
    }
}

/// One job's trip through a pass.
struct Sample {
    result: JobResult,
    /// When the job was due (open loop) or submitted (closed loop), s
    /// since the pass began.
    sent_s: f64,
    /// When its result arrived, s since the pass began.
    arrived_s: f64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.arrived_s - self.sent_s) * 1e3
    }
}

/// Everything one runtime lifetime produced.
struct Pass {
    /// Every admitted job, in arrival order.
    samples: Vec<Sample>,
    /// The measured window `[warm-up end, submission end]`, s.
    window: (f64, f64),
    /// First submission to the end of the drain, s.
    wall_s: f64,
    submit_us: Vec<f64>,
    /// How late the open-loop generator submitted each job, ms.
    lag_ms: Vec<f64>,
    report: ServeReport,
    batched_jobs: u64,
    workers: usize,
    trace: Vec<TraceRecord>,
}

impl Pass {
    /// Jobs sent inside the measured window.
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| s.sent_s >= self.window.0 && s.sent_s <= self.window.1)
    }

    fn latencies(&self) -> Vec<f64> {
        self.measured().map(Sample::latency_ms).collect()
    }

    /// `(jobs, cells)` completed per second: the median over `slices`
    /// equal slices of the measured window, so on the closed loop a burst
    /// of host noise in one slice does not move the result. The open
    /// loop's rate is set by its schedule and takes one slice.
    fn throughput(&self, slices: usize) -> (f64, f64) {
        let (start, end) = self.window;
        let slice = (end - start) / slices as f64;
        let mut jobs = vec![0.0; slices];
        let mut cells = vec![0.0; slices];
        for s in &self.samples {
            if s.result.outcome == JobOutcome::Completed && s.arrived_s >= start {
                let k = ((s.arrived_s - start) / slice) as usize;
                if k < slices {
                    jobs[k] += 1.0 / slice;
                    cells[k] += s.result.cells_updated as f64 / slice;
                }
            }
        }
        (median(&jobs), median(&cells))
    }
}

/// Where a traced pass writes its trace: inside the benchmark's own
/// directory, removed once read.
fn trace_path() -> PathBuf {
    PathBuf::from(format!("perfbench/.tmp/trace-{}.jsonl", std::process::id()))
}

/// Validates the trace file the runtime wrote, reads its records, and
/// removes it.
fn read_trace(path: &Path, out: &mut Outcome) -> Vec<TraceRecord> {
    if let Err(why) = validate_trace_file(path) {
        out.fail(format!("trace: {why}"));
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
    text.lines()
        .filter(|l| !l.contains("\"trace_footer\""))
        .filter_map(|l| serde_json::from_str::<TraceRecord>(l).ok())
        .collect()
}

/// The open loop's receiver thread: each result with its arrival time.
type Receiver = std::thread::JoinHandle<Vec<(JobResult, f64)>>;

/// Open loop: submit on schedule from this thread while another receives.
/// Offers exactly `OPEN_RATE × end_s` jobs: exponential gaps, rescaled to
/// end at `end_s`. Returns the receiver, each job's due time, and the
/// generator's lag behind the schedule.
fn open_loop(
    client: &mut Client,
    rx: ResultStream,
    specs: &[JobSpec],
    seed: u64,
    end_s: f64,
    start: Instant,
) -> (Receiver, HashMap<u64, f64>, Vec<f64>) {
    let n = ((OPEN_RATE * end_s).round() as usize).clamp(1, specs.len());
    let gaps: Vec<f64> = ArrivalGaps::new(seed, (1e6 / OPEN_RATE) as u64)
        .take(n)
        .map(|g| g as f64)
        .collect();
    let scale = end_s / gaps.iter().sum::<f64>().max(1.0);
    let receiver = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Some(r) = rx.recv() {
            got.push((r, start.elapsed().as_secs_f64()));
        }
        got
    });
    let mut due_s = HashMap::new();
    let mut lag_ms = Vec::with_capacity(n);
    let mut due = 0.0;
    for (spec, gap) in specs.iter().zip(&gaps) {
        let now = start.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        lag_ms.push((start.elapsed().as_secs_f64() - due) * 1e3);
        due_s.insert(spec.id, due);
        client.submit(spec);
        due += gap * scale;
    }
    (receiver, due_s, lag_ms)
}

/// Closed loop: keep `IN_FLIGHT` jobs in flight until `end_s`, then
/// collect the rest.
fn closed_loop(
    client: &mut Client,
    rx: &ResultStream,
    specs: &[JobSpec],
    end_s: f64,
    start: Instant,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut submitted_s = HashMap::new();
    let mut next = specs.iter();
    let mut in_flight = 0usize;
    let mut submit = |client: &mut Client, in_flight: &mut usize| {
        if let Some(spec) = next.next() {
            submitted_s.insert(spec.id, start.elapsed().as_secs_f64());
            *in_flight += usize::from(client.submit(spec));
        }
    };
    for _ in 0..IN_FLIGHT {
        submit(client, &mut in_flight);
    }
    let mut got = Vec::new();
    while in_flight > 0 {
        match rx.recv_timeout(RESULT_TIMEOUT) {
            Ok(Some(r)) => {
                let at = start.elapsed().as_secs_f64();
                got.push((r, at));
                in_flight -= 1;
                if at < end_s {
                    submit(client, &mut in_flight);
                }
            }
            Ok(None) => break,
            Err(()) => {
                out.fail(format!(
                    "no result within {RESULT_TIMEOUT:?}: runtime wedged"
                ));
                break;
            }
        }
    }
    got.into_iter()
        .map(|(result, arrived_s)| Sample {
            sent_s: submitted_s[&result.id],
            result,
            arrived_s,
        })
        .collect()
}

/// Runs one pass of `mode` on a started runtime: a warm-up, then
/// `budget_s` measured seconds, then a drain.
fn pass(
    mode: Loop,
    rt: Runtime,
    specs: &[JobSpec],
    seed: u64,
    budget_s: f64,
    trace_out: Option<PathBuf>,
    out: &mut Outcome,
) -> Pass {
    let workers = config(None).backends.len() * WORKERS_PER_SHARD;
    let (tx, rx) = ResultStream::bounded(QUEUE_CAPACITY);
    let mut client = Client {
        rt,
        tx,
        submit_us: Vec::new(),
        refused: Vec::new(),
    };
    let window = (WARMUP_S, WARMUP_S + budget_s);
    let start = Instant::now();
    let (closed, open, lag_ms) = match mode {
        Loop::Open => {
            let (receiver, due_s, lag_ms) =
                open_loop(&mut client, rx, specs, seed, window.1, start);
            (None, Some((receiver, due_s)), lag_ms)
        }
        Loop::Closed => {
            let closed = closed_loop(&mut client, &rx, specs, window.1, start, out);
            (Some(closed), None, Vec::new())
        }
    };
    // Once the runtime drains every admitted job is terminal; dropping our
    // sender then ends the open-loop receiver's stream.
    let Client {
        rt,
        tx,
        submit_us,
        refused,
    } = client;
    let metrics = Arc::clone(rt.metrics());
    let planner = Arc::clone(rt.planner());
    let drained = rt.drain();
    drop(tx);
    let wall_s = start.elapsed().as_secs_f64();
    let samples: Vec<Sample> = match (closed, open) {
        (Some(closed), _) => closed,
        (None, Some((receiver, due_s))) => receiver
            .join()
            .expect("receiver thread")
            .into_iter()
            .map(|(result, arrived_s)| Sample {
                sent_s: due_s[&result.id],
                result,
                arrived_s,
            })
            .collect(),
        (None, None) => unreachable!("every mode yields results"),
    };
    let offered = samples.len() + refused.len();
    let report = ServeReport::build(
        "synthetic",
        MIX_SEED,
        false,
        DeviceProfile::Ddr,
        offered,
        &drained.results,
        &metrics,
        &planner.snapshot(),
        &planner.plan_history(),
        &drained.tenants,
        drained.steals,
        drained.wedged_workers,
        drained.wall_seconds,
    );

    out.attempted += offered as u64;
    out.failed += refused.len() as u64;
    for why in refused {
        out.fail(why);
    }
    if mode == Loop::Closed && report.jobs_rejected > 0 {
        out.fail(format!(
            "closed loop met {} queue-full rejections; it must stay below capacity",
            report.jobs_rejected
        ));
    }
    if report.shadow_mismatches > 0 || report.wedged_workers > 0 {
        out.fail(format!(
            "{} shadow mismatches, {} wedged workers",
            report.shadow_mismatches, report.wedged_workers
        ));
    }
    if drained.results.len() != samples.len() || report.terminal_jobs() != report.jobs_admitted {
        out.fail(format!(
            "{} admitted, {} terminal, {} streamed: results were lost",
            report.jobs_admitted,
            report.terminal_jobs(),
            samples.len()
        ));
    }
    for r in samples.iter().map(|s| &s.result) {
        if r.outcome != JobOutcome::Completed || r.shadow_match == Some(false) {
            out.failed += 1;
            out.fail(format!(
                "job {}: {:?}, shadow {:?}",
                r.id, r.outcome, r.shadow_match
            ));
        }
    }
    let lag_p99 = percentile(&lag_ms, 0.99);
    if mode == Loop::Open && lag_p99 > LAG_TOLERANCE_MS {
        out.fail(format!(
            "invalid run: the generator lagged {lag_p99:.1} ms at p99 (tolerance {LAG_TOLERANCE_MS} ms)"
        ));
    }
    let trace = trace_out.map_or_else(Vec::new, |p| read_trace(&p, out));
    if !trace.is_empty() && trace.len() != samples.len() {
        out.fail(format!(
            "{} trace records for {} results",
            trace.len(),
            samples.len()
        ));
    }
    Pass {
        samples,
        window,
        wall_s,
        submit_us,
        lag_ms,
        batched_jobs: metrics.counter("batched_jobs").get(),
        workers,
        report,
        trace,
    }
}

/// Starts a runtime; a traced one writes its trace file.
fn start_runtime(traced: bool) -> (Runtime, Option<PathBuf>) {
    let trace_out = traced.then(trace_path);
    if let Some(p) = &trace_out {
        std::fs::create_dir_all(p.parent().expect("trace file has a directory"))
            .expect("the benchmark directory is writable");
    }
    (Runtime::start(config(trace_out.clone())), trace_out)
}

pub fn run(args: &Args, mode: Loop) -> Outcome {
    let mut out = Outcome::default();
    let n = (JOBS_PER_SECOND_BOUND * (WARMUP_S + args.seconds)) as usize + IN_FLIGHT;

    // Set-up: start the runtime and synthesize the job stream, several
    // times; the median is reported and the last runtime is kept.
    let mut setups = Vec::new();
    let mut runtime: Option<Runtime> = None;
    let mut specs = Vec::new();
    for _ in 0..5 {
        if let Some(idle) = runtime.take() {
            idle.drain();
        }
        let t = Instant::now();
        runtime = Some(start_runtime(false).0);
        specs = jobs(args.seed, n, mode);
        setups.push(t.elapsed().as_secs_f64());
    }
    let rt = runtime.expect("set-up ran");

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = pass(mode, rt, &specs, args.seed, budget, None, &mut out);
    if !args.trace {
        let latency = untraced.latencies();
        let slices = if mode == Loop::Closed { SUB_WINDOWS } else { 1 };
        let (jobs_per_s, cells_per_s) = untraced.throughput(slices);
        out.put("setup_s", median(&setups));
        out.put("cells_per_s", cells_per_s);
        out.put("jobs_per_s", jobs_per_s);
        out.put("latency_p50_ms", percentile(&latency, 0.5));
        out.put("latency_p99_ms", percentile(&latency, 0.99));
        out.put("wall_s", untraced.wall_s);
        return out;
    }

    let (rt, trace_out) = start_runtime(true);
    let traced = pass(mode, rt, &specs, args.seed, budget, trace_out, &mut out);
    compare_checksums(&untraced, &traced, &mut out);
    layer_metrics(mode, &specs, &untraced, &traced, &mut out);
    out
}

/// Every job completed in both passes must carry the same checksum: the
/// engines are bit-exact, so the checksum does not depend on the plan.
fn compare_checksums(a: &Pass, b: &Pass, out: &mut Outcome) {
    let completed = |p: &Pass| -> Vec<(u64, Option<u64>)> {
        p.samples
            .iter()
            .filter(|s| s.result.outcome == JobOutcome::Completed)
            .map(|s| (s.result.id, s.result.checksum))
            .collect()
    };
    let first: HashMap<u64, Option<u64>> = completed(a).into_iter().collect();
    for (id, checksum) in completed(b) {
        if let Some(&c) = first.get(&id) {
            if c != checksum {
                out.failed += 1;
                out.fail(format!(
                    "job {id}: checksum {c:?} untraced vs {checksum:?} traced"
                ));
            }
        }
    }
}

fn layer_metrics(mode: Loop, specs: &[JobSpec], untraced: &Pass, traced: &Pass, out: &mut Outcome) {
    let by_id: HashMap<u64, &JobSpec> = specs.iter().map(|s| (s.id, s)).collect();
    let done: Vec<&TraceRecord> = traced
        .trace
        .iter()
        .filter(|r| r.outcome == "Completed")
        .collect();
    let exec_ms: Vec<f64> = done.iter().map(|r| r.exec_span_ms()).collect();
    let shadow_ms: Vec<f64> = done.iter().filter_map(|r| r.shadow_ms).collect();
    let exec_total: f64 = exec_ms.iter().sum();
    let shadow_total: f64 = shadow_ms.iter().sum();
    let (star_cells, star_ms) = done
        .iter()
        .filter(|r| {
            r.backend == "functional"
                && by_id
                    .get(&r.id)
                    .is_some_and(|s| s.kernel.is_none() && s.program.is_none())
        })
        .fold((0.0, 0.0), |(c, t), r| {
            (c + r.cells as f64, t + r.exec_span_ms())
        });
    let program_ms: f64 = done
        .iter()
        .filter(|r| r.program_nodes > 0)
        .map(|r| r.exec_span_ms())
        .sum();
    let planned: Vec<f64> = traced
        .trace
        .iter()
        .filter(|r| r.provenance != "explicit")
        .map(|r| r.plan_ms)
        .collect();
    let queue_wait: Vec<f64> = traced.trace.iter().map(|r| r.queue_wait_ms).collect();
    let stream_ms: Vec<f64> = traced.trace.iter().filter_map(|r| r.stream_ms).collect();
    let mut per_tenant: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in traced.measured() {
        per_tenant
            .entry(s.result.tenant.as_str())
            .or_default()
            .push(s.latency_ms());
    }
    let tenant_p99: Vec<f64> = per_tenant.values().map(|l| percentile(l, 0.99)).collect();
    let spread = ratio(
        tenant_p99.iter().cloned().fold(0.0, f64::max),
        tenant_p99.iter().cloned().fold(f64::INFINITY, f64::min),
    );
    let r = &traced.report;
    let mem = &r.memory;

    out.put("worker.exec_p50_ms", percentile(&exec_ms, 0.5));
    out.put("worker.exec_p99_ms", percentile(&exec_ms, 0.99));
    out.put(
        "worker.busy_share",
        ratio(
            exec_total + shadow_total,
            traced.workers as f64 * r.wall_seconds * 1e3,
        ),
    );
    out.put(
        "worker.functional_cells_per_s",
        ratio(star_cells, star_ms / 1e3),
    );
    out.put("worker.program_exec_share", ratio(program_ms, exec_total));
    out.put("worker.retries", r.retries as f64);
    out.put(
        "shadow.share",
        ratio(shadow_total, exec_total + shadow_total),
    );
    out.put("shadow.runs", r.shadow_runs as f64);
    out.put("runtime.submit_p99_us", percentile(&traced.submit_us, 0.99));
    out.put("planner.plan_p99_ms", percentile(&planned, 0.99));
    out.put("planner.hit_rate", r.planner.hit_rate);
    out.put("queue.wait_p50_ms", percentile(&queue_wait, 0.5));
    out.put("queue.wait_p99_ms", percentile(&queue_wait, 0.99));
    out.put("queue.max_depth", r.max_queue_depth as f64);
    out.put(
        "batch.jobs_per_batch",
        ratio(traced.batched_jobs as f64, r.batches as f64),
    );
    out.put(
        "steal.hit_rate",
        ratio(r.scheduler.steal_hits as f64, r.scheduler.steals as f64),
    );
    out.put("steal.sweeps", r.scheduler.steals as f64);
    out.put("pool.hit_rate", mem.pool_hit_rate);
    out.put("memo.kernel_hit_rate", mem.kernel_memo_hit_rate);
    out.put(
        "memo.stencil_hit_rate",
        ratio(
            mem.stencil_memo_hits as f64,
            (mem.stencil_memo_hits + mem.stencil_memo_misses) as f64,
        ),
    );
    out.put(
        "pool.resident_high_water_mib",
        mem.pool_resident_bytes_high_water as f64 / (1024.0 * 1024.0),
    );
    out.put("stream.send_p99_ms", percentile(&stream_ms, 0.99));
    out.put("tenant.p99_spread", spread);
    if mode == Loop::Open {
        out.put("loadgen.lag_p99_ms", percentile(&traced.lag_ms, 0.99));
    }
    // Traced cost over untraced: median latency on the open loop (the
    // offered rate is fixed), time per completed job on the closed loop.
    let overhead = match mode {
        Loop::Open => ratio(median(&traced.latencies()), median(&untraced.latencies())),
        Loop::Closed => ratio(
            untraced.throughput(SUB_WINDOWS).0,
            traced.throughput(SUB_WINDOWS).0,
        ),
    };
    out.put("trace.overhead_share", overhead - 1.0);
}
