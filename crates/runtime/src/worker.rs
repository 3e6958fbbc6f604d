//! The sharded worker pool and the runtime façade.
//!
//! [`Runtime::start`] spawns `workers_per_shard` std threads per configured
//! backend; each shard drains the shared [`AdmissionQueue`] for its own
//! backend only, so a slow backend can back up without starving the others
//! — the queue is shared (one admission-control point, one DWRR fairness
//! point, one capacity) but service is sharded, mirroring how the paper's
//! host dispatches work onto whatever compute is attached.
//!
//! Every worker in a shard runs the same loop: pop the next DWRR batch for
//! its backend, run each job in it, and sleep on the queue when there is
//! nothing for its backend. The queue is the only scheduler. A worker
//! holds only the batch it is running (under the serving default, at most
//! four small jobs), so little work can wait behind a busy sibling.
//! Submission is non-blocking ([`Runtime::submit`] returns a [`Ticket`]
//! immediately) and results can stream back per client over a bounded
//! [`crate::stream::ResultStream`] instead of waiting for drain.
//!
//! Per job, a shard:
//! 1. measures queue wait and drops jobs whose deadline expired while
//!    queued (they never run);
//! 2. executes the spec on its backend inside `catch_unwind` — a worker
//!    panic is a *transient job failure* absorbed at the shard boundary,
//!    retried on the [`crate::retry`] schedule with capped backoff, never
//!    a dead worker;
//! 3. polls the job's [`CancelToken`] (the functional block schedule and
//!    the grid-resident executor additionally poll it at every block or
//!    row band through their cancellation hooks);
//! 4. optionally re-executes the job on the frozen `serial_ref` oracle and
//!    bit-compares the outputs (shadow verification);
//! 5. records counters, and builds the [`JobResult`] and the job's
//!    [`TraceRecord`] from the same instants.
//!
//! The execution data path is zero-allocation in steady state: input,
//! output, and ping-pong scratch grids are leased from a shared
//! [`GridPool`] (returned automatically on drop, even across retry
//! panics), stencil coefficients come from a [`StencilMemo`], and the
//! backends run through their `_into` variants that write into the leased
//! buffers. Pool hit/miss counters surface in the serve report's `memory`
//! section.
//!
//! Shutdown ([`Runtime::drain`]) closes the queue, lets every shard finish
//! what is queued, and joins all workers — graceful drain, nothing admitted
//! is dropped.

use crate::batch::BatchPolicy;
use crate::cancel::CancelToken;
use crate::job::{Backend, JobResult, JobSpec, Outcome};
use crate::metrics::MetricsRegistry;
use crate::persist::{load_planner_memory, save_planner_memory};
use crate::planner::{place_program, DeviceProfile, PlanError, PlanMode, Planner};
use crate::pool::{GridLease2D, GridLease3D, GridPool, StencilMemo};
use crate::program::{self, StencilProgram};
use crate::queue::{AdmissionQueue, PushError, QueuedJob};
use crate::report::StealTotals;
use crate::retry;
use crate::stream::ResultSender;
use crate::tenant::{Tenant, TenantPolicy, TenantRegistry, TenantSnapshot};
use crate::trace::{outcome_label, AttemptSpan, TraceRecord, TraceWriter, TRACE_SCHEMA_VERSION};
use cpu_engine::engines;
use fpga_sim::cluster::{self, ClusterNode, ClusterSpec};
use fpga_sim::{functional, serial_ref, SimCounters};
use std::ops::DerefMut;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stencil_core::util::splitmix64;
use stencil_core::{compile_star_2d, compile_star_3d, kernel_ir, Grid2D, Grid3D, KernelDesc};

/// Everything tunable about a [`Runtime`]. Retries always follow the fixed
/// [`crate::retry`] schedule; the planner and the grid pool take no
/// configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Admission queue capacity (shared across all shards).
    pub queue_capacity: usize,
    /// Worker threads per backend shard.
    pub workers_per_shard: usize,
    /// Backends to start shards for. Jobs naming any other backend are
    /// refused at submission, so nothing can sit in the queue unserved.
    pub backends: Vec<Backend>,
    /// Percentage (0–100) of completed jobs re-executed on the frozen
    /// `serial_ref` oracle and bit-compared. Jobs with `shadow: true` are
    /// always verified.
    pub shadow_percent: u8,
    /// Small-job batching policy.
    pub batch: BatchPolicy,
    /// Device profile the planner ranks candidates against. The HBM
    /// profile opens the hybrid `replicas x partime` axis, so auto-planned
    /// jobs can land on spatially replicated functional chains.
    pub device: DeviceProfile,
    /// Per-tenant DWRR weights and in-flight quotas.
    pub tenants: TenantPolicy,
    /// Planner-memory sidecar path. When set, boot loads it (if present)
    /// to warm-start the plan cache — any corrupt or drifted sidecar is
    /// rejected to a cold start with `planner_warm_rejected` incremented,
    /// never a panic — and drain writes the learned rates back.
    pub planner_memory: Option<PathBuf>,
    /// Per-job JSONL trace output path. The runtime always traces (the
    /// serve report's `trace` section counts records either way); a path
    /// here additionally writes each record to disk through the bounded
    /// lossless writer.
    pub trace_out: Option<PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 64,
            workers_per_shard: 2,
            backends: Backend::ALL.to_vec(),
            shadow_percent: 10,
            batch: BatchPolicy::serving_default(),
            device: DeviceProfile::default(),
            tenants: TenantPolicy::default(),
            planner_memory: None,
            trace_out: None,
        }
    }
}

/// Why a submission was refused (the job never entered the queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec failed admission validation or could not be planned.
    Invalid(PlanError),
    /// The bounded queue is full — explicit backpressure.
    QueueFull,
    /// The runtime is shutting down.
    Closed,
    /// The runtime has no shard for the spec's backend.
    UnservedBackend(Backend),
    /// The spec's tenant is at its in-flight quota — per-tenant
    /// backpressure, deliberately distinct from the global [`SubmitError::QueueFull`].
    QuotaExceeded {
        /// The tenant that hit its cap.
        tenant: Tenant,
        /// The cap it hit.
        max_in_flight: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(why) => write!(f, "invalid job spec: {why}"),
            SubmitError::QueueFull => write!(f, "admission queue full"),
            SubmitError::Closed => write!(f, "runtime is shutting down"),
            SubmitError::UnservedBackend(b) => write!(f, "no shard serves backend {b}"),
            SubmitError::QuotaExceeded {
                tenant,
                max_in_flight,
            } => write!(
                f,
                "tenant {tenant} at its in-flight quota ({max_in_flight})"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The submitter's handle to one admitted job, returned immediately by the
/// non-blocking [`Runtime::submit`]. The terminal [`JobResult`] arrives via
/// the drain sink and, for streaming submissions, the client's
/// [`crate::stream::ResultStream`].
#[derive(Debug, Clone)]
pub struct Ticket {
    /// The spec's `id`.
    pub id: u64,
    /// The spec's tenant.
    pub tenant: Tenant,
    token: CancelToken,
}

impl Ticket {
    /// Requests cooperative cancellation of the job.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

/// What [`Runtime::drain`] hands back.
#[derive(Debug)]
pub struct DrainOutcome {
    /// One result per job that reached a terminal state.
    pub results: Vec<JobResult>,
    /// Worker threads that died instead of joining cleanly. Always 0 unless
    /// the runtime itself is buggy — job panics are absorbed by the shard.
    pub wedged_workers: usize,
    /// Total wall time the runtime was up, in seconds.
    pub wall_seconds: f64,
    /// Final per-tenant admission accounting, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
    /// Steal counters for the serve report's `scheduler` section. Always
    /// zero: shards run the batches they pop and never steal.
    pub steals: StealTotals,
    /// Trace records the writer wrote (one per terminal job; the
    /// lossless-writer invariant makes this equal `results.len()`).
    pub trace_records_written: u64,
}

/// Terminal results shared between shards and the submitter.
#[derive(Default)]
struct ResultSink {
    results: Mutex<Vec<JobResult>>,
    progressed: Condvar,
}

impl ResultSink {
    fn push(&self, r: JobResult) {
        self.results.lock().unwrap().push(r);
        self.progressed.notify_all();
    }

    /// Blocks until at least `n` results exist or `timeout` passes.
    fn wait_for(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.results.lock().unwrap();
        while guard.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (g, _) = self.progressed.wait_timeout(guard, left).unwrap();
            guard = g;
        }
        true
    }

    fn take(&self) -> Vec<JobResult> {
        std::mem::take(&mut self.results.lock().unwrap())
    }
}

/// Shared state one shard worker needs.
struct ShardCtx {
    backend: Backend,
    queue: Arc<AdmissionQueue>,
    tenants: Arc<TenantRegistry>,
    metrics: Arc<MetricsRegistry>,
    sink: Arc<ResultSink>,
    planner: Arc<Planner>,
    tracer: Arc<TraceWriter>,
    /// The runtime's start instant — the origin every trace timestamp is
    /// measured from.
    epoch: Instant,
    batch: BatchPolicy,
    shadow_percent: u8,
    env: ExecEnv,
}

/// Pooled execution resources shared by every shard: the grid buffer pool
/// and the stencil memo.
#[derive(Clone)]
struct ExecEnv {
    pool: Arc<GridPool>,
    stencils: Arc<StencilMemo>,
    /// Device profile program placement ranks candidates against — the
    /// same profile the planner plans single-kernel jobs for.
    profile: DeviceProfile,
}

impl ExecEnv {
    fn new(metrics: &MetricsRegistry, profile: DeviceProfile) -> ExecEnv {
        ExecEnv {
            pool: Arc::new(GridPool::new(metrics)),
            stencils: Arc::new(StencilMemo::new(metrics, StencilMemo::DEFAULT_CAPACITY)),
            profile,
        }
    }
}

/// The job-serving runtime: bounded admission, sharded execution, deadline
/// and cancellation enforcement, retries, shadow verification, metrics.
pub struct Runtime {
    queue: Arc<AdmissionQueue>,
    metrics: Arc<MetricsRegistry>,
    sink: Arc<ResultSink>,
    planner: Arc<Planner>,
    tenants: Arc<TenantRegistry>,
    workers: Vec<JoinHandle<()>>,
    tracer: Arc<TraceWriter>,
    config: RuntimeConfig,
    started: Instant,
}

impl Runtime {
    /// Starts the shards and returns the serving façade.
    ///
    /// When `config.planner_memory` names an existing sidecar, the plan
    /// cache is warm-started from it before any worker runs: on success
    /// the `planner_warm_shapes` counter records the shapes adopted; any
    /// load or drift error rejects the whole sidecar to a cold start and
    /// increments `planner_warm_rejected` — never a panic.
    ///
    /// # Panics
    /// Panics when the config names no backends or zero workers per
    /// shard, or when `config.trace_out` cannot be created (callers
    /// should validate the path first; a service that silently loses its
    /// trace output would defeat the lossless contract).
    pub fn start(config: RuntimeConfig) -> Runtime {
        assert!(!config.backends.is_empty(), "need at least one backend");
        assert!(config.workers_per_shard > 0, "need at least one worker");
        install_quiet_panic_hook();
        // The epoch: every trace timestamp is milliseconds since here.
        let started = Instant::now();
        let queue = Arc::new(AdmissionQueue::with_policy(
            config.queue_capacity,
            config.tenants.clone(),
        ));
        let metrics = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(ResultSink::default());
        let planner = Arc::new(Planner::new(config.device));
        if let Some(path) = &config.planner_memory {
            if path.exists() {
                match load_planner_memory(path)
                    .and_then(|memory| planner.warm_start(&memory, &config.backends))
                {
                    Ok(shapes) => {
                        metrics.counter("planner_warm_shapes").add(shapes as u64);
                    }
                    Err(_why) => {
                        // Cold start; the sidecar stays on disk untouched
                        // for post-mortem, and drain overwrites it with
                        // freshly learned rates.
                        metrics.counter("planner_warm_rejected").inc();
                    }
                }
            }
        }
        let tracer = Arc::new(TraceWriter::create(config.trace_out.clone()).expect("trace output"));
        let tenants = Arc::new(TenantRegistry::new(config.tenants.clone()));
        let env = ExecEnv::new(&metrics, config.device);
        let mut workers = Vec::new();
        for &backend in &config.backends {
            for w in 0..config.workers_per_shard {
                let ctx = ShardCtx {
                    backend,
                    queue: Arc::clone(&queue),
                    tenants: Arc::clone(&tenants),
                    metrics: Arc::clone(&metrics),
                    sink: Arc::clone(&sink),
                    planner: Arc::clone(&planner),
                    tracer: Arc::clone(&tracer),
                    epoch: started,
                    batch: config.batch,
                    shadow_percent: config.shadow_percent,
                    env: env.clone(),
                };
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("shard-{}-{w}", backend.name()))
                        .spawn(move || shard_loop(&ctx))
                        .expect("spawn shard worker"),
                );
            }
        }
        Runtime {
            queue,
            metrics,
            sink,
            planner,
            tenants,
            workers,
            tracer,
            config,
            started,
        }
    }

    /// Submits a job for asynchronous execution. [`PlanMode::Auto`] jobs
    /// are planned here, at admission: the planner rewrites the spec's
    /// backend and block configuration before the job enters the queue, so
    /// shard routing sees the *planned* backend.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] for specs that fail admission validation
    /// or cannot be planned, [`SubmitError::UnservedBackend`] when no
    /// shard serves the backend, [`SubmitError::QueueFull`] under
    /// backpressure, and [`SubmitError::Closed`] during shutdown.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, SubmitError> {
        self.submit_inner(spec, None)
    }

    /// Non-blocking streaming submission: like [`Runtime::submit`], but the
    /// job's terminal [`JobResult`] is also delivered over `reply` — the
    /// client's bounded [`crate::stream::ResultStream`] — the moment a
    /// shard finishes it, instead of only at drain.
    ///
    /// # Errors
    /// Same as [`Runtime::submit`].
    pub fn submit_streaming(
        &self,
        spec: JobSpec,
        reply: &ResultSender,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(spec, Some(reply.clone()))
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        reply: Option<ResultSender>,
    ) -> Result<Ticket, SubmitError> {
        let mut spec = spec;
        // Trace origin: when the job arrived, before validation/planning.
        let submitted = Instant::now();
        self.metrics.counter("jobs_submitted").inc();
        if spec.plan == PlanMode::Explicit && !self.config.backends.contains(&spec.backend) {
            self.metrics.counter("jobs_invalid").inc();
            return Err(SubmitError::UnservedBackend(spec.backend));
        }
        if let Err(why) = spec.validate() {
            self.metrics.counter("jobs_invalid").inc();
            return Err(SubmitError::Invalid(why));
        }
        // Program jobs are *placed* at admission too: a graph the tuner
        // has no valid per-node configuration for is an admission error,
        // not a worker-side panic. The worker re-derives the identical
        // placement (it is a pure function of profile x spec x program).
        if let Some(prog) = &spec.program {
            if let Err(why) = place_program(self.config.device, &spec, prog) {
                self.metrics.counter("jobs_invalid").inc();
                return Err(SubmitError::Invalid(why));
            }
        }
        // Tenant quota: claim the in-flight slot before planning so a
        // quota-capped flood never touches the planner. Rolled back in
        // full on any later refusal.
        if let Err(quota) = self.tenants.try_admit(&spec.tenant) {
            self.metrics.counter("jobs_quota_rejected").inc();
            return Err(SubmitError::QuotaExceeded {
                tenant: quota.tenant,
                max_in_flight: quota.max_in_flight,
            });
        }
        let tenant = spec.tenant.clone();
        // Program jobs take their configuration from program placement,
        // not the single-kernel planner — Auto mode is a no-op for them.
        let mut plan_ms = 0.0f64;
        let plan = if spec.plan == PlanMode::Auto && spec.program.is_none() {
            let plan_start = Instant::now();
            let planned = self
                .planner
                .plan(&spec, &self.config.backends, &self.metrics);
            plan_ms = plan_start.elapsed().as_secs_f64() * 1000.0;
            match planned {
                Ok(assignment) => {
                    assignment.choice.apply_to(&mut spec);
                    Some(assignment)
                }
                Err(why) => {
                    self.metrics.counter("jobs_invalid").inc();
                    self.tenants.release(&tenant, false);
                    return Err(SubmitError::Invalid(why));
                }
            }
        } else {
            None
        };
        let token = if spec.deadline_ms > 0 {
            CancelToken::with_deadline(Instant::now() + Duration::from_millis(spec.deadline_ms))
        } else {
            CancelToken::new()
        };
        let id = spec.id;
        let is_program = spec.program.is_some();
        // The plan's in-flight slot was claimed above; if the queue
        // refuses the job it never reaches a worker, so release it here
        // or the planner would count phantom backlog forever.
        let claimed = plan.clone();
        match self
            .queue
            .push_traced(spec, token.clone(), plan, reply, submitted, plan_ms)
        {
            Ok(_) => {
                self.metrics.counter("jobs_admitted").inc();
                if is_program {
                    self.metrics.counter("programs_requested").inc();
                }
                self.metrics
                    .gauge("queue_depth")
                    .set(self.queue.depth() as i64);
                Ok(Ticket { id, tenant, token })
            }
            Err(e) => {
                if let Some(assignment) = &claimed {
                    self.planner.release(assignment);
                }
                self.tenants.release(&tenant, false);
                match e {
                    PushError::Full => {
                        self.metrics.counter("jobs_rejected").inc();
                        Err(SubmitError::QueueFull)
                    }
                    PushError::Closed => Err(SubmitError::Closed),
                }
            }
        }
    }

    /// The runtime's metrics registry (shared; live).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The runtime's plan cache (shared; live).
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// Blocks until `n` results exist or `timeout` passes; returns whether
    /// the count was reached.
    pub fn wait_for_results(&self, n: usize, timeout: Duration) -> bool {
        self.sink.wait_for(n, timeout)
    }

    /// Graceful shutdown: close admissions, drain every queued job, join
    /// all workers, persist the planner's learned rates (when
    /// `planner_memory` is configured), and close the trace writer — its
    /// final record count lands in `trace_records_written`.
    pub fn drain(self) -> DrainOutcome {
        self.queue.close();
        let Runtime {
            sink,
            tenants,
            workers,
            tracer,
            planner,
            metrics,
            config,
            started,
            ..
        } = self;
        let mut wedged = 0usize;
        for w in workers {
            if w.join().is_err() {
                wedged += 1;
            }
        }
        if let Some(path) = &config.planner_memory {
            match save_planner_memory(path, &planner.export_memory()) {
                Ok(()) => metrics.counter("planner_memory_saved").inc(),
                Err(_why) => metrics.counter("planner_memory_save_failed").inc(),
            }
        }
        // Every worker has joined, so every emit has happened and the
        // workers' Arc clones are dropped: this close writes the footer.
        let trace_records_written = Arc::into_inner(tracer)
            .expect("workers joined; no tracer handles remain")
            .close();
        DrainOutcome {
            results: sink.take(),
            wedged_workers: wedged,
            wall_seconds: started.elapsed().as_secs_f64(),
            tenants: tenants.snapshot(),
            steals: StealTotals::default(),
            trace_records_written,
        }
    }
}

/// One shard worker: pop the next DWRR batch for this backend, run every
/// job in it, repeat. The pop sleeps while the queue holds nothing for
/// this backend and returns `None` once the queue is closed and drained
/// for it, so close-then-drain loses nothing.
fn shard_loop(ctx: &ShardCtx) {
    let depth_gauge = ctx.metrics.gauge("queue_depth");
    let batches = ctx.metrics.counter("batches");
    let batched_jobs = ctx.metrics.counter("batched_jobs");
    while let Some(batch) = ctx.queue.pop_batch(ctx.backend, &ctx.batch) {
        depth_gauge.set(ctx.queue.depth() as i64);
        if batch.len() > 1 {
            batches.inc();
            batched_jobs.add(batch.len() as u64);
        }
        for job in batch {
            process_job(ctx, job);
        }
    }
}

/// Drives one admitted job to a terminal state and records it: counters
/// as aggregates, plus one [`JobResult`] and one [`TraceRecord`] built
/// here from the same instants. The result's `queue_wait_ms`, `run_ms`
/// and `total_ms` are the record's queue wait, `exec_span_ms()` and
/// `total_span_ms()`, so the serve report, which folds the results, is a
/// fold over the trace whether or not a trace file is written.
fn process_job(ctx: &ShardCtx, job: QueuedJob) {
    let QueuedJob {
        spec,
        token,
        admitted,
        submitted,
        plan_ms,
        plan,
        reply,
        ..
    } = job;
    let since_epoch = |t: Instant| t.saturating_duration_since(ctx.epoch).as_secs_f64() * 1000.0;
    let picked_up = Instant::now();
    let queue_wait_ms = picked_up.duration_since(admitted).as_secs_f64() * 1000.0;

    let mut attempts = 0u32;
    let mut attempt_spans: Vec<AttemptSpan> = Vec::new();
    // The final attempt's time: the planner's throughput feedback.
    let mut last_exec_ms = 0.0f64;
    let mut checksum = None;
    let mut cells_updated = 0u64;
    let mut shadow_match = None;
    let mut shadow_ms = None;

    let outcome = if token.is_cancelled() {
        // Expired or cancelled while queued: never started.
        terminal_for_token(&token)
    } else {
        ctx.metrics.counter("jobs_started").inc();
        loop {
            attempts += 1;
            let t = Instant::now();
            let attempt_result = panic::catch_unwind(AssertUnwindSafe(|| {
                execute(&spec, attempts, &token, &ctx.env)
            }));
            last_exec_ms = t.elapsed().as_secs_f64() * 1000.0;
            attempt_spans.push(AttemptSpan {
                start_ms: since_epoch(t),
                exec_ms: last_exec_ms,
                backoff_ms: 0.0,
                panicked: attempt_result.is_err(),
            });
            match attempt_result {
                Ok(Ok(out)) => {
                    // A run that raced its deadline still counts as timed
                    // out: the caller stopped waiting.
                    if token.deadline_expired() {
                        break Outcome::TimedOut;
                    }
                    checksum = Some(out.checksum);
                    cells_updated = spec.work_cells();
                    aggregate_counters(&ctx.metrics, &out.counters);
                    if let Some(stats) = &out.program {
                        aggregate_dataflow(&ctx.metrics, stats);
                    }
                    if should_shadow(&spec, ctx.shadow_percent) {
                        let shadow_start = Instant::now();
                        let matched = shadow_verify(&spec, &out.output, &ctx.env);
                        shadow_ms = Some(shadow_start.elapsed().as_secs_f64() * 1000.0);
                        ctx.metrics.counter("shadow_runs").inc();
                        if !matched {
                            ctx.metrics.counter("shadow_mismatches").inc();
                        }
                        shadow_match = Some(matched);
                    }
                    break Outcome::Completed;
                }
                Ok(Err(Interrupted)) => break terminal_for_token(&token),
                Err(_panic) => {
                    // Transient failure absorbed at the shard boundary.
                    if retry::should_retry(attempts) && !token.is_cancelled() {
                        ctx.metrics.counter("retries").inc();
                        // Decorrelated jitter keyed on job identity: a burst
                        // of simultaneous failures fans out instead of
                        // re-colliding, and a replayed workload sleeps the
                        // exact same schedule.
                        let backoff =
                            retry::backoff_jittered(spec.id ^ spec.seed.rotate_left(16), attempts);
                        std::thread::sleep(backoff);
                        attempt_spans
                            .last_mut()
                            .expect("attempt span pushed above")
                            .backoff_ms = backoff.as_secs_f64() * 1000.0;
                        continue;
                    }
                    break if token.is_cancelled() {
                        terminal_for_token(&token)
                    } else {
                        Outcome::Failed
                    };
                }
            }
        }
    };

    let counter = match outcome {
        Outcome::Completed => "jobs_completed",
        Outcome::TimedOut => "jobs_timed_out",
        Outcome::Cancelled => "jobs_cancelled",
        Outcome::Failed => "jobs_failed",
    };
    ctx.metrics.counter(counter).inc();
    let done = Instant::now();
    let enqueue_ms = since_epoch(submitted);
    let done_ms = since_epoch(done);

    // Close the planner's feedback loop: a completed auto-planned job
    // reports its achieved cells/s back to the exact candidate it ran,
    // and every terminal outcome releases the backend's in-flight slot
    // so the load-aware exploit rule tracks the true backlog.
    if let Some(assignment) = &plan {
        if outcome == Outcome::Completed && last_exec_ms > 0.0 {
            let cells_per_sec = cells_updated as f64 / (last_exec_ms / 1000.0);
            ctx.planner
                .record_throughput(assignment, cells_per_sec, &ctx.metrics);
        }
        ctx.planner.release(assignment);
    }

    let result = JobResult {
        id: spec.id,
        tenant: spec.tenant.name().to_string(),
        backend: ctx.backend,
        outcome,
        attempts,
        queue_wait_ms,
        run_ms: attempt_spans.iter().map(|a| a.exec_ms).sum(),
        total_ms: done_ms - enqueue_ms,
        cells_updated,
        checksum,
        shadow_match,
        plan: plan.as_ref().map(|a| a.choice.clone()),
    };
    // Streaming clients get the result the moment it exists; the drain
    // sink always gets it too (zero-loss accounting at shutdown).
    let stream_ms = reply.map(|reply| {
        let stream_start = Instant::now();
        reply.send(result.clone());
        stream_start.elapsed().as_secs_f64() * 1000.0
    });
    // One trace record per terminal job — the per-job ledger line the
    // serve report's `trace` section is cross-validated against. Emitted
    // before the sink push so a client observing the result count never
    // races ahead of the trace count at drain.
    ctx.tracer.emit(TraceRecord {
        schema_version: TRACE_SCHEMA_VERSION,
        id: spec.id,
        tenant: spec.tenant.name().to_string(),
        backend: ctx.backend.name().to_string(),
        outcome: outcome_label(outcome).to_string(),
        provenance: plan
            .as_ref()
            .map_or("explicit", |a| a.choice.provenance())
            .to_string(),
        replicas: spec.replicas.get() as u64,
        program_nodes: spec.program.as_ref().map_or(0, |p| p.nodes.len() as u64),
        enqueue_ms,
        plan_ms,
        queue_wait_ms,
        exec_start_ms: since_epoch(picked_up),
        done_ms,
        attempts: attempt_spans,
        shadow_ms,
        stream_ms,
        cells: cells_updated,
    });
    ctx.metrics.counter("trace_records").inc();
    ctx.sink.push(result);
    // Terminal: the tenant's in-flight quota slot frees up.
    ctx.tenants.release(&spec.tenant, true);
}

/// Timed-out vs cancelled, judged from the token's state.
fn terminal_for_token(token: &CancelToken) -> Outcome {
    if token.deadline_expired() {
        Outcome::TimedOut
    } else {
        Outcome::Cancelled
    }
}

/// The run was abandoned because its cancel token fired.
struct Interrupted;

/// Output of one successful execution attempt.
struct ExecOut {
    checksum: u64,
    counters: SimCounters,
    output: OutputGrid,
    /// Dataflow accounting when the job was a program run (cluster
    /// schedule, channel occupancy, sequential baseline); `None` for
    /// single-kernel jobs.
    program: Option<ProgramRunStats>,
}

/// The grid a job produced, kept for shadow comparison. Holds pool leases:
/// the buffer returns to the pool when the result is dropped.
enum OutputGrid {
    /// 2D result.
    G2(GridLease2D),
    /// 3D result.
    G3(GridLease3D),
    /// 2D program result: the combined sink frame per streamed frame.
    P2(Vec<GridLease2D>),
    /// 3D program result.
    P3(Vec<GridLease3D>),
}

/// What one program execution measured, folded into the `program_*`
/// metrics the serve report's `dataflow` section is built from.
struct ProgramRunStats {
    /// Nodes placed (= devices in a pipeline-parallel placement).
    nodes: u64,
    /// Devices the placement used.
    devices: u64,
    /// Per-channel `(capacity, high_water)` in placement order.
    channels: Vec<(u64, u64)>,
    /// Frames streamed through the pipeline.
    frames: u64,
    /// Virtual makespan of the placed (pipelined) schedule.
    pipelined_ticks: u64,
    /// Virtual makespan of the same program serialized on one device.
    sequential_ticks: u64,
    /// Cell updates per topological stage.
    stage_cells: Vec<u64>,
    /// Device-busy ticks per topological stage.
    stage_ticks: Vec<u64>,
}

/// Runs the spec on its backend through the pooled, zero-allocation data
/// path: grids are leased from `env.pool`, stencils and compiled kernels
/// come from `env.stencils`, and the executor writes into the leased output
/// via its `_into` variant. Attempt numbers ≤ `fail_times` panic (the load
/// test's injected transient fault); the panic unwinds to the shard's
/// `catch_unwind`, and any live leases return to the pool on the way out.
fn execute(
    spec: &JobSpec,
    attempt: u32,
    token: &CancelToken,
    env: &ExecEnv,
) -> Result<ExecOut, Interrupted> {
    if attempt <= spec.fail_times {
        panic!(
            "[transient] injected failure {attempt}/{} for job {}",
            spec.fail_times, spec.id
        );
    }
    if let Some(prog) = &spec.program {
        return execute_program(spec, prog, token, env);
    }
    let (counters, checksum, output) = if spec.dim == 2 {
        let mut input = env.pool.lease_2d(spec.nx, spec.ny);
        fill_grid_2d(spec, &mut input);
        let mut out = env.pool.lease_2d(spec.nx, spec.ny);
        let mut scratch = env.pool.lease_2d(spec.nx, spec.ny);
        let counters = run_2d(spec, token, env, &input, &mut out, &mut scratch);
        (counters, checksum_f32(out.as_slice()), OutputGrid::G2(out))
    } else {
        let mut input = env.pool.lease_3d(spec.nx, spec.ny, spec.nz);
        fill_grid_3d(spec, &mut input);
        let mut out = env.pool.lease_3d(spec.nx, spec.ny, spec.nz);
        let mut scratch = env.pool.lease_3d(spec.nx, spec.ny, spec.nz);
        let counters = run_3d(spec, token, env, &input, &mut out, &mut scratch);
        (counters, checksum_f32(out.as_slice()), OutputGrid::G3(out))
    };
    match counters {
        Some(counters) if !token.is_cancelled() => Ok(ExecOut {
            checksum,
            counters,
            output,
            program: None,
        }),
        _ => Err(Interrupted),
    }
}

/// Lane width the worker compiles desc kernels at (through the
/// [`StencilMemo`] kernel cache). Eight f32 lanes is the widest row kernel
/// the specializer emits and matches the paper's `parvec` sweet spot on the
/// DDR profile.
const KERNEL_LANES: usize = 8;

/// Rebuilds the validated [`KernelDesc`] a kernel job describes. Pure
/// function of the spec (taps family × boundary × dim/rad/seed), so the
/// worker and the shadow oracle derive the identical desc.
fn kernel_desc_for(spec: &JobSpec) -> KernelDesc {
    spec.kernel
        .as_ref()
        .expect("caller checked spec.kernel")
        .desc(spec.dim, spec.rad, spec.seed)
        .expect("kernel desc validated at admission")
}

/// Counters of a grid-resident run. Functional jobs tally what the
/// simulator's grid-resident executor moves: every cell once per pass,
/// each row read and written once, one block per parallel task; other
/// backends report the useful work only.
fn grid_resident_counters(spec: &JobSpec, lanes: usize) -> SimCounters {
    let plain = SimCounters {
        lane_width: lanes as u64,
        ..plain_counters(spec)
    };
    if spec.backend != Backend::Functional {
        return plain;
    }
    let iters = spec.iters as u64;
    let (rows, tasks) = if spec.dim == 2 {
        (spec.ny, spec.ny.div_ceil(engines::ROW_BAND).max(1))
    } else {
        (spec.ny * spec.nz, spec.nz)
    };
    SimCounters {
        rows_fed: rows as u64 * iters,
        bytes_moved: 2 * plain.cells_updated * std::mem::size_of::<f32>() as u64,
        blocks: tasks as u64 * iters,
        passes: iters,
        ..plain
    }
}

/// Runs a single-kernel 2D job into the leased buffers; `None` when the run
/// was cancelled. The worker's only routing decision: a star job on
/// Functional runs the simulated block schedule, a desc job (a
/// [`crate::job::KernelSpec`]) or any CpuEngine job runs the grid-resident
/// rayon executor, cancellable between row bands, and SerialRef runs the
/// frozen oracle of the job's kind.
fn run_2d(
    spec: &JobSpec,
    token: &CancelToken,
    env: &ExecEnv,
    input: &Grid2D<f32>,
    out: &mut Grid2D<f32>,
    scratch: &mut Grid2D<f32>,
) -> Option<SimCounters> {
    let cancel = || token.is_cancelled();
    let star = || env.stencils.stencil_2d(spec.rad, spec.seed);
    let cfg = || spec.block_config().expect("spec validated at admission");
    match (spec.backend, spec.kernel.is_some()) {
        (Backend::Functional, false) => functional::run_2d_replicated_cancellable_into(
            &star(),
            input,
            &cfg(),
            spec.iters,
            spec.replicas.get(),
            &cancel,
            out,
            scratch,
        ),
        (Backend::Functional | Backend::CpuEngine, _) => {
            let kernel = match spec.kernel {
                Some(_) => env
                    .stencils
                    .kernel_2d(&kernel_desc_for(spec), KERNEL_LANES)
                    .expect("kernel desc validated at admission"),
                None => Arc::new(compile_star_2d(&star(), engines::CPU_LANES)),
            };
            engines::parallel_2d_kernel_into(&kernel, input, spec.iters, &cancel, out, scratch)
                .then(|| grid_resident_counters(spec, kernel.lanes()))
        }
        (Backend::SerialRef, _) => {
            // The oracles are frozen and allocate internally; copy their
            // result into the lease so the output path stays uniform.
            out.copy_from(&match spec.kernel {
                Some(_) => kernel_ir::reference_run_2d(&kernel_desc_for(spec), input, spec.iters),
                None => serial_ref::run_2d_serial(&star(), input, &cfg(), spec.iters),
            });
            Some(plain_counters(spec))
        }
    }
}

/// 3D twin of [`run_2d`].
fn run_3d(
    spec: &JobSpec,
    token: &CancelToken,
    env: &ExecEnv,
    input: &Grid3D<f32>,
    out: &mut Grid3D<f32>,
    scratch: &mut Grid3D<f32>,
) -> Option<SimCounters> {
    let cancel = || token.is_cancelled();
    let star = || env.stencils.stencil_3d(spec.rad, spec.seed);
    let cfg = || spec.block_config().expect("spec validated at admission");
    match (spec.backend, spec.kernel.is_some()) {
        (Backend::Functional, false) => functional::run_3d_replicated_cancellable_into(
            &star(),
            input,
            &cfg(),
            spec.iters,
            spec.replicas.get(),
            &cancel,
            out,
            scratch,
        ),
        (Backend::Functional | Backend::CpuEngine, _) => {
            let kernel = match spec.kernel {
                Some(_) => env
                    .stencils
                    .kernel_3d(&kernel_desc_for(spec), KERNEL_LANES)
                    .expect("kernel desc validated at admission"),
                None => Arc::new(compile_star_3d(&star(), engines::CPU_LANES)),
            };
            engines::parallel_3d_kernel_into(&kernel, input, spec.iters, &cancel, out, scratch)
                .then(|| grid_resident_counters(spec, kernel.lanes()))
        }
        (Backend::SerialRef, _) => {
            out.copy_from(&match spec.kernel {
                Some(_) => kernel_ir::reference_run_3d(&kernel_desc_for(spec), input, spec.iters),
                None => serial_ref::run_3d_serial(&star(), input, &cfg(), spec.iters),
            });
            Some(plain_counters(spec))
        }
    }
}

/// Shape of one program run, derived once from the spec: the placement,
/// the topological slots, the cluster nodes the schedule model runs (whose
/// `preds` are also the slots a slot sums, in edge order), the sink slots
/// in [`StencilProgram::sinks`] order (the order the interpreter sums sink
/// outputs in), and each slot's last consumer.
struct ProgramShape {
    placement: crate::planner::ProgramPlacement,
    /// Slot → program node index (topological order).
    node_of: Vec<usize>,
    /// Cluster nodes for the placed (pipelined) schedule, one per slot.
    cnodes: Vec<ClusterNode>,
    /// Sink slots, in sink order.
    sinks: Vec<usize>,
    /// Slot → the last slot that reads its output (`None` for sinks).
    last_consumer: Vec<Option<usize>>,
}

impl ProgramShape {
    fn new(spec: &JobSpec, prog: &StencilProgram, env: &ExecEnv) -> ProgramShape {
        let placement =
            place_program(env.profile, spec, prog).expect("program placed at admission");
        let order = prog.topo_order().expect("program validated at admission");
        let mut slot_of = vec![0usize; prog.nodes.len()];
        for (slot, &i) in order.iter().enumerate() {
            slot_of[i] = slot;
        }
        let cnodes: Vec<ClusterNode> = order
            .iter()
            .zip(&placement.stages)
            .map(|(&i, stage)| {
                let ins = prog.in_edges(i);
                ClusterNode {
                    device: stage.device,
                    preds: ins
                        .iter()
                        .map(|&e| {
                            let p = prog
                                .node_index(&prog.edges[e].from)
                                .expect("validated edge");
                            slot_of[p]
                        })
                        .collect(),
                    depths: ins.iter().map(|&e| prog.edges[e].depth).collect(),
                    exec_ticks: stage.exec_ticks,
                }
            })
            .collect();
        let mut last_consumer = vec![None; cnodes.len()];
        for (slot, node) in cnodes.iter().enumerate() {
            for &p in &node.preds {
                last_consumer[p] = Some(slot);
            }
        }
        ProgramShape {
            placement,
            node_of: order,
            cnodes,
            sinks: prog.sinks().iter().map(|&s| slot_of[s]).collect(),
            last_consumer,
        }
    }
}

/// Computes every frame of a program run in a plain loop over the
/// topological slots. A slot's input is its source fill, or the sum of
/// its predecessors' outputs in edge order; an output returns to the pool
/// once its last consumer has read it; the frame is the sum of the sink
/// outputs in sink order. Generic over the frame grid: `fill`, `copy` and
/// `add` are the source fill, copy and fan-in sum of the grid `lease`
/// hands out, and `run(slot, input, out, scratch)` runs the slot's node
/// (`None` once the job is cancelled).
#[allow(clippy::too_many_arguments)]
fn program_frames<G: DerefMut>(
    prog: &StencilProgram,
    shape: &ProgramShape,
    seed: u64,
    lease: impl Fn() -> G,
    fill: fn(&mut G::Target, u64),
    copy: fn(&mut G::Target, &G::Target),
    add: fn(&mut G::Target, &G::Target),
    mut run: impl FnMut(usize, &G::Target, &mut G::Target, &mut G::Target) -> Option<SimCounters>,
) -> Result<(Vec<G>, SimCounters), Interrupted> {
    let mut counters = SimCounters::default();
    let mut frames = Vec::with_capacity(prog.frames);
    for frame in 0..prog.frames {
        let mut outs: Vec<Option<G>> = (0..shape.cnodes.len()).map(|_| None).collect();
        for (slot, node) in shape.cnodes.iter().enumerate() {
            let mut input = lease();
            match node.preds.split_first() {
                None => fill(
                    &mut input,
                    prog.frame_seed(seed, shape.node_of[slot], frame),
                ),
                Some((&first, rest)) => {
                    copy(
                        &mut input,
                        outs[first].as_deref().expect("topological order"),
                    );
                    for &p in rest {
                        add(&mut input, outs[p].as_deref().expect("topological order"));
                    }
                }
            }
            for &p in &node.preds {
                if shape.last_consumer[p] == Some(slot) {
                    outs[p] = None;
                }
            }
            let mut out = lease();
            let mut scratch = lease();
            counters.merge(&run(slot, &input, &mut out, &mut scratch).ok_or(Interrupted)?);
            outs[slot] = Some(out);
        }
        let mut sinks = shape
            .sinks
            .iter()
            .map(|&s| outs[s].take().expect("sink computed"));
        let mut combined = sinks.next().expect("program has a sink");
        for extra in sinks {
            add(&mut combined, &extra);
        }
        frames.push(combined);
    }
    Ok((frames, counters))
}

/// Runs a program job: nodes are placed by the planner (one device per
/// stage, pipeline-parallel), every frame is computed by
/// [`program_frames`] with each node running through the functional
/// engine at its placed configuration, regardless of the spec's backend
/// (programs model the paper's multi-FPGA dataflow, which only the
/// FPGA-functional engine represents). The completed run's schedule comes
/// from one payload-free [`cluster::run`] over the placement: frames
/// streaming through bounded inter-device channels under the
/// deterministic discrete-event scheduler. The sequential baseline the
/// serve report compares pipelining against is the sum of the busy ticks,
/// the makespan of every node on one device. The job checksum folds the
/// per-frame combined sink checksums in frame order.
fn execute_program(
    spec: &JobSpec,
    prog: &StencilProgram,
    token: &CancelToken,
    env: &ExecEnv,
) -> Result<ExecOut, Interrupted> {
    let shape = ProgramShape::new(spec, prog, env);
    let cancel = || token.is_cancelled();
    let node = |slot: usize| {
        let i = shape.node_of[slot];
        (
            &prog.nodes[i],
            prog.node_seed(spec.seed, i),
            &shape.placement.stages[slot],
        )
    };
    let (output, counters) = if spec.dim == 2 {
        let (frames, counters) = program_frames(
            prog,
            &shape,
            spec.seed,
            || env.pool.lease_2d(spec.nx, spec.ny),
            program::fill_source_2d,
            Grid2D::copy_from,
            program::add_into_2d,
            |slot, input, out, scratch| {
                let (node, seed, stage) = node(slot);
                functional::run_2d_replicated_cancellable_into(
                    &env.stencils.stencil_2d(node.rad, seed),
                    input,
                    &stage.config,
                    node.iters,
                    stage.replicas,
                    &cancel,
                    out,
                    scratch,
                )
            },
        )?;
        (OutputGrid::P2(frames), counters)
    } else {
        let (frames, counters) = program_frames(
            prog,
            &shape,
            spec.seed,
            || env.pool.lease_3d(spec.nx, spec.ny, spec.nz),
            program::fill_source_3d,
            Grid3D::copy_from,
            program::add_into_3d,
            |slot, input, out, scratch| {
                let (node, seed, stage) = node(slot);
                functional::run_3d_replicated_cancellable_into(
                    &env.stencils.stencil_3d(node.rad, seed),
                    input,
                    &stage.config,
                    node.iters,
                    stage.replicas,
                    &cancel,
                    out,
                    scratch,
                )
            },
        )?;
        (OutputGrid::P3(frames), counters)
    };
    if token.is_cancelled() {
        return Err(Interrupted);
    }

    let rep = cluster::run(&ClusterSpec {
        nodes: shape.cnodes.clone(),
        frames: prog.frames,
        seed: spec.seed,
    });
    let frame_sums: Vec<u64> = match &output {
        OutputGrid::P2(frames) => frames.iter().map(|f| checksum_f32(f.as_slice())).collect(),
        OutputGrid::P3(frames) => frames.iter().map(|f| checksum_f32(f.as_slice())).collect(),
        _ => unreachable!("program output is always P2/P3"),
    };
    let checksum = frame_sums.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &sum| {
        (h ^ sum).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let cells = (spec.nx * spec.ny * if spec.dim == 3 { spec.nz } else { 1 }) as u64;
    let stats = ProgramRunStats {
        nodes: shape.cnodes.len() as u64,
        devices: shape.placement.devices as u64,
        channels: rep
            .channels
            .iter()
            .map(|c| (c.capacity as u64, c.high_water as u64))
            .collect(),
        frames: prog.frames as u64,
        pipelined_ticks: rep.makespan_ticks,
        sequential_ticks: rep.busy_ticks.iter().sum(),
        stage_cells: rep
            .fired
            .iter()
            .enumerate()
            .map(|(slot, &n)| n as u64 * cells * prog.nodes[shape.node_of[slot]].iters as u64)
            .collect(),
        stage_ticks: rep.busy_ticks,
    };
    Ok(ExecOut {
        checksum,
        counters,
        output,
        program: Some(stats),
    })
}

/// Re-executes the spec on the frozen `serial_ref` oracle and bit-compares.
/// The oracle *input* grid is pooled and the stencil memoized; the oracle
/// itself still allocates internally — it is the frozen reference and stays
/// untouched.
fn shadow_verify(spec: &JobSpec, output: &OutputGrid, env: &ExecEnv) -> bool {
    match output {
        // Kernel jobs verify against the frozen generic-reference
        // interpreter — the oracle for the open-ended desc space, which
        // `serial_ref` (star/clamp only) cannot cover.
        OutputGrid::G2(out) if spec.kernel.is_some() => {
            let desc = kernel_desc_for(spec);
            let mut input = env.pool.lease_2d(spec.nx, spec.ny);
            fill_grid_2d(spec, &mut input);
            **out == kernel_ir::reference_run_2d(&desc, &input, spec.iters)
        }
        OutputGrid::G3(out) if spec.kernel.is_some() => {
            let desc = kernel_desc_for(spec);
            let mut input = env.pool.lease_3d(spec.nx, spec.ny, spec.nz);
            fill_grid_3d(spec, &mut input);
            **out == kernel_ir::reference_run_3d(&desc, &input, spec.iters)
        }
        OutputGrid::G2(out) => {
            let cfg = spec.block_config().expect("spec validated at admission");
            let st = env.stencils.stencil_2d(spec.rad, spec.seed);
            let mut input = env.pool.lease_2d(spec.nx, spec.ny);
            fill_grid_2d(spec, &mut input);
            let oracle = serial_ref::run_2d_serial(&st, &input, &cfg, spec.iters);
            **out == oracle
        }
        OutputGrid::G3(out) => {
            let cfg = spec.block_config().expect("spec validated at admission");
            let st = env.stencils.stencil_3d(spec.rad, spec.seed);
            let mut input = env.pool.lease_3d(spec.nx, spec.ny, spec.nz);
            fill_grid_3d(spec, &mut input);
            let oracle = serial_ref::run_3d_serial(&st, &input, &cfg, spec.iters);
            **out == oracle
        }
        // Program outputs replay the whole graph on the serial interpreter
        // (topological order, one device) and bit-compare every frame.
        OutputGrid::P2(frames) => {
            let prog = spec.program.as_ref().expect("P2 output implies program");
            let mut matched = frames.len() == prog.frames;
            program::interpret_2d(prog, spec.nx, spec.ny, spec.seed, |f, oracle| {
                matched = matched && *frames[f] == *oracle;
            });
            matched
        }
        OutputGrid::P3(frames) => {
            let prog = spec.program.as_ref().expect("P3 output implies program");
            let mut matched = frames.len() == prog.frames;
            program::interpret_3d(prog, spec.nx, spec.ny, spec.nz, spec.seed, |f, oracle| {
                matched = matched && *frames[f] == *oracle;
            });
            matched
        }
    }
}

/// Deterministic shadow sampling: forced by the spec, forced for every
/// program job (the dataflow section's bit-exactness contract is only as
/// good as its coverage), forced for every kernel job (the open desc space
/// is exactly where a specializer bug would hide), or a seed/id hash
/// falling under the configured percentage.
fn should_shadow(spec: &JobSpec, percent: u8) -> bool {
    spec.program.is_some()
        || spec.kernel.is_some()
        || spec.shadow
        || splitmix64(spec.id ^ spec.seed.rotate_left(32)) % 100 < percent as u64
}

/// Counters for backends that don't self-instrument: the useful work is
/// known exactly (`cells · iters`); traffic/halo fields stay zero.
fn plain_counters(spec: &JobSpec) -> SimCounters {
    SimCounters {
        cells_updated: spec.work_cells(),
        lane_width: 1,
        ..Default::default()
    }
}

/// Folds one job's [`SimCounters`] into the registry's aggregates.
fn aggregate_counters(metrics: &MetricsRegistry, c: &SimCounters) {
    metrics.counter("sim_cells_updated").add(c.cells_updated);
    metrics.counter("sim_halo_cells").add(c.halo_cells);
    metrics.counter("sim_bytes_moved").add(c.bytes_moved);
    metrics.counter("sim_rows_fed").add(c.rows_fed);
    metrics.counter("sim_passes").add(c.passes);
    metrics.counter("sim_blocks").add(c.blocks);
}

/// Folds one completed program run's [`ProgramRunStats`] into the
/// `program_*` metrics the serve report's `dataflow` section aggregates.
/// Channel depth/high-water gauges rely on [`crate::metrics::Gauge::set`]
/// tracking the high water mark: per channel `high_water <= capacity`, so
/// the gauge maxima keep `program_channel_high_water <=
/// program_channel_depth`.
fn aggregate_dataflow(metrics: &MetricsRegistry, s: &ProgramRunStats) {
    metrics.counter("programs_completed").inc();
    metrics.counter("program_nodes_placed").add(s.nodes);
    metrics
        .counter("program_channels")
        .add(s.channels.len() as u64);
    metrics.counter("program_frames").add(s.frames);
    metrics
        .counter("program_pipelined_ticks")
        .add(s.pipelined_ticks);
    metrics
        .counter("program_sequential_ticks")
        .add(s.sequential_ticks);
    metrics
        .counter("program_cells")
        .add(s.stage_cells.iter().sum());
    metrics.gauge("program_devices").set(s.devices as i64);
    for &(capacity, high_water) in &s.channels {
        metrics.gauge("program_channel_depth").set(capacity as i64);
        metrics
            .gauge("program_channel_high_water")
            .set(high_water as i64);
    }
    for (k, (&cells, &ticks)) in s.stage_cells.iter().zip(&s.stage_ticks).enumerate() {
        metrics
            .counter(&format!("program_stage{k}_cells"))
            .add(cells);
        metrics
            .counter(&format!("program_stage{k}_ticks"))
            .add(ticks);
    }
}

/// Writes the deterministic contents every 2D job with this spec starts
/// from into `g` (already shaped `nx × ny`) without allocating.
fn fill_grid_2d(spec: &JobSpec, g: &mut Grid2D<f32>) {
    let s = spec.seed as usize;
    let (nx, ny) = (g.nx(), g.ny());
    let data = g.as_mut_slice();
    for y in 0..ny {
        for (x, v) in data[y * nx..(y + 1) * nx].iter_mut().enumerate() {
            *v = ((x * 31 + y * 17 + s) % 103) as f32;
        }
    }
}

/// Writes the deterministic contents every 3D job with this spec starts
/// from into `g` (already shaped `nx × ny × nz`) without allocating.
fn fill_grid_3d(spec: &JobSpec, g: &mut Grid3D<f32>) {
    let s = spec.seed as usize;
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let data = g.as_mut_slice();
    for z in 0..nz {
        for y in 0..ny {
            let base = (z * ny + y) * nx;
            for (x, v) in data[base..base + nx].iter_mut().enumerate() {
                *v = ((x + 3 * y + 7 * z + s) % 53) as f32;
            }
        }
    }
}

/// FNV-1a over the bit patterns of a float slice, folded in 64-bit lanes
/// (two cells per step). Hashing is on the per-job hot path and output
/// grids run to megabytes, so the walk is lane-wide rather than byte-wide —
/// 8× fewer multiplies for the same deterministic fingerprint contract
/// (bit-identical grids hash equal, any differing cell perturbs the hash).
fn checksum_f32(vals: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = vals.chunks_exact(2);
    for pair in &mut chunks {
        let lane = (pair[0].to_bits() as u64) | ((pair[1].to_bits() as u64) << 32);
        h ^= lane;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if let [v] = chunks.remainder() {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Suppresses panic-hook output for the load test's *injected* transient
/// failures (marked `[transient]`) so retries don't spam stderr; every
/// other panic keeps the default reporting. Installed once per process.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let transient = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("[transient]"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("[transient]"))
                })
                .unwrap_or(false);
            if !transient {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{exec, Stencil2D, Stencil3D};

    /// A standalone execution environment with its own metrics registry,
    /// so pool counters can be asserted in isolation.
    fn test_env() -> (ExecEnv, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        let env = ExecEnv::new(&metrics, DeviceProfile::Ddr);
        (env, metrics)
    }

    /// The allocating twin of [`fill_grid_2d`], for oracle inputs in tests.
    fn grid_2d(spec: &JobSpec) -> Grid2D<f32> {
        let mut g = Grid2D::zeros(spec.nx, spec.ny).unwrap();
        fill_grid_2d(spec, &mut g);
        g
    }

    /// The allocating twin of [`fill_grid_3d`].
    fn grid_3d(spec: &JobSpec) -> Grid3D<f32> {
        let mut g = Grid3D::zeros(spec.nx, spec.ny, spec.nz).unwrap();
        fill_grid_3d(spec, &mut g);
        g
    }

    #[test]
    fn fill_helpers_match_the_historical_from_fn_contents() {
        // The pooled fill must reproduce the exact grid every pre-pool
        // release generated, or recorded checksums would shift.
        let spec = JobSpec::new_2d(7, 2, 33, 9, 1);
        let by_fn = Grid2D::from_fn(33, 9, |x, y| {
            ((x * 31 + y * 17 + spec.seed as usize) % 103) as f32
        })
        .unwrap();
        assert_eq!(grid_2d(&spec), by_fn);
        let spec3 = JobSpec::new_3d(9, 1, 12, 7, 5, 1);
        let by_fn3 = Grid3D::from_fn(12, 7, 5, |x, y, z| {
            ((x + 3 * y + 7 * z + spec3.seed as usize) % 53) as f32
        })
        .unwrap();
        assert_eq!(grid_3d(&spec3), by_fn3);
    }

    #[test]
    fn execute_matches_oracle_on_every_backend_2d() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut expected = None;
        for backend in Backend::ALL {
            let mut spec = JobSpec::new_2d(7, 2, 96, 24, 5);
            spec.backend = backend;
            let out = execute(&spec, 1, &token, &env).ok().expect("completes");
            let oracle = {
                let st = Stencil2D::<f32>::random(2, spec.seed).unwrap();
                exec::run_2d(&st, &grid_2d(&spec), 5)
            };
            match &out.output {
                OutputGrid::G2(g) => assert_eq!(&**g, &oracle, "{backend}"),
                _ => panic!("2D job produced a non-G2 output"),
            }
            let sum = checksum_f32(oracle.as_slice());
            assert_eq!(out.checksum, sum, "{backend}");
            match expected {
                None => expected = Some(sum),
                Some(e) => assert_eq!(sum, e, "backends disagree"),
            }
        }
    }

    #[test]
    fn execute_replicated_spec_matches_oracle() {
        // A spec planned onto R spatial chains runs the hybrid functional
        // path and stays bit-exact with the sequential oracle — same
        // checksum a single-chain run of the job would report.
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut expected = None;
        for replicas in [1usize, 2, 4] {
            let mut spec = JobSpec::new_2d(13, 2, 96, 24, 5);
            spec.replicas = crate::job::Replicas(replicas);
            let out = execute(&spec, 1, &token, &env).ok().expect("completes");
            let oracle = {
                let st = Stencil2D::<f32>::random(2, spec.seed).unwrap();
                exec::run_2d(&st, &grid_2d(&spec), 5)
            };
            match &out.output {
                OutputGrid::G2(g) => assert_eq!(&**g, &oracle, "replicas {replicas}"),
                _ => panic!("2D job produced a non-G2 output"),
            }
            match expected {
                None => expected = Some(out.checksum),
                Some(e) => assert_eq!(out.checksum, e, "replicas {replicas}"),
            }
            assert!(
                shadow_verify(&spec, &out.output, &env),
                "replicas {replicas}"
            );
        }
    }

    #[test]
    fn execute_matches_oracle_on_every_backend_3d() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        for backend in Backend::ALL {
            let mut spec = JobSpec::new_3d(9, 1, 20, 18, 6, 3);
            spec.backend = backend;
            let out = execute(&spec, 1, &token, &env).ok().expect("completes");
            let st = Stencil3D::<f32>::random(1, spec.seed).unwrap();
            let oracle = exec::run_3d(&st, &grid_3d(&spec), 3);
            match &out.output {
                OutputGrid::G3(g) => assert_eq!(&**g, &oracle, "{backend}"),
                _ => panic!("3D job produced a non-G3 output"),
            }
        }
    }

    #[test]
    fn execute_reuses_pooled_buffers_across_jobs() {
        // The whole point of the pool: the second job of a shape class
        // allocates nothing.
        let token = CancelToken::new();
        let (env, metrics) = test_env();
        let spec = JobSpec::new_2d(1, 2, 96, 24, 3);
        let out = execute(&spec, 1, &token, &env).ok().expect("completes");
        assert_eq!(
            metrics.counter("pool_misses").get(),
            3,
            "cold: in/out/scratch"
        );
        drop(out);
        let mut again = JobSpec::new_2d(2, 2, 96, 24, 3);
        again.seed = 7;
        let out = execute(&again, 1, &token, &env).ok().expect("completes");
        drop(out);
        assert_eq!(
            metrics.counter("pool_misses").get(),
            3,
            "warm: no new buffers"
        );
        assert_eq!(metrics.counter("pool_hits").get(), 3);
    }

    #[test]
    fn retries_materialize_grids_once_per_job() {
        // Regression for retry waste: the two injected-failure attempts
        // panic *before* any lease is taken, and the succeeding attempt
        // leases exactly one set of buffers and builds the stencil once —
        // retrying must not multiply either.
        let token = CancelToken::new();
        let (env, metrics) = test_env();
        install_quiet_panic_hook();
        let mut spec = JobSpec::new_2d(5, 1, 48, 12, 2);
        spec.fail_times = 2;
        for attempt in 1..=2 {
            assert!(panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = execute(&spec, attempt, &token, &env);
            }))
            .is_err());
        }
        let out = execute(&spec, 3, &token, &env).ok().expect("completes");
        assert_eq!(
            metrics.counter("pool_misses").get(),
            3,
            "one input + one output + one scratch across the whole retry sequence"
        );
        assert_eq!(metrics.counter("stencil_memo_misses").get(), 1);
        drop(out);
        // The same job replayed end-to-end is now fully pool-served.
        let out = execute(&spec, 3, &token, &env).ok().expect("completes");
        drop(out);
        assert_eq!(metrics.counter("pool_misses").get(), 3);
        assert_eq!(metrics.counter("pool_hits").get(), 3);
        assert_eq!(metrics.counter("stencil_memo_hits").get(), 1);
    }

    #[test]
    fn shadow_verification_passes_for_honest_runs() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        for backend in Backend::ALL {
            let mut spec = JobSpec::new_2d(11, 1, 80, 20, 4);
            spec.backend = backend;
            let out = execute(&spec, 1, &token, &env).ok().expect("completes");
            assert!(shadow_verify(&spec, &out.output, &env), "{backend}");
        }
    }

    #[test]
    fn shadow_verification_catches_corruption() {
        let (env, _) = test_env();
        let spec = JobSpec::new_2d(1, 1, 40, 10, 2);
        let mut corrupted = env.pool.lease_2d(40, 10);
        corrupted.as_mut_slice().fill(-1.0);
        assert!(!shadow_verify(&spec, &OutputGrid::G2(corrupted), &env));
    }

    #[test]
    fn shadow_sampling_is_deterministic_and_roughly_proportional() {
        let hits = |pct: u8| -> usize {
            (0..1000u64)
                .filter(|&id| {
                    let mut s = JobSpec::new_2d(id, 1, 32, 8, 1);
                    s.seed = id * 3;
                    should_shadow(&s, pct)
                })
                .count()
        };
        assert_eq!(hits(0), 0);
        assert_eq!(hits(100), 1000);
        let ten = hits(10);
        assert!((50..200).contains(&ten), "10% of 1000 ≈ {ten}");
        assert_eq!(ten, hits(10), "sampling is deterministic");

        let mut forced = JobSpec::new_2d(1, 1, 32, 8, 1);
        forced.shadow = true;
        assert!(should_shadow(&forced, 0), "shadow: true always verifies");
    }

    #[test]
    fn injected_failures_panic_then_succeed() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_2d(5, 1, 48, 12, 2);
        spec.fail_times = 2;
        install_quiet_panic_hook();
        for attempt in 1..=2 {
            assert!(panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = execute(&spec, attempt, &token, &env);
            }))
            .is_err());
        }
        assert!(execute(&spec, 3, &token, &env).is_ok());
    }

    #[test]
    fn checksum_distinguishes_grids() {
        assert_ne!(checksum_f32(&[1.0, 2.0]), checksum_f32(&[2.0, 1.0]));
        assert_eq!(checksum_f32(&[1.0, 2.0]), checksum_f32(&[1.0, 2.0]));
    }

    #[test]
    fn program_execution_matches_the_serial_interpreter_2d() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_2d(41, 1, 96, 64, 1);
        spec.seed = 9;
        spec.program = Some(StencilProgram::heat_gradient_2d(3));
        spec.validate().expect("canned program validates");
        let out = execute(&spec, 1, &token, &env).ok().expect("completes");
        let stats = out.program.as_ref().expect("program stats");
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.devices, 2);
        assert_eq!(stats.frames, 3);
        // The pipelined schedule strictly beats the 1-device serialization
        // once more than one frame streams through more than one stage.
        assert!(stats.pipelined_ticks < stats.sequential_ticks);
        for &(capacity, high_water) in &stats.channels {
            assert!(high_water <= capacity);
        }
        assert_eq!(
            stats.stage_cells.iter().sum::<u64>(),
            spec.work_cells(),
            "every placed stage fired every frame"
        );
        // Bit-exactness: every combined sink frame equals the serial
        // interpreter's, and the checksum is replay-stable.
        assert!(shadow_verify(&spec, &out.output, &env));
        let again = execute(&spec, 1, &token, &env).ok().expect("completes");
        assert_eq!(out.checksum, again.checksum);
    }

    #[test]
    fn program_execution_matches_the_serial_interpreter_3d() {
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_3d(42, 1, 24, 20, 16, 1);
        spec.seed = 5;
        spec.program = Some(StencilProgram::seismic_3d(2));
        spec.validate().expect("canned program validates");
        let out = execute(&spec, 1, &token, &env).ok().expect("completes");
        let stats = out.program.as_ref().expect("program stats");
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.devices, 3);
        assert!(stats.pipelined_ticks < stats.sequential_ticks);
        assert!(shadow_verify(&spec, &out.output, &env));
        match &out.output {
            OutputGrid::P3(frames) => assert_eq!(frames.len(), 2),
            _ => panic!("3D program must produce P3 output"),
        }
    }

    #[test]
    fn program_jobs_always_shadow_and_fold_dataflow_metrics() {
        let mut spec = JobSpec::new_2d(7, 1, 48, 32, 1);
        spec.program = Some(StencilProgram::heat_gradient_2d(2));
        assert!(
            should_shadow(&spec, 0),
            "program jobs are always shadow-verified"
        );

        let token = CancelToken::new();
        let (env, _) = test_env();
        let metrics = MetricsRegistry::new();
        let out = execute(&spec, 1, &token, &env).ok().expect("completes");
        aggregate_dataflow(&metrics, out.program.as_ref().expect("program stats"));
        assert_eq!(metrics.counter("programs_completed").get(), 1);
        assert_eq!(metrics.counter("program_nodes_placed").get(), 2);
        assert_eq!(metrics.counter("program_frames").get(), 2);
        assert_eq!(metrics.counter("program_cells").get(), spec.work_cells());
        assert!(
            metrics.counter("program_pipelined_ticks").get()
                <= metrics.counter("program_sequential_ticks").get()
        );
        assert!(
            metrics.gauge("program_channel_high_water").high_water()
                <= metrics.gauge("program_channel_depth").high_water()
        );
        assert_eq!(
            metrics.counter("program_stage0_cells").get()
                + metrics.counter("program_stage1_cells").get(),
            metrics.counter("program_cells").get()
        );

        // The model's outputs, pinned: the checksum and every
        // ProgramRunStats field of both canned programs under both device
        // profiles, as recorded before the frame loop and the schedule
        // model were separated. Only the ticks depend on the profile.
        let mut heat = JobSpec::new_2d(7, 1, 192, 128, 1);
        heat.program = Some(StencilProgram::heat_gradient_2d(4));
        let mut seismic = JobSpec::new_3d(9, 1, 48, 48, 48, 1);
        seismic.program = Some(StencilProgram::seismic_3d(3));
        let heat_ticks = [(5, 8, vec![4, 4]), (5, 8, vec![4, 4])];
        let seismic_ticks = [(196, 300, vec![108, 144, 48]), (119, 171, vec![54, 93, 24])];
        let pinned = [
            (
                &heat,
                0x1fa8_498f_362d_2012,
                2,
                vec![(2, 1)],
                4,
                vec![196_608, 98_304],
                heat_ticks,
            ),
            (
                &seismic,
                0x64d1_1ba2_eb3b_ae35,
                3,
                vec![(2, 1), (1, 1)],
                3,
                vec![331_776, 663_552, 331_776],
                seismic_ticks,
            ),
        ];
        for (spec, checksum, nodes, channels, frames, cells, ticks) in pinned {
            for (profile, ticks) in [DeviceProfile::Ddr, DeviceProfile::Hbm]
                .into_iter()
                .zip(ticks)
            {
                let metrics = MetricsRegistry::new();
                let env = ExecEnv::new(&metrics, profile);
                let out = execute(spec, 1, &token, &env).ok().expect("completes");
                let s = out.program.expect("program stats");
                let what = format!("{profile:?} {}D", spec.dim);
                assert_eq!(out.checksum, checksum, "{what}");
                assert_eq!(
                    (s.nodes, s.devices, s.frames),
                    (nodes, nodes, frames),
                    "{what}"
                );
                assert_eq!((&s.channels, &s.stage_cells), (&channels, &cells), "{what}");
                let got = (s.pipelined_ticks, s.sequential_ticks, s.stage_ticks);
                assert_eq!(got, ticks, "{what}");
            }
        }
    }

    #[test]
    fn kernel_jobs_execute_and_shadow_on_every_routed_backend() {
        use crate::job::KernelSpec;
        use stencil_core::{BoundaryCond, KernelClass};
        let token = CancelToken::new();
        let (env, metrics) = test_env();
        for backend in [Backend::SerialRef, Backend::CpuEngine, Backend::Functional] {
            for (taps, boundary) in [
                (KernelClass::Box, BoundaryCond::Periodic),
                (KernelClass::Asymmetric, BoundaryCond::Reflective),
                (KernelClass::Star, BoundaryCond::Clamp),
            ] {
                let mut spec = JobSpec::new_2d(19, 2, 61, 23, 3);
                spec.backend = backend;
                spec.kernel = Some(KernelSpec { taps, boundary });
                spec.validate().expect("kernel spec validates");
                assert!(should_shadow(&spec, 0), "kernel jobs always shadow");
                let out = execute(&spec, 1, &token, &env).ok().expect("completes");
                let desc = kernel_desc_for(&spec);
                let oracle = kernel_ir::reference_run_2d(&desc, &grid_2d(&spec), 3);
                match &out.output {
                    OutputGrid::G2(g) => assert_eq!(&**g, &oracle, "{backend} {taps} {boundary}"),
                    _ => panic!("2D kernel job produced a non-G2 output"),
                }
                assert!(shadow_verify(&spec, &out.output, &env));
                if backend == Backend::Functional {
                    // 23 rows: one row band per pass, three passes.
                    assert_eq!((out.counters.blocks, out.counters.passes), (3, 3));
                }
            }
        }
        // Compiled kernels are memoized: 3 distinct 2D descs were compiled
        // once each and then re-served across backends and shadow runs.
        assert_eq!(metrics.counter("kernel_memo_misses").get(), 3);
        assert!(metrics.counter("kernel_memo_hits").get() >= 3);
    }

    #[test]
    fn kernel_jobs_execute_3d_and_star_clamp_matches_legacy_oracle() {
        use crate::job::KernelSpec;
        use stencil_core::{BoundaryCond, KernelClass};
        let token = CancelToken::new();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_3d(23, 2, 20, 14, 9, 2);
        spec.backend = Backend::Functional;
        spec.kernel = Some(KernelSpec {
            taps: KernelClass::Box,
            boundary: BoundaryCond::Periodic,
        });
        spec.validate().expect("kernel spec validates");
        let out = execute(&spec, 1, &token, &env).ok().expect("completes");
        let desc = kernel_desc_for(&spec);
        let oracle = kernel_ir::reference_run_3d(&desc, &grid_3d(&spec), 2);
        match &out.output {
            OutputGrid::G3(g) => assert_eq!(&**g, &oracle),
            _ => panic!("3D kernel job produced a non-G3 output"),
        }
        assert!(shadow_verify(&spec, &out.output, &env));
        // Grid-resident Functional runs count every cell and row once per
        // pass and one block per z-plane per pass, at the compiled width.
        let (cells, iters) = (spec.work_cells(), spec.iters as u64);
        let c = &out.counters;
        assert_eq!((c.cells_updated, c.passes, c.lane_width), (cells, iters, 8));
        assert_eq!(c.rows_fed, (spec.ny * spec.nz) as u64 * iters);
        assert_eq!(c.blocks, spec.nz as u64 * iters);
        assert_eq!(c.bytes_moved, 2 * cells * 4);

        // A star/clamp kernel job is bit-exact with the star oracle: the
        // desc space strictly contains the paper's stencils.
        let mut star = JobSpec::new_2d(29, 2, 96, 24, 5);
        star.backend = Backend::CpuEngine;
        star.kernel = Some(KernelSpec {
            taps: KernelClass::Star,
            boundary: BoundaryCond::Clamp,
        });
        let out = execute(&star, 1, &token, &env).ok().expect("completes");
        let st = Stencil2D::<f32>::random(2, star.seed).unwrap();
        let legacy = exec::run_2d(&st, &grid_2d(&star), 5);
        match &out.output {
            OutputGrid::G2(g) => assert_eq!(&**g, &legacy, "star/clamp desc == star oracle"),
            _ => panic!("2D kernel job produced a non-G2 output"),
        }
    }

    #[test]
    fn cancelled_kernel_jobs_are_interrupted() {
        use crate::job::KernelSpec;
        use stencil_core::{BoundaryCond, KernelClass};
        let token = CancelToken::new();
        token.cancel();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_2d(31, 2, 48, 32, 4);
        spec.backend = Backend::Functional;
        spec.kernel = Some(KernelSpec {
            taps: KernelClass::Box,
            boundary: BoundaryCond::Periodic,
        });
        assert!(execute(&spec, 1, &token, &env).is_err());
    }

    #[test]
    fn cancelled_program_runs_are_interrupted() {
        let token = CancelToken::new();
        token.cancel();
        let (env, _) = test_env();
        let mut spec = JobSpec::new_2d(8, 1, 48, 32, 1);
        spec.program = Some(StencilProgram::heat_gradient_2d(2));
        assert!(execute(&spec, 1, &token, &env).is_err());
    }
}
