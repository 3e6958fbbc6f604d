//! The `BENCH_serve.json` load-test report: assembly and schema validation.
//!
//! [`ServeReport::build`] folds the runtime's terminal [`JobResult`]s and
//! metrics into one serializable document; [`validate_report_json`] is the
//! machine check CI runs against an emitted file (`stencil_serve
//! --check-report`), mirroring `stencil_bench --check-matrix`.

use crate::job::{Backend, JobResult, Outcome};
use crate::metrics::MetricsRegistry;
use crate::planner::{DeviceProfile, PlanEvent, ShapeSnapshot};
use crate::tenant::TenantSnapshot;
use serde::{Deserialize, Serialize};
use stencil_core::BlockConfig;

/// Current `schema_version` written by [`ServeReport::build`].
///
/// Version history: 1 = PR-3 serving report; 2 = adds the mandatory
/// `planner` section (auto-planning decisions and plan-cache statistics);
/// 3 = adds the mandatory `memory` section (grid-pool and stencil-memo
/// statistics from the zero-allocation data path); 4 = adds the device
/// profile (`device_profile`, `mem_channels`), the planner's hybrid
/// replica axis (`planner.shapes[].replicas`), and watermark eviction
/// accounting (`memory.pool_evictions`); 5 = adds the mandatory `tenants`
/// (per-tenant fairness accounting: completed/rejected/p99 under DWRR
/// scheduling and in-flight quotas) and `scheduler` (work-stealing
/// counters, cross-validated `steals == steal_hits + steal_misses`)
/// sections plus top-level `jobs_quota_rejected`; 6 = adds the mandatory
/// `dataflow` section (multi-device stencil-program accounting: nodes
/// placed, bounded-channel occupancy high waters, pipelined vs 1-device
/// sequential makespans, per-stage throughput — identities cross-validated
/// by [`validate_report_json`]); 7 = adds the mandatory `trace` section
/// (per-job JSONL trace accounting — exactly one record per terminal job —
/// plus planner-memory warm-start counters and the plan-cache convergence
/// headline, cross-validated against the job counters, the wall clock, and
/// the `planner` section); 8 = adds the compiled-kernel cache counters to
/// the `memory` section (`kernel_memo_hits` / `kernel_memo_misses` /
/// `kernel_memo_evictions` / `kernel_memo_hit_rate` from the runtime
/// kernel specializer, cross-validated by [`validate_report_json`]).
pub const SCHEMA_VERSION: u64 = 8;

/// Latency distribution summary (milliseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Observations.
    pub count: u64,
    /// Mean.
    pub mean_ms: f64,
    /// Median (conservative fixed-bucket estimate).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum observed.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Exact nearest-rank percentiles over raw samples (used for the
    /// per-tenant slices, which have no dedicated histogram).
    fn from_samples(samples: &mut [f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        LatencySummary {
            count: n as u64,
            mean_ms: samples.iter().sum::<f64>() / n as f64,
            p50_ms: rank(0.50),
            p95_ms: rank(0.95),
            p99_ms: rank(0.99),
            max_ms: samples[n - 1],
        }
    }

    /// Summarizes the named histogram in `metrics`.
    fn from_histogram(metrics: &MetricsRegistry, name: &str) -> LatencySummary {
        let h = metrics.histogram(name);
        LatencySummary {
            count: h.count(),
            mean_ms: h.mean_ms(),
            p50_ms: h.quantile_ms(0.50),
            p95_ms: h.quantile_ms(0.95),
            p99_ms: h.quantile_ms(0.99),
            max_ms: h.max_ms(),
        }
    }
}

/// Per-backend slice of the load test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackendReport {
    /// Backend name (`Backend::name`).
    pub backend: String,
    /// Jobs that reached a terminal state on this shard.
    pub jobs: u64,
    /// Completed jobs.
    pub completed: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Deadline expiries (queued or running).
    pub timed_out: u64,
    /// Explicit cancellations.
    pub cancelled: u64,
    /// Execution attempts beyond the first, summed over jobs.
    pub retries: u64,
    /// Shadow verifications performed.
    pub shadow_runs: u64,
    /// Shadow verifications that found a bit mismatch.
    pub shadow_mismatches: u64,
    /// Useful cell updates committed by completed jobs.
    pub cells_updated: u64,
    /// Run-phase latency distribution for this shard.
    pub run_ms: LatencySummary,
}

/// One shape class's slice of the plan cache: its geometry, how many jobs
/// it planned, and the candidate currently winning the epsilon-greedy race.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShapeReport {
    /// Stable shape label (`ShapeKey::label`), e.g. `d2r3x128y64z1`.
    pub key: String,
    /// Dimensionality of the shape class.
    pub dim: u64,
    /// Stencil radius of the shape class.
    pub rad: u64,
    /// Candidate plans in the shape's table.
    pub candidates: u64,
    /// Jobs planned against this shape.
    pub planned: u64,
    /// Backend of the winning candidate.
    pub backend: String,
    /// Winning candidate's spatial block size in x.
    pub bsize_x: u64,
    /// Winning candidate's spatial block size in y (0 for 2D).
    pub bsize_y: u64,
    /// Winning candidate's lane width.
    pub parvec: u64,
    /// Winning candidate's temporal blocking depth.
    pub partime: u64,
    /// Winning candidate's spatially replicated chain count (1 = the
    /// classic single deep-temporal chain).
    pub replicas: u64,
    /// Mean measured cells/s of the winner (0 until feedback arrives).
    pub mean_cells_per_sec: f64,
}

/// The `planner` section: every auto-planning decision, aggregated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannerReport {
    /// Whether any job was auto-planned this run.
    pub enabled: bool,
    /// Plan requests (one per auto-mode submission).
    pub plans_requested: u64,
    /// Requests answered from an already-built candidate table.
    pub cache_hits: u64,
    /// Requests not answered from a cached table: first sight of a shape
    /// (the table had to be built) or a request no candidate could serve.
    pub cache_misses: u64,
    /// Cache hits that explored a non-greedy candidate (epsilon draw).
    pub explored: u64,
    /// Cache hits that exploited the best-measured candidate.
    pub exploited: u64,
    /// Completed jobs that reported throughput back into the cache.
    pub feedback_samples: u64,
    /// `cache_hits / plans_requested` (0 when nothing was planned).
    pub hit_rate: f64,
    /// Per-shape-class cache contents at drain time.
    pub shapes: Vec<ShapeReport>,
}

impl PlannerReport {
    /// Folds the planner counters and the drain-time cache snapshot into
    /// the report section.
    fn build(metrics: &MetricsRegistry, shapes: &[ShapeSnapshot]) -> PlannerReport {
        let count = |name: &str| metrics.counter(name).get();
        let requested = count("plans_requested");
        let hits = count("plan_cache_hits");
        PlannerReport {
            enabled: requested > 0,
            plans_requested: requested,
            cache_hits: hits,
            cache_misses: count("plan_cache_misses"),
            explored: count("plans_explored"),
            exploited: count("plans_exploited"),
            feedback_samples: count("plan_feedback_samples"),
            hit_rate: if requested > 0 {
                hits as f64 / requested as f64
            } else {
                0.0
            },
            shapes: shapes
                .iter()
                .map(|s| {
                    let best = &s.candidates[s.best_index];
                    ShapeReport {
                        key: s.key.label(),
                        dim: s.key.dim as u64,
                        rad: s.key.rad as u64,
                        candidates: s.candidates.len() as u64,
                        planned: s.planned,
                        backend: best.backend.name().to_string(),
                        bsize_x: best.config.bsize_x as u64,
                        bsize_y: best.config.bsize_y as u64,
                        parvec: best.config.parvec as u64,
                        partime: best.config.partime as u64,
                        replicas: best.replicas as u64,
                        mean_cells_per_sec: s.mean_cells_per_sec,
                    }
                })
                .collect(),
        }
    }
}

/// The `memory` section: how much allocation work the pooled data path
/// avoided. All counts come straight from the runtime's [`MetricsRegistry`]
/// — the same counters the `GridPool` and `StencilMemo` maintain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Grid leases served from a pool free list.
    pub pool_hits: u64,
    /// Grid leases that allocated a fresh buffer (cold classes).
    pub pool_misses: u64,
    /// Buffers handed back to a free list on lease drop.
    pub pool_returns: u64,
    /// Buffers dropped on return because their class list was full, or
    /// because accepting them would breach the resident-byte budget.
    pub pool_discards: u64,
    /// Already-pooled buffers freed by the watermark shrink when the
    /// resident gauge approached the configured budget.
    pub pool_evictions: u64,
    /// `pool_hits / (pool_hits + pool_misses)` (0 when nothing was leased).
    pub pool_hit_rate: f64,
    /// Heap allocations the pool avoided — identical to `pool_hits`, named
    /// for the headline it is.
    pub allocations_avoided: u64,
    /// Cumulative bytes served from recycled buffers.
    pub bytes_pooled: u64,
    /// Most bytes ever parked in the free lists at once.
    pub pool_resident_bytes_high_water: u64,
    /// Stencil constructions answered from the memo.
    pub stencil_memo_hits: u64,
    /// Stencil constructions that had to build coefficients.
    pub stencil_memo_misses: u64,
    /// Compiled-kernel requests answered from the specializer cache.
    pub kernel_memo_hits: u64,
    /// Compiled-kernel requests that ran the runtime specializer.
    pub kernel_memo_misses: u64,
    /// Compiled kernels dropped by the cache's FIFO bound (each eviction
    /// follows an insert, and every insert follows a miss, so evictions
    /// can never exceed misses).
    pub kernel_memo_evictions: u64,
    /// `kernel_memo_hits / (kernel_memo_hits + kernel_memo_misses)` (0 when
    /// no kernel was ever requested).
    pub kernel_memo_hit_rate: f64,
}

impl MemoryReport {
    /// Folds the pool and memo counters into the report section.
    fn build(metrics: &MetricsRegistry) -> MemoryReport {
        let count = |name: &str| metrics.counter(name).get();
        let hits = count("pool_hits");
        let misses = count("pool_misses");
        let khits = count("kernel_memo_hits");
        let kmisses = count("kernel_memo_misses");
        MemoryReport {
            pool_hits: hits,
            pool_misses: misses,
            pool_returns: count("pool_returns"),
            pool_discards: count("pool_discards"),
            pool_evictions: count("pool_evictions"),
            pool_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            allocations_avoided: hits,
            bytes_pooled: count("pool_bytes_pooled"),
            pool_resident_bytes_high_water: metrics.gauge("pool_resident_bytes").high_water().max(0)
                as u64,
            stencil_memo_hits: count("stencil_memo_hits"),
            stencil_memo_misses: count("stencil_memo_misses"),
            kernel_memo_hits: khits,
            kernel_memo_misses: kmisses,
            kernel_memo_evictions: count("kernel_memo_evictions"),
            kernel_memo_hit_rate: if khits + kmisses > 0 {
                khits as f64 / (khits + kmisses) as f64
            } else {
                0.0
            },
        }
    }
}

/// One tenant's slice of the load test: admission accounting from the
/// [`crate::tenant::TenantRegistry`] cross-validated against outcome
/// counts derived independently from the terminal results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Effective DWRR weight.
    pub weight: u64,
    /// Effective in-flight cap (0 = unlimited).
    pub max_in_flight: u64,
    /// Jobs that got past admission (registry side).
    pub admitted: u64,
    /// Submissions rejected at the tenant's in-flight quota.
    pub rejected_quota: u64,
    /// Highest concurrent in-flight count observed.
    pub in_flight_high_water: u64,
    /// Jobs that reached a terminal state (results side — the validator
    /// requires this to equal `admitted`: nothing admitted may be lost).
    pub jobs: u64,
    /// Completed jobs.
    pub completed: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Deadline expiries.
    pub timed_out: u64,
    /// Explicit cancellations.
    pub cancelled: u64,
    /// Useful cell updates committed by this tenant's completed jobs.
    pub cells_updated: u64,
    /// Admission-to-terminal latency distribution for this tenant (exact
    /// nearest-rank percentiles over its results).
    pub total_ms: LatencySummary,
}

/// The `scheduler` section: the DWRR quantum and three steal counters.
/// Shards run the batches they pop and never steal, so the runtime writes
/// the counters as 0. They stay in schema v8 so the committed reports
/// remain valid, and the validator still checks
/// `steals == steal_hits + steal_misses`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerReport {
    /// DWRR refill per lane visit before the weight multiplier, in cells.
    pub dwrr_quantum_cells: u64,
    /// Steal sweeps (0 since the runtime stopped stealing).
    pub steals: u64,
    /// Sweeps that claimed a job (0).
    pub steal_hits: u64,
    /// Sweeps that found nothing (0).
    pub steal_misses: u64,
}

/// The steal counters [`ServeReport::build`] copies into the `scheduler`
/// section. The runtime no longer steals, so every field reads 0; the
/// type keeps `build`'s signature and the report schema stable until a
/// benchmark change drops the steal metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealTotals {
    /// Steal sweeps.
    pub steals: u64,
    /// Sweeps that claimed a job.
    pub steal_hits: u64,
    /// Sweeps that found nothing.
    pub steal_misses: u64,
}

/// One topological pipeline stage's slice of the `dataflow` section,
/// aggregated across every completed program job (stage `k` of every
/// program contributes to entry `k`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Topological stage index (0-based, dense).
    pub stage: u64,
    /// Useful cell updates this stage committed across all programs.
    pub cells_updated: u64,
    /// Virtual ticks the stage's device spent busy.
    pub busy_ticks: u64,
    /// `cells_updated / busy_ticks` (0 when the stage never fired).
    pub cells_per_tick: f64,
}

/// The `dataflow` section: multi-device stencil-program accounting from
/// the cluster simulator. All-zero (with `enabled: false`) when the
/// workload contained no program jobs. The validator enforces the section's
/// internal identities: channel high waters bounded by capacities, stage
/// cells summing to the total, stage busy ticks summing to the sequential
/// makespan (a serialized schedule never idles), the pipelined makespan
/// never exceeding the sequential one, and the perf-model estimates
/// ordered the same way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataflowReport {
    /// Whether any program job entered the runtime.
    pub enabled: bool,
    /// Program jobs admitted.
    pub programs_requested: u64,
    /// Program jobs that completed (and were bit-verified — program jobs
    /// always shadow against the serial interpreter).
    pub programs_completed: u64,
    /// Program nodes placed onto devices, summed over completed programs.
    pub nodes_placed: u64,
    /// Most devices any single placement used.
    pub devices_used_max: u64,
    /// Inter-device channels instantiated, summed over completed programs.
    pub channels: u64,
    /// Deepest configured channel capacity observed.
    pub channel_depth_max: u64,
    /// Highest channel occupancy observed — **must not exceed**
    /// `channel_depth_max` (bounded channels cannot overfill).
    pub channel_high_water_max: u64,
    /// Frames streamed through pipelines, summed over completed programs.
    pub frames: u64,
    /// Useful cell updates committed by program stages.
    pub cells_updated: u64,
    /// Virtual makespan of the placed (pipelined) schedules, summed.
    pub pipelined_ticks: u64,
    /// Virtual makespan of the same programs serialized on one device.
    pub sequential_ticks: u64,
    /// `cells_updated / pipelined_ticks` — the measured pipelined rate.
    pub measured_pipelined_cells_per_tick: f64,
    /// `cells_updated / sequential_ticks` — the measured 1-device rate.
    pub measured_sequential_cells_per_tick: f64,
    /// Perf-model estimate for the pipelined placements, cells/s (floored
    /// per job; per job the pipelined estimate dominates the sequential
    /// one, so the floored sums stay ordered).
    pub est_pipelined_cells_per_sec: u64,
    /// Perf-model estimate for the 1-device sequential baselines, cells/s.
    pub est_sequential_cells_per_sec: u64,
    /// Per-stage aggregates, dense from stage 0.
    pub stages: Vec<StageReport>,
}

impl DataflowReport {
    fn build(metrics: &MetricsRegistry) -> DataflowReport {
        let count = |name: &str| metrics.counter(name).get();
        let hw = |name: &str| metrics.gauge(name).high_water().max(0) as u64;
        let cells = count("program_cells");
        let pipelined_ticks = count("program_pipelined_ticks");
        let sequential_ticks = count("program_sequential_ticks");
        let mut stages = Vec::new();
        for k in 0..crate::program::MAX_NODES {
            let cells_updated = count(&format!("program_stage{k}_cells"));
            let busy_ticks = count(&format!("program_stage{k}_ticks"));
            if cells_updated == 0 && busy_ticks == 0 {
                break;
            }
            stages.push(StageReport {
                stage: k as u64,
                cells_updated,
                busy_ticks,
                cells_per_tick: if busy_ticks > 0 {
                    cells_updated as f64 / busy_ticks as f64
                } else {
                    0.0
                },
            });
        }
        DataflowReport {
            enabled: count("programs_requested") > 0,
            programs_requested: count("programs_requested"),
            programs_completed: count("programs_completed"),
            nodes_placed: count("program_nodes_placed"),
            devices_used_max: hw("program_devices"),
            channels: count("program_channels"),
            channel_depth_max: hw("program_channel_depth"),
            channel_high_water_max: hw("program_channel_high_water"),
            frames: count("program_frames"),
            cells_updated: cells,
            pipelined_ticks,
            sequential_ticks,
            measured_pipelined_cells_per_tick: if pipelined_ticks > 0 {
                cells as f64 / pipelined_ticks as f64
            } else {
                0.0
            },
            measured_sequential_cells_per_tick: if sequential_ticks > 0 {
                cells as f64 / sequential_ticks as f64
            } else {
                0.0
            },
            est_pipelined_cells_per_sec: count("program_est_pipelined_cps"),
            est_sequential_cells_per_sec: count("program_est_sequential_cps"),
            stages,
        }
    }
}

/// The `trace` section: accounting for the per-job JSONL trace stream and
/// the planner's persistent-memory warm start. The validator requires the
/// lossless-writer contract to hold (exactly one record per terminal job),
/// bounds every traced span by the run's wall clock, and reconciles the
/// warm-start counters against the `planner` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// Trace record schema version the runtime emitted
    /// ([`crate::trace::TRACE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Trace records emitted — **must equal** the terminal job count; the
    /// bounded writer blocks producers rather than dropping records.
    pub records: u64,
    /// Largest admission-to-terminal span among the results, in ms —
    /// necessarily bounded by the run's wall clock.
    pub max_span_ms: f64,
    /// Shape classes seeded from a planner-memory sidecar at boot.
    pub warm_shapes_loaded: u64,
    /// Sidecar loads rejected as corrupt, stale, or mismatched — each one
    /// cold-started the planner instead of panicking.
    pub warm_rejected: u64,
    /// Plan-cache hits answered by a warm-started (sidecar-seeded) entry.
    pub warm_hits: u64,
    /// Plan decisions logged in the planner's in-order history — **must
    /// equal** `planner.plans_requested`.
    pub plans_logged: u64,
    /// Earliest fraction of the plan history at which the cumulative cache
    /// hit rate first reached the run's final hit rate: ~0 for a warm start
    /// (the first request already hits), ~1 for a single-shape cold start
    /// (the opening miss is only amortized by the full run), 0 when nothing
    /// was planned. `stencil_serve --min-warm-convergence` gates on it.
    pub converged_at_fraction: f64,
}

impl TraceReport {
    /// Folds the trace/warm-start counters and the planner's plan history
    /// into the report section.
    fn build(
        metrics: &MetricsRegistry,
        history: &[PlanEvent],
        results: &[JobResult],
    ) -> TraceReport {
        let count = |name: &str| metrics.counter(name).get();
        TraceReport {
            schema_version: crate::trace::TRACE_SCHEMA_VERSION,
            records: count("trace_records"),
            max_span_ms: results.iter().map(|r| r.total_ms).fold(0.0, f64::max),
            warm_shapes_loaded: count("planner_warm_shapes"),
            warm_rejected: count("planner_warm_rejected"),
            warm_hits: count("plan_cache_warm_hits"),
            plans_logged: history.len() as u64,
            converged_at_fraction: converged_at_fraction(history),
        }
    }
}

/// Earliest prefix fraction of the plan history whose cumulative cache hit
/// rate already matches the run's final hit rate — the warm-start
/// convergence headline. Returns 0 for an empty history; otherwise the
/// result is in `(0, 1]` (the full history trivially qualifies).
pub fn converged_at_fraction(history: &[PlanEvent]) -> f64 {
    let n = history.len();
    if n == 0 {
        return 0.0;
    }
    let total_hits = history.iter().filter(|e| e.hit).count();
    let final_rate = total_hits as f64 / n as f64;
    let mut hits = 0usize;
    for (k, e) in history.iter().enumerate() {
        if e.hit {
            hits += 1;
        }
        if hits as f64 / (k + 1) as f64 + 1e-12 >= final_rate {
            return (k + 1) as f64 / n as f64;
        }
    }
    1.0
}

/// The complete load-test report (`BENCH_serve.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload source: `"synthetic"` or `"jsonl"`.
    pub workload: String,
    /// Synthetic seed (0 for replayed files).
    pub seed: u64,
    /// Whether the workload ran at CI smoke scale.
    pub quick: bool,
    /// Device profile the planner ranked candidates against
    /// (`DeviceProfile::name`: `"ddr"` or `"hbm"`).
    pub device_profile: String,
    /// Independent memory channels of the profile's device — the bound on
    /// any winning plan's replica count.
    pub mem_channels: u64,
    /// Jobs the workload contained.
    pub jobs_requested: u64,
    /// Jobs offered to the runtime (equals `jobs_requested`).
    pub jobs_submitted: u64,
    /// Jobs past admission control.
    pub jobs_admitted: u64,
    /// Jobs refused with queue-full backpressure.
    pub jobs_rejected: u64,
    /// Jobs refused as invalid.
    pub jobs_invalid: u64,
    /// Jobs refused at a per-tenant in-flight quota (distinct from the
    /// global queue-full `jobs_rejected`).
    pub jobs_quota_rejected: u64,
    /// Completed jobs.
    pub jobs_completed: u64,
    /// Jobs that exhausted retries.
    pub jobs_failed: u64,
    /// Deadline expiries.
    pub jobs_timed_out: u64,
    /// Explicit cancellations.
    pub jobs_cancelled: u64,
    /// Retry attempts across all jobs.
    pub retries: u64,
    /// Multi-job batches popped by shards.
    pub batches: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u64,
    /// Shadow verifications performed.
    pub shadow_runs: u64,
    /// Shadow mismatches — **must be 0** for a healthy serving path.
    pub shadow_mismatches: u64,
    /// Worker threads that failed to join at drain — **must be 0**.
    pub wedged_workers: u64,
    /// Wall time of the whole test, in seconds.
    pub wall_seconds: f64,
    /// Terminal jobs per second of wall time.
    pub jobs_per_second: f64,
    /// Useful cell updates committed by completed jobs.
    pub cells_updated: u64,
    /// `cells_updated / wall_seconds`.
    pub cells_per_second: f64,
    /// Queue-wait latency distribution.
    pub queue_wait_ms: LatencySummary,
    /// Run-phase latency distribution.
    pub run_ms: LatencySummary,
    /// Admission-to-terminal latency distribution.
    pub total_ms: LatencySummary,
    /// Per-backend slices (one entry per backend that saw jobs).
    pub backends: Vec<BackendReport>,
    /// Auto-planning decisions and plan-cache statistics.
    pub planner: PlannerReport,
    /// Grid-pool and stencil-memo statistics (the zero-allocation path).
    pub memory: MemoryReport,
    /// Per-tenant fairness accounting (one entry per tenant seen).
    pub tenants: Vec<TenantReport>,
    /// The DWRR quantum and the (zero) steal counters.
    pub scheduler: SchedulerReport,
    /// Multi-device stencil-program accounting (cluster simulator).
    pub dataflow: DataflowReport,
    /// Per-job trace accounting and planner warm-start convergence.
    pub trace: TraceReport,
}

impl ServeReport {
    /// Assembles the report from terminal results, the live registry, the
    /// planner's drain-time cache snapshot (empty slice when nothing was
    /// auto-planned), the tenant registry's drain snapshot, and the steal
    /// totals (all zero from the runtime; see [`StealTotals`]).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        workload: &str,
        seed: u64,
        quick: bool,
        device: DeviceProfile,
        jobs_requested: usize,
        results: &[JobResult],
        metrics: &MetricsRegistry,
        planner_shapes: &[ShapeSnapshot],
        plan_history: &[PlanEvent],
        tenant_snapshots: &[TenantSnapshot],
        steals: StealTotals,
        wedged_workers: usize,
        wall_seconds: f64,
    ) -> ServeReport {
        let count = |name: &str| metrics.counter(name).get();
        let cells_updated: u64 = results.iter().map(|r| r.cells_updated).sum();
        let backends = Backend::ALL
            .iter()
            .filter_map(|&b| {
                let slice: Vec<&JobResult> = results.iter().filter(|r| r.backend == b).collect();
                if slice.is_empty() {
                    return None;
                }
                let of = |o: Outcome| slice.iter().filter(|r| r.outcome == o).count() as u64;
                Some(BackendReport {
                    backend: b.name().to_string(),
                    jobs: slice.len() as u64,
                    completed: of(Outcome::Completed),
                    failed: of(Outcome::Failed),
                    timed_out: of(Outcome::TimedOut),
                    cancelled: of(Outcome::Cancelled),
                    retries: slice
                        .iter()
                        .map(|r| r.attempts.saturating_sub(1) as u64)
                        .sum(),
                    shadow_runs: slice.iter().filter(|r| r.shadow_match.is_some()).count() as u64,
                    shadow_mismatches: slice
                        .iter()
                        .filter(|r| r.shadow_match == Some(false))
                        .count() as u64,
                    cells_updated: slice.iter().map(|r| r.cells_updated).sum(),
                    run_ms: LatencySummary::from_histogram(
                        metrics,
                        &format!("run_ms_{}", b.name()),
                    ),
                })
            })
            .collect();
        let mut tenant_names: std::collections::BTreeSet<String> =
            results.iter().map(|r| r.tenant.clone()).collect();
        for t in tenant_snapshots {
            tenant_names.insert(t.tenant.clone());
        }
        let tenants = tenant_names
            .iter()
            .map(|name| {
                let slice: Vec<&JobResult> = results.iter().filter(|r| &r.tenant == name).collect();
                let snap = tenant_snapshots.iter().find(|t| &t.tenant == name);
                let of = |o: Outcome| slice.iter().filter(|r| r.outcome == o).count() as u64;
                let mut total: Vec<f64> = slice.iter().map(|r| r.total_ms).collect();
                TenantReport {
                    tenant: name.clone(),
                    weight: snap.map_or(1, |t| t.weight),
                    max_in_flight: snap.map_or(0, |t| t.max_in_flight as u64),
                    // Without a registry snapshot (unit-test paths) the
                    // results themselves are the only admission record.
                    admitted: snap.map_or(slice.len() as u64, |t| t.admitted),
                    rejected_quota: snap.map_or(0, |t| t.rejected_quota),
                    in_flight_high_water: snap.map_or(0, |t| t.in_flight_high_water as u64),
                    jobs: slice.len() as u64,
                    completed: of(Outcome::Completed),
                    failed: of(Outcome::Failed),
                    timed_out: of(Outcome::TimedOut),
                    cancelled: of(Outcome::Cancelled),
                    cells_updated: slice.iter().map(|r| r.cells_updated).sum(),
                    total_ms: LatencySummary::from_samples(&mut total),
                }
            })
            .collect();
        ServeReport {
            schema_version: SCHEMA_VERSION,
            workload: workload.to_string(),
            seed,
            quick,
            device_profile: device.name().to_string(),
            mem_channels: device.mem_channels() as u64,
            jobs_requested: jobs_requested as u64,
            jobs_submitted: count("jobs_submitted"),
            jobs_admitted: count("jobs_admitted"),
            jobs_rejected: count("jobs_rejected"),
            jobs_invalid: count("jobs_invalid"),
            jobs_quota_rejected: count("jobs_quota_rejected"),
            jobs_completed: count("jobs_completed"),
            jobs_failed: count("jobs_failed"),
            jobs_timed_out: count("jobs_timed_out"),
            jobs_cancelled: count("jobs_cancelled"),
            retries: count("retries"),
            batches: count("batches"),
            max_queue_depth: metrics.gauge("queue_depth").high_water().max(0) as u64,
            shadow_runs: count("shadow_runs"),
            shadow_mismatches: count("shadow_mismatches"),
            wedged_workers: wedged_workers as u64,
            wall_seconds,
            jobs_per_second: if wall_seconds > 0.0 {
                results.len() as f64 / wall_seconds
            } else {
                0.0
            },
            cells_updated,
            cells_per_second: if wall_seconds > 0.0 {
                cells_updated as f64 / wall_seconds
            } else {
                0.0
            },
            queue_wait_ms: LatencySummary::from_histogram(metrics, "queue_wait_ms"),
            run_ms: LatencySummary::from_histogram(metrics, "run_ms"),
            total_ms: LatencySummary::from_histogram(metrics, "total_ms"),
            backends,
            planner: PlannerReport::build(metrics, planner_shapes),
            memory: MemoryReport::build(metrics),
            tenants,
            scheduler: SchedulerReport {
                dwrr_quantum_cells: crate::queue::DWRR_QUANTUM_CELLS,
                steals: steals.steals,
                steal_hits: steals.steal_hits,
                steal_misses: steals.steal_misses,
            },
            dataflow: DataflowReport::build(metrics),
            trace: TraceReport::build(metrics, plan_history, results),
        }
    }

    /// True when the load test demonstrated a healthy serving path: no
    /// shadow mismatches, no wedged workers, and every admitted job reached
    /// a terminal state.
    pub fn healthy(&self) -> bool {
        self.shadow_mismatches == 0
            && self.wedged_workers == 0
            && self.terminal_jobs() == self.jobs_admitted
    }

    /// Jobs that reached a terminal state.
    pub fn terminal_jobs(&self) -> u64 {
        self.jobs_completed + self.jobs_failed + self.jobs_timed_out + self.jobs_cancelled
    }
}

/// Validates an emitted `BENCH_serve.json` against the documented schema.
/// Returns the number of backend slices on success.
///
/// # Errors
/// A human-readable description of the first violation found.
pub fn validate_report_json(text: &str) -> Result<usize, String> {
    let report: ServeReport =
        serde_json::from_str(text).map_err(|e| format!("schema mismatch: {e}"))?;
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != expected {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    if report.workload != "synthetic" && report.workload != "jsonl" {
        return Err(format!("unknown workload kind `{}`", report.workload));
    }
    let Some(device) = DeviceProfile::parse(&report.device_profile) else {
        return Err(format!(
            "unknown device_profile `{}`",
            report.device_profile
        ));
    };
    if report.mem_channels != device.mem_channels() as u64 {
        return Err(format!(
            "mem_channels {} disagrees with device_profile `{}` ({} channels)",
            report.mem_channels,
            report.device_profile,
            device.mem_channels()
        ));
    }
    if report.backends.is_empty() {
        return Err("no backend slices".into());
    }
    if report.terminal_jobs() != report.jobs_admitted {
        return Err(format!(
            "terminal jobs ({}) != admitted ({}): jobs were lost",
            report.terminal_jobs(),
            report.jobs_admitted
        ));
    }
    if report.jobs_submitted
        != report.jobs_admitted
            + report.jobs_rejected
            + report.jobs_invalid
            + report.jobs_quota_rejected
    {
        return Err("admitted + rejected + invalid + quota_rejected != submitted".into());
    }
    for (name, l) in [
        ("queue_wait_ms", &report.queue_wait_ms),
        ("run_ms", &report.run_ms),
        ("total_ms", &report.total_ms),
    ] {
        validate_latency(name, l)?;
    }
    let mut seen = std::collections::BTreeSet::new();
    for b in &report.backends {
        if Backend::parse(&b.backend).is_none() {
            return Err(format!("unknown backend `{}`", b.backend));
        }
        if !seen.insert(b.backend.clone()) {
            return Err(format!("duplicate backend slice `{}`", b.backend));
        }
        if b.completed + b.failed + b.timed_out + b.cancelled != b.jobs {
            return Err(format!(
                "backend `{}`: outcomes do not sum to jobs",
                b.backend
            ));
        }
        if b.shadow_mismatches > b.shadow_runs {
            return Err(format!("backend `{}`: mismatches > shadow runs", b.backend));
        }
        validate_latency(&format!("backend `{}` run_ms", b.backend), &b.run_ms)?;
    }
    let by_backend: u64 = report.backends.iter().map(|b| b.jobs).sum();
    if by_backend != report.terminal_jobs() {
        return Err("backend slices do not sum to terminal jobs".into());
    }
    if !report.wall_seconds.is_finite() || report.wall_seconds <= 0.0 {
        return Err("wall_seconds must be a positive number".into());
    }
    // The headline throughput numbers must be real and must agree with the
    // raw counts they summarize (floats round-trip exactly through the
    // writer, so the tolerance only absorbs the division).
    for (name, got, expected) in [
        (
            "jobs_per_second",
            report.jobs_per_second,
            report.terminal_jobs() as f64 / report.wall_seconds,
        ),
        (
            "cells_per_second",
            report.cells_per_second,
            report.cells_updated as f64 / report.wall_seconds,
        ),
    ] {
        if !got.is_finite() || got < 0.0 {
            return Err(format!("{name} must be finite and >= 0"));
        }
        if (got - expected).abs() > expected.abs().max(1.0) * 1e-9 {
            return Err(format!(
                "{name} {got} inconsistent with its raw counts ({expected})"
            ));
        }
    }
    validate_planner(&report.planner, device)?;
    validate_memory(&report.memory)?;
    validate_tenants(&report)?;
    validate_scheduler(&report.scheduler)?;
    validate_dataflow(&report.dataflow)?;
    validate_trace(&report)?;
    Ok(report.backends.len())
}

/// Cross-validates the `dataflow` section's internal identities. These are
/// structural facts about the cluster simulator, not tunables: a bounded
/// channel can never hold more than its capacity, stage cells partition the
/// total, a 1-device serialization never idles (so stage busy ticks sum to
/// the sequential makespan), pipelining never loses to serialization, and
/// the perf-model estimates are ordered the same way.
fn validate_dataflow(d: &DataflowReport) -> Result<(), String> {
    if d.enabled != (d.programs_requested > 0) {
        return Err("dataflow.enabled disagrees with programs_requested".into());
    }
    if d.programs_completed > d.programs_requested {
        return Err(format!(
            "dataflow: completed ({}) > requested ({})",
            d.programs_completed, d.programs_requested
        ));
    }
    if d.channel_high_water_max > d.channel_depth_max {
        return Err(format!(
            "dataflow: channel high water {} exceeds deepest capacity {} — \
             bounded channels cannot overfill",
            d.channel_high_water_max, d.channel_depth_max
        ));
    }
    let stage_cells: u64 = d.stages.iter().map(|s| s.cells_updated).sum();
    if stage_cells != d.cells_updated {
        return Err(format!(
            "dataflow: stage cells sum to {stage_cells}, total says {}",
            d.cells_updated
        ));
    }
    let stage_ticks: u64 = d.stages.iter().map(|s| s.busy_ticks).sum();
    if stage_ticks != d.sequential_ticks {
        return Err(format!(
            "dataflow: stage busy ticks sum to {stage_ticks}, sequential \
             makespan says {} (a serialized schedule never idles)",
            d.sequential_ticks
        ));
    }
    if d.pipelined_ticks > d.sequential_ticks {
        return Err(format!(
            "dataflow: pipelined makespan {} exceeds sequential {}",
            d.pipelined_ticks, d.sequential_ticks
        ));
    }
    if d.programs_completed > 0 {
        if d.stages.is_empty() {
            return Err("dataflow: programs completed but no stage slices".into());
        }
        if d.nodes_placed < d.programs_completed {
            return Err("dataflow: fewer nodes placed than programs completed".into());
        }
        if d.est_pipelined_cells_per_sec < d.est_sequential_cells_per_sec {
            return Err(format!(
                "dataflow: pipelined estimate {} below sequential estimate {}",
                d.est_pipelined_cells_per_sec, d.est_sequential_cells_per_sec
            ));
        }
    }
    for (name, got, cells, ticks) in [
        (
            "measured_pipelined_cells_per_tick",
            d.measured_pipelined_cells_per_tick,
            d.cells_updated,
            d.pipelined_ticks,
        ),
        (
            "measured_sequential_cells_per_tick",
            d.measured_sequential_cells_per_tick,
            d.cells_updated,
            d.sequential_ticks,
        ),
    ] {
        let expected = if ticks > 0 {
            cells as f64 / ticks as f64
        } else {
            0.0
        };
        if !got.is_finite() || (got - expected).abs() > expected.abs().max(1.0) * 1e-9 {
            return Err(format!(
                "dataflow.{name} {got} inconsistent with its raw counts ({expected})"
            ));
        }
    }
    for (k, s) in d.stages.iter().enumerate() {
        if s.stage != k as u64 {
            return Err(format!("dataflow: stage slice {k} labeled {}", s.stage));
        }
        let expected = if s.busy_ticks > 0 {
            s.cells_updated as f64 / s.busy_ticks as f64
        } else {
            0.0
        };
        if !s.cells_per_tick.is_finite()
            || (s.cells_per_tick - expected).abs() > expected.abs().max(1.0) * 1e-9
        {
            return Err(format!(
                "dataflow: stage {k} cells_per_tick {} inconsistent with \
                 cells/ticks ({expected})",
                s.cells_per_tick
            ));
        }
    }
    Ok(())
}

/// Cross-validates the `tenants` section: registry-side admission counts
/// must reconcile with the outcome counts derived from the results, both
/// per tenant and summed against the top-level job counters.
fn validate_tenants(report: &ServeReport) -> Result<(), String> {
    if report.tenants.is_empty() {
        return Err("no tenant slices".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for t in &report.tenants {
        if t.tenant.is_empty() {
            return Err("empty tenant name".into());
        }
        if !seen.insert(t.tenant.clone()) {
            return Err(format!("duplicate tenant slice `{}`", t.tenant));
        }
        if t.weight == 0 {
            return Err(format!("tenant `{}`: weight must be >= 1", t.tenant));
        }
        if t.completed + t.failed + t.timed_out + t.cancelled != t.jobs {
            return Err(format!(
                "tenant `{}`: outcomes do not sum to jobs",
                t.tenant
            ));
        }
        if t.jobs != t.admitted {
            return Err(format!(
                "tenant `{}`: terminal jobs ({}) != admitted ({}): jobs were lost",
                t.tenant, t.jobs, t.admitted
            ));
        }
        if t.max_in_flight != 0 && t.in_flight_high_water > t.max_in_flight {
            return Err(format!(
                "tenant `{}`: in-flight high water {} exceeds cap {}",
                t.tenant, t.in_flight_high_water, t.max_in_flight
            ));
        }
        validate_latency(&format!("tenant `{}` total_ms", t.tenant), &t.total_ms)?;
    }
    for (name, per_tenant, top) in [
        (
            "admitted",
            report.tenants.iter().map(|t| t.admitted).sum::<u64>(),
            report.jobs_admitted,
        ),
        (
            "rejected_quota",
            report.tenants.iter().map(|t| t.rejected_quota).sum(),
            report.jobs_quota_rejected,
        ),
        (
            "completed",
            report.tenants.iter().map(|t| t.completed).sum(),
            report.jobs_completed,
        ),
        (
            "jobs",
            report.tenants.iter().map(|t| t.jobs).sum(),
            report.terminal_jobs(),
        ),
    ] {
        if per_tenant != top {
            return Err(format!(
                "tenant slices sum {name} to {per_tenant}, top-level says {top}"
            ));
        }
    }
    Ok(())
}

/// Cross-validates the `scheduler` section: the quantum matches the
/// runtime's, and every steal sweep is a hit or a miss. Reports written
/// before the runtime stopped stealing carry nonzero counters that must
/// still balance.
fn validate_scheduler(s: &SchedulerReport) -> Result<(), String> {
    if s.dwrr_quantum_cells != crate::queue::DWRR_QUANTUM_CELLS {
        return Err(format!(
            "dwrr_quantum_cells {} != the runtime's quantum {}",
            s.dwrr_quantum_cells,
            crate::queue::DWRR_QUANTUM_CELLS
        ));
    }
    if s.steals != s.steal_hits + s.steal_misses {
        return Err(format!(
            "steals ({}) != steal_hits ({}) + steal_misses ({})",
            s.steals, s.steal_hits, s.steal_misses
        ));
    }
    Ok(())
}

/// Cross-validates the `trace` section against the job counters, the wall
/// clock, and the `planner` section: the trace schema is one this runtime
/// has written (v1 reports predate the drop of the `stolen` flag), the
/// lossless trace writer must have emitted exactly one record per terminal
/// job, no traced span may outlast the run, warm hits are a subset of
/// cache hits and require a warm start, and the convergence headline must
/// be derived from exactly the plans the planner logged.
fn validate_trace(report: &ServeReport) -> Result<(), String> {
    let t = &report.trace;
    if !(1..=crate::trace::TRACE_SCHEMA_VERSION).contains(&t.schema_version) {
        return Err(format!(
            "trace.schema_version {} is not 1..={}",
            t.schema_version,
            crate::trace::TRACE_SCHEMA_VERSION
        ));
    }
    if t.records != report.terminal_jobs() {
        return Err(format!(
            "trace.records ({}) != terminal jobs ({}): the lossless trace \
             writer dropped or duplicated records",
            t.records,
            report.terminal_jobs()
        ));
    }
    if !t.max_span_ms.is_finite() || t.max_span_ms < 0.0 {
        return Err("trace.max_span_ms must be finite and >= 0".into());
    }
    if t.max_span_ms > report.wall_seconds * 1000.0 + 0.5 {
        return Err(format!(
            "trace.max_span_ms {} exceeds the wall clock ({} ms)",
            t.max_span_ms,
            report.wall_seconds * 1000.0
        ));
    }
    if t.warm_hits > report.planner.cache_hits {
        return Err(format!(
            "trace.warm_hits ({}) exceed planner cache hits ({})",
            t.warm_hits, report.planner.cache_hits
        ));
    }
    if t.warm_hits > 0 && t.warm_shapes_loaded == 0 {
        return Err("trace: warm hits recorded without a warm start".into());
    }
    if t.plans_logged != report.planner.plans_requested {
        return Err(format!(
            "trace.plans_logged ({}) != plans_requested ({}): the planner \
             history lost events",
            t.plans_logged, report.planner.plans_requested
        ));
    }
    if !t.converged_at_fraction.is_finite() || !(0.0..=1.0).contains(&t.converged_at_fraction) {
        return Err("trace.converged_at_fraction must be within [0, 1]".into());
    }
    if t.plans_logged == 0 && t.converged_at_fraction != 0.0 {
        return Err("trace: convergence fraction without any logged plans".into());
    }
    if t.plans_logged > 0 && t.converged_at_fraction <= 0.0 {
        return Err("trace: logged plans but a zero convergence fraction".into());
    }
    Ok(())
}

/// Schema and accounting checks for the `memory` section.
fn validate_memory(m: &MemoryReport) -> Result<(), String> {
    let leases = m.pool_hits + m.pool_misses;
    let expected_rate = if leases > 0 {
        m.pool_hits as f64 / leases as f64
    } else {
        0.0
    };
    if !m.pool_hit_rate.is_finite() || (m.pool_hit_rate - expected_rate).abs() > 1e-9 {
        return Err(format!(
            "memory.pool_hit_rate {} inconsistent with hits/(hits+misses)",
            m.pool_hit_rate
        ));
    }
    if m.allocations_avoided != m.pool_hits {
        return Err("memory: allocations_avoided != pool_hits".into());
    }
    if m.pool_returns + m.pool_discards > leases {
        return Err("memory: returns + discards exceed leases taken".into());
    }
    if m.pool_evictions > m.pool_returns {
        return Err("memory: evictions exceed returns".into());
    }
    if m.pool_hits > 0 && m.bytes_pooled == 0 {
        return Err("memory: pool hits recorded but bytes_pooled is 0".into());
    }
    let kernel_lookups = m.kernel_memo_hits + m.kernel_memo_misses;
    let expected_kernel_rate = if kernel_lookups > 0 {
        m.kernel_memo_hits as f64 / kernel_lookups as f64
    } else {
        0.0
    };
    if !m.kernel_memo_hit_rate.is_finite()
        || (m.kernel_memo_hit_rate - expected_kernel_rate).abs() > 1e-9
    {
        return Err(format!(
            "memory.kernel_memo_hit_rate {} inconsistent with hits/(hits+misses)",
            m.kernel_memo_hit_rate
        ));
    }
    if m.kernel_memo_evictions > m.kernel_memo_misses {
        return Err(
            "memory: kernel evictions exceed misses (every eviction follows a compile)".into(),
        );
    }
    Ok(())
}

/// Schema and accounting checks for the `planner` section, including the
/// replica-axis rules of the claimed device profile: a DDR report can only
/// publish single-chain winners, and an HBM winner's replica count must be
/// a power of two no larger than the claimed channel count (the tuner's
/// enumeration rule — anything else never passed candidate validation).
fn validate_planner(p: &PlannerReport, device: DeviceProfile) -> Result<(), String> {
    if p.enabled != (p.plans_requested > 0) {
        return Err("planner.enabled disagrees with plans_requested".into());
    }
    if p.cache_hits + p.cache_misses != p.plans_requested {
        return Err("planner: hits + misses != plans_requested".into());
    }
    if p.explored + p.exploited != p.cache_hits {
        return Err("planner: explored + exploited != cache_hits".into());
    }
    let expected_rate = if p.plans_requested > 0 {
        p.cache_hits as f64 / p.plans_requested as f64
    } else {
        0.0
    };
    if !p.hit_rate.is_finite() || (p.hit_rate - expected_rate).abs() > 1e-9 {
        return Err(format!(
            "planner.hit_rate {} inconsistent with hits/requested",
            p.hit_rate
        ));
    }
    let planned: u64 = p.shapes.iter().map(|s| s.planned).sum();
    if planned > p.plans_requested {
        return Err("planner: shape planned counts exceed plans_requested".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for s in &p.shapes {
        if !seen.insert(s.key.clone()) {
            return Err(format!("duplicate planner shape `{}`", s.key));
        }
        if Backend::parse(&s.backend).is_none() {
            return Err(format!("planner shape `{}`: unknown backend", s.key));
        }
        if s.candidates == 0 {
            return Err(format!("planner shape `{}` has no candidates", s.key));
        }
        if !s.mean_cells_per_sec.is_finite() || s.mean_cells_per_sec < 0.0 {
            return Err(format!("planner shape `{}`: bad throughput", s.key));
        }
        match device {
            DeviceProfile::Ddr if s.replicas != 1 => {
                return Err(format!(
                    "planner shape `{}`: replicas {} on a single-channel ddr profile",
                    s.key, s.replicas
                ));
            }
            _ => {}
        }
        if s.replicas == 0
            || s.replicas > device.mem_channels() as u64
            || !s.replicas.is_power_of_two()
        {
            return Err(format!(
                "planner shape `{}`: replicas {} invalid for {} channels",
                s.key,
                s.replicas,
                device.mem_channels()
            ));
        }
        // Re-derive the winning plan's BlockConfig: the published plan must
        // itself satisfy the paper's Eq. 2 / Eq. 6 constraints.
        let cfg = match s.dim {
            2 => BlockConfig::new_2d(
                s.rad as usize,
                s.bsize_x as usize,
                s.parvec as usize,
                s.partime as usize,
            ),
            3 => BlockConfig::new_3d(
                s.rad as usize,
                s.bsize_x as usize,
                s.bsize_y as usize,
                s.parvec as usize,
                s.partime as usize,
            ),
            d => return Err(format!("planner shape `{}`: dim {d} invalid", s.key)),
        };
        if let Err(e) = cfg {
            return Err(format!("planner shape `{}`: invalid plan: {e}", s.key));
        }
    }
    Ok(())
}

fn validate_latency(name: &str, l: &LatencySummary) -> Result<(), String> {
    for (field, v) in [
        ("mean_ms", l.mean_ms),
        ("p50_ms", l.p50_ms),
        ("p95_ms", l.p95_ms),
        ("p99_ms", l.p99_ms),
        ("max_ms", l.max_ms),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{name}.{field} must be finite and >= 0"));
        }
    }
    if l.p50_ms > l.p95_ms || l.p95_ms > l.p99_ms {
        return Err(format!("{name}: percentiles not monotone"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: u64, backend: Backend, outcome: Outcome) -> JobResult {
        JobResult {
            id,
            tenant: "default".to_string(),
            backend,
            outcome,
            attempts: 1,
            queue_wait_ms: 0.1,
            run_ms: 1.0,
            total_ms: 1.2,
            cells_updated: if outcome == Outcome::Completed {
                100
            } else {
                0
            },
            checksum: None,
            shadow_match: None,
            plan: None,
        }
    }

    fn sample_report() -> ServeReport {
        let metrics = MetricsRegistry::new();
        let results = vec![
            result(1, Backend::Functional, Outcome::Completed),
            result(2, Backend::SerialRef, Outcome::TimedOut),
        ];
        for name in ["jobs_submitted", "jobs_admitted"] {
            metrics.counter(name).add(2);
        }
        metrics.counter("jobs_completed").inc();
        metrics.counter("jobs_timed_out").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms"] {
            metrics.histogram(name).record(1.0);
        }
        metrics.histogram("run_ms_functional").record(1.0);
        metrics.histogram("run_ms_serial_ref").record(0.0);
        // Pool activity consistent with two jobs sharing one shape class.
        metrics.counter("pool_misses").add(3);
        metrics.counter("pool_hits").add(3);
        metrics.counter("pool_returns").add(6);
        metrics.counter("pool_bytes_pooled").add(3 * 400);
        metrics.gauge("pool_resident_bytes").add(3 * 4096);
        metrics.counter("stencil_memo_misses").add(2);
        metrics.counter("stencil_memo_hits").add(1);
        metrics.counter("kernel_memo_misses").add(2);
        metrics.counter("kernel_memo_hits").add(2);
        metrics.counter("kernel_memo_evictions").add(1);
        metrics.counter("trace_records").add(2);
        ServeReport::build(
            "synthetic",
            42,
            true,
            DeviceProfile::Ddr,
            2,
            &results,
            &metrics,
            &[],
            &[],
            &[],
            StealTotals::default(),
            0,
            0.5,
        )
    }

    /// A report whose planner section reflects real planning activity.
    fn planned_report() -> ServeReport {
        use crate::planner::{PlanMode, Planner, PlannerConfig};
        let planner = Planner::new(PlannerConfig::default());
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        for id in 1..=4u64 {
            let mut s = crate::job::JobSpec::new_2d(id, 2, 96, 32, 2);
            s.plan = PlanMode::Auto;
            planner.plan(&s, &served, &metrics).unwrap();
        }
        for name in ["jobs_submitted", "jobs_admitted"] {
            metrics.counter(name).add(1);
        }
        metrics.counter("jobs_completed").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms", "run_ms_functional"] {
            metrics.histogram(name).record(1.0);
        }
        metrics.counter("trace_records").inc();
        let results = vec![result(1, Backend::Functional, Outcome::Completed)];
        let shapes = planner.snapshot();
        let history = planner.plan_history();
        ServeReport::build(
            "synthetic",
            7,
            true,
            DeviceProfile::Ddr,
            1,
            &results,
            &metrics,
            &shapes,
            &history,
            &[],
            StealTotals::default(),
            0,
            0.5,
        )
    }

    #[test]
    fn build_and_validate_round_trip() {
        let report = sample_report();
        assert!(report.healthy(), "sample is healthy");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let n = validate_report_json(&json).unwrap();
        assert_eq!(n, 2, "two backend slices");
    }

    #[test]
    fn validation_rejects_lost_jobs() {
        let mut report = sample_report();
        report.jobs_admitted += 1; // one admitted job never terminated
        let json = serde_json::to_string(&report).unwrap();
        let err = validate_report_json(&json).unwrap_err();
        assert!(err.contains("jobs were lost"), "{err}");
        assert!(!report.healthy());
    }

    #[test]
    fn validation_rejects_bad_percentiles() {
        let mut report = sample_report();
        report.total_ms.p50_ms = 99.0; // above p95
        let json = serde_json::to_string(&report).unwrap();
        assert!(validate_report_json(&json)
            .unwrap_err()
            .contains("not monotone"));
    }

    #[test]
    fn validation_rejects_bad_throughput() {
        // NaN serializes as null and reads back as NaN; the headline rates
        // must not pass the gate that way.
        let mut report = sample_report();
        report.jobs_per_second = f64::NAN;
        let err = validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap_err();
        assert!(err.contains("jobs_per_second"), "{err}");

        // Rates that disagree with the raw counts they summarize are drift.
        let mut report = sample_report();
        report.cells_per_second *= 2.0;
        let err = validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap_err();
        assert!(err.contains("cells_per_second"), "{err}");
    }

    #[test]
    fn missing_throughput_field_is_rejected() {
        // A report missing a required numeric field entirely must fail the
        // schema parse — not silently deserialize to NaN.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json.replacen("\"cells_per_second\"", "\"cells_per_second_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("missing field `cells_per_second`"), "{err}");
    }

    #[test]
    fn validation_rejects_garbage() {
        assert!(validate_report_json("not json").is_err());
        assert!(validate_report_json("{}").is_err());
        assert!(validate_report_json("[]").is_err());
    }

    #[test]
    fn planner_section_validates_and_rejects_drift() {
        let report = planned_report();
        assert!(report.planner.enabled);
        assert_eq!(report.planner.plans_requested, 4);
        assert_eq!(report.planner.cache_hits, 3);
        assert_eq!(report.planner.cache_misses, 1);
        let json = serde_json::to_string(&report).unwrap();
        validate_report_json(&json).unwrap();

        // Broken accounting identity.
        let mut bad = planned_report();
        bad.planner.cache_hits += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("hits + misses"), "{err}");

        // Inconsistent hit rate.
        let mut bad = planned_report();
        bad.planner.hit_rate = 0.123;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("hit_rate"), "{err}");

        // A published plan violating Eq. 2 (csize <= 0) must be rejected.
        let mut bad = planned_report();
        bad.planner.shapes[0].partime = 4096;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("invalid plan"), "{err}");

        // A missing planner section entirely (schema-v1 report) fails.
        let json = serde_json::to_string(&planned_report()).unwrap();
        let stripped = {
            let start = json.find(",\"planner\":").unwrap();
            // planner is the last field; drop through the closing brace.
            format!("{}}}", &json[..start])
        };
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("planner"), "{err}");
    }

    #[test]
    fn memory_section_validates_and_rejects_drift() {
        let report = sample_report();
        assert_eq!(report.memory.pool_hits, 3);
        assert_eq!(report.memory.allocations_avoided, 3);
        assert!((report.memory.pool_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(report.memory.pool_resident_bytes_high_water, 3 * 4096);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // Inconsistent hit rate.
        let mut bad = sample_report();
        bad.memory.pool_hit_rate = 0.99;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("pool_hit_rate"), "{err}");

        // Headline count diverging from the counter it mirrors.
        let mut bad = sample_report();
        bad.memory.allocations_avoided += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("allocations_avoided"), "{err}");

        // More buffers returned than ever leased.
        let mut bad = sample_report();
        bad.memory.pool_returns = 100;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("returns + discards"), "{err}");

        // Hits without any recycled bytes is impossible for nonempty grids.
        let mut bad = sample_report();
        bad.memory.bytes_pooled = 0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("bytes_pooled"), "{err}");

        // A schema-v2 report (no memory section) fails the parse.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let start = json.find(",\"memory\":").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("memory"), "{err}");
    }

    #[test]
    fn empty_pool_counters_still_validate() {
        // A replayed workload that never leased anything must still emit a
        // structurally valid (all-zero) memory section.
        let metrics = MetricsRegistry::new();
        let results = vec![result(1, Backend::Functional, Outcome::Completed)];
        metrics.counter("jobs_submitted").inc();
        metrics.counter("jobs_admitted").inc();
        metrics.counter("jobs_completed").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms", "run_ms_functional"] {
            metrics.histogram(name).record(1.0);
        }
        metrics.counter("trace_records").inc();
        let report = ServeReport::build(
            "jsonl",
            0,
            false,
            DeviceProfile::Ddr,
            1,
            &results,
            &metrics,
            &[],
            &[],
            &[],
            StealTotals::default(),
            0,
            0.5,
        );
        assert_eq!(report.memory.pool_hit_rate, 0.0);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();
    }

    #[test]
    fn explicit_only_reports_have_disabled_planner() {
        let report = sample_report();
        assert!(!report.planner.enabled);
        assert_eq!(report.planner.plans_requested, 0);
        assert!(report.planner.shapes.is_empty());
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();
    }

    #[test]
    fn mismatches_make_report_unhealthy() {
        let mut report = sample_report();
        report.shadow_mismatches = 1;
        assert!(!report.healthy());
        let mut report = sample_report();
        report.wedged_workers = 1;
        assert!(!report.healthy());
    }

    /// A report produced against the HBM profile, where the planner is
    /// expected to publish a replicated-chain winner.
    fn hbm_report() -> ServeReport {
        use crate::planner::{PlanMode, Planner, PlannerConfig};
        let planner = Planner::with_device(PlannerConfig::default(), DeviceProfile::Hbm);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let mut s = crate::job::JobSpec::new_3d(1, 1, 512, 256, 16, 2);
        s.plan = PlanMode::Auto;
        planner.plan(&s, &served, &metrics).unwrap();
        for name in ["jobs_submitted", "jobs_admitted"] {
            metrics.counter(name).add(1);
        }
        metrics.counter("jobs_completed").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms", "run_ms_functional"] {
            metrics.histogram(name).record(1.0);
        }
        metrics.counter("trace_records").inc();
        let results = vec![result(1, Backend::Functional, Outcome::Completed)];
        let shapes = planner.snapshot();
        let history = planner.plan_history();
        ServeReport::build(
            "synthetic",
            9,
            true,
            DeviceProfile::Hbm,
            1,
            &results,
            &metrics,
            &shapes,
            &history,
            &[],
            StealTotals::default(),
            0,
            0.5,
        )
    }

    #[test]
    fn hbm_report_with_replicated_winner_validates() {
        let report = hbm_report();
        assert_eq!(report.device_profile, "hbm");
        assert_eq!(report.mem_channels, 32);
        assert!(
            report.planner.shapes.iter().any(|s| s.replicas > 1),
            "HBM planner should surface a replicated winner"
        );
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();
    }

    #[test]
    fn device_profile_rejects_corruption() {
        // A profile name the validator cannot map to a device.
        let mut bad = sample_report();
        bad.device_profile = "sram".to_string();
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("unknown device_profile"), "{err}");

        // Channel count that disagrees with the claimed profile.
        let mut bad = sample_report();
        bad.mem_channels = 32;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("disagrees with device_profile"), "{err}");

        // A v3 report (no device fields) must fail the schema parse.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json.replacen("\"device_profile\"", "\"device_profile_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("missing field `device_profile`"), "{err}");
    }

    #[test]
    fn replica_axis_rejects_invalid_winners() {
        // A DDR report can never publish a replicated winner.
        let mut bad = planned_report();
        bad.planner.shapes[0].replicas = 2;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("single-channel ddr profile"), "{err}");

        // An HBM winner claiming more replicas than the device has channels.
        let mut bad = hbm_report();
        let idx = bad
            .planner
            .shapes
            .iter()
            .position(|s| s.replicas > 1)
            .expect("replicated winner");
        bad.planner.shapes[idx].replicas = 64;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("invalid for 32 channels"), "{err}");

        // Replica counts the tuner never enumerates (not a power of two).
        let mut bad = hbm_report();
        bad.planner.shapes[idx].replicas = 3;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("invalid for 32 channels"), "{err}");

        // Replicas of zero never ran anything.
        let mut bad = hbm_report();
        bad.planner.shapes[idx].replicas = 0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("invalid for 32 channels"), "{err}");
    }

    #[test]
    fn tenant_section_validates_and_rejects_drift() {
        let report = sample_report();
        assert_eq!(report.tenants.len(), 1, "both results are `default`");
        assert_eq!(report.tenants[0].tenant, "default");
        assert_eq!(report.tenants[0].jobs, 2);
        assert_eq!(report.tenants[0].completed, 1);
        assert_eq!(report.tenants[0].timed_out, 1);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // A tenant whose admitted count exceeds its terminal results lost
        // jobs — the per-tenant version of the global zero-loss gate.
        let mut bad = sample_report();
        bad.tenants[0].admitted += 1;
        bad.jobs_admitted += 1; // keep the global sum consistent
        bad.jobs_submitted += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("jobs were lost"), "{err}");

        // Outcomes that do not sum to the tenant's job count.
        let mut bad = sample_report();
        bad.tenants[0].completed += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("outcomes do not sum"), "{err}");

        // Tenant slices that disagree with the top-level counters.
        let mut bad = sample_report();
        bad.tenants[0].rejected_quota = 5;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("rejected_quota"), "{err}");

        // Duplicate tenant slices.
        let mut bad = sample_report();
        let dup = bad.tenants[0].clone();
        bad.tenants.push(dup);
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("duplicate tenant"), "{err}");

        // Zero-weight tenants cannot be scheduled by DWRR.
        let mut bad = sample_report();
        bad.tenants[0].weight = 0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("weight"), "{err}");

        // An in-flight high water above the declared cap.
        let mut bad = sample_report();
        bad.tenants[0].max_in_flight = 1;
        bad.tenants[0].in_flight_high_water = 2;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("high water"), "{err}");

        // A schema-v4 report (no tenants section) fails the parse.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json.replacen("\"tenants\"", "\"tenants_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("tenants"), "{err}");
    }

    #[test]
    fn scheduler_section_validates_and_rejects_drift() {
        // Every sweep must be a hit or a miss.
        let mut bad = sample_report();
        bad.scheduler.steals = 3;
        bad.scheduler.steal_hits = 1;
        bad.scheduler.steal_misses = 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("steal_hits"), "{err}");

        // A quantum that drifted from the runtime constant.
        let mut bad = sample_report();
        bad.scheduler.dwrr_quantum_cells += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("dwrr_quantum_cells"), "{err}");

        // Missing steal counters (a schema-v4 report) fail the parse.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json.replacen("\"steal_hits\"", "\"steal_hits_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("steal_hits"), "{err}");
    }

    #[test]
    fn quota_rejections_balance_the_submission_identity() {
        let metrics = MetricsRegistry::new();
        let results = vec![result(1, Backend::Functional, Outcome::Completed)];
        metrics.counter("jobs_submitted").add(3);
        metrics.counter("jobs_admitted").inc();
        metrics.counter("jobs_quota_rejected").add(2);
        metrics.counter("jobs_completed").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms", "run_ms_functional"] {
            metrics.histogram(name).record(1.0);
        }
        let snaps = vec![TenantSnapshot {
            tenant: "default".to_string(),
            weight: 1,
            max_in_flight: 1,
            admitted: 1,
            rejected_quota: 2,
            in_flight_high_water: 1,
        }];
        metrics.counter("trace_records").inc();
        let report = ServeReport::build(
            "synthetic",
            3,
            true,
            DeviceProfile::Ddr,
            3,
            &results,
            &metrics,
            &[],
            &[],
            &snaps,
            StealTotals::default(),
            0,
            0.5,
        );
        assert_eq!(report.jobs_quota_rejected, 2);
        assert_eq!(report.tenants[0].rejected_quota, 2);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // Quota rejections missing from the identity are caught.
        let mut bad = report.clone();
        bad.jobs_quota_rejected = 0;
        bad.tenants[0].rejected_quota = 0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("quota_rejected != submitted"), "{err}");
    }

    #[test]
    fn kernel_memo_section_validates_and_rejects_drift() {
        let report = sample_report();
        assert_eq!(report.memory.kernel_memo_hits, 2);
        assert_eq!(report.memory.kernel_memo_misses, 2);
        assert_eq!(report.memory.kernel_memo_evictions, 1);
        assert!((report.memory.kernel_memo_hit_rate - 0.5).abs() < 1e-12);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // A hit rate that disagrees with the raw counters is drift.
        let mut bad = sample_report();
        bad.memory.kernel_memo_hit_rate = 0.9;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("kernel_memo_hit_rate"), "{err}");

        // Every eviction follows an insert, and every insert a miss.
        let mut bad = sample_report();
        bad.memory.kernel_memo_evictions = bad.memory.kernel_memo_misses + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("kernel evictions exceed misses"), "{err}");

        // The counters are mandatory at v8: a v7-shaped report fails parse.
        let json = serde_json::to_string(&sample_report()).unwrap();
        let stripped = json.replacen("\"kernel_memo_hits\"", "\"kernel_memo_hits_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("kernel_memo_hits"), "{err}");

        // A workload that never requested a kernel still validates with an
        // all-zero slice (rate 0, not NaN).
        let mut zero = sample_report();
        zero.memory.kernel_memo_hits = 0;
        zero.memory.kernel_memo_misses = 0;
        zero.memory.kernel_memo_evictions = 0;
        zero.memory.kernel_memo_hit_rate = 0.0;
        validate_report_json(&serde_json::to_string(&zero).unwrap()).unwrap();
    }

    #[test]
    fn pool_evictions_cannot_exceed_returns() {
        let mut bad = sample_report();
        bad.memory.pool_evictions = bad.memory.pool_returns + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("evictions exceed returns"), "{err}");
    }

    /// A report whose `dataflow` section reflects one completed 2-stage
    /// program: identities hold by construction, mirroring what
    /// `aggregate_dataflow` records for a real run.
    fn program_report() -> ServeReport {
        let metrics = MetricsRegistry::new();
        let results = vec![result(1, Backend::Functional, Outcome::Completed)];
        for name in ["jobs_submitted", "jobs_admitted"] {
            metrics.counter(name).inc();
        }
        metrics.counter("jobs_completed").inc();
        for name in ["queue_wait_ms", "run_ms", "total_ms", "run_ms_functional"] {
            metrics.histogram(name).record(1.0);
        }
        metrics.counter("programs_requested").inc();
        metrics.counter("programs_completed").inc();
        metrics.counter("program_nodes_placed").add(2);
        metrics.counter("program_channels").inc();
        metrics.counter("program_frames").add(3);
        metrics.counter("program_cells").add(100);
        metrics.counter("program_pipelined_ticks").add(7);
        metrics.counter("program_sequential_ticks").add(10);
        metrics.counter("program_est_pipelined_cps").add(2000);
        metrics.counter("program_est_sequential_cps").add(1500);
        metrics.counter("program_stage0_cells").add(60);
        metrics.counter("program_stage0_ticks").add(6);
        metrics.counter("program_stage1_cells").add(40);
        metrics.counter("program_stage1_ticks").add(4);
        metrics.gauge("program_devices").set(2);
        metrics.gauge("program_channel_depth").set(2);
        metrics.gauge("program_channel_high_water").set(1);
        metrics.counter("trace_records").inc();
        ServeReport::build(
            "synthetic",
            11,
            true,
            DeviceProfile::Ddr,
            1,
            &results,
            &metrics,
            &[],
            &[],
            &[],
            StealTotals::default(),
            0,
            0.5,
        )
    }

    #[test]
    fn dataflow_section_builds_from_metrics_and_validates() {
        let report = program_report();
        assert!(report.dataflow.enabled);
        assert_eq!(report.dataflow.programs_completed, 1);
        assert_eq!(report.dataflow.stages.len(), 2);
        assert_eq!(report.dataflow.devices_used_max, 2);
        assert!(
            report.dataflow.measured_pipelined_cells_per_tick
                > report.dataflow.measured_sequential_cells_per_tick
        );
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // A workload with no program jobs publishes a disabled section.
        let plain = sample_report();
        assert!(!plain.dataflow.enabled);
        assert!(plain.dataflow.stages.is_empty());
    }

    #[test]
    fn dataflow_validation_rejects_channel_overfill() {
        // The corruption the committed bad-dataflow fixture carries.
        let mut bad = program_report();
        bad.dataflow.channel_high_water_max = bad.dataflow.channel_depth_max + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("cannot overfill"), "{err}");
    }

    #[test]
    fn dataflow_validation_rejects_stage_accounting_drift() {
        let mut bad = program_report();
        bad.dataflow.stages[0].cells_updated += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("stage cells sum"), "{err}");

        let mut bad = program_report();
        bad.dataflow.stages[1].busy_ticks += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("never idles"), "{err}");

        let mut bad = program_report();
        bad.dataflow.stages[1].cells_per_tick *= 2.0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("cells_per_tick"), "{err}");
    }

    #[test]
    fn dataflow_validation_rejects_pipelining_regressions() {
        // A pipelined makespan above the sequential one is impossible.
        let mut bad = program_report();
        bad.dataflow.pipelined_ticks = bad.dataflow.sequential_ticks + 1;
        bad.dataflow.measured_pipelined_cells_per_tick =
            bad.dataflow.cells_updated as f64 / bad.dataflow.pipelined_ticks as f64;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("exceeds sequential"), "{err}");

        // So is a pipelined estimate below the sequential one.
        let mut bad = program_report();
        bad.dataflow.est_pipelined_cells_per_sec = bad.dataflow.est_sequential_cells_per_sec - 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("below sequential estimate"), "{err}");
    }

    #[test]
    fn dataflow_validation_rejects_bookkeeping_drift() {
        let mut bad = program_report();
        bad.dataflow.enabled = false;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("disagrees with programs_requested"), "{err}");

        let mut bad = program_report();
        bad.dataflow.programs_completed = bad.dataflow.programs_requested + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("> requested"), "{err}");

        // The section is mandatory at v6: a v5-shaped report fails parse.
        let json = serde_json::to_string(&program_report()).unwrap();
        let stripped = json.replacen("\"dataflow\"", "\"dataflow_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("missing field `dataflow`"), "{err}");
    }

    #[test]
    fn trace_section_validates_and_rejects_drift() {
        let report = planned_report();
        assert_eq!(report.trace.records, 1);
        assert_eq!(report.trace.plans_logged, 4);
        assert!(report.trace.converged_at_fraction > 0.0);
        validate_report_json(&serde_json::to_string(&report).unwrap()).unwrap();

        // Reports written with v1 traces stay valid; unknown versions fail.
        let mut old = planned_report();
        old.trace.schema_version = 1;
        validate_report_json(&serde_json::to_string(&old).unwrap()).unwrap();
        let mut bad = planned_report();
        bad.trace.schema_version = crate::trace::TRACE_SCHEMA_VERSION + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("trace.schema_version"), "{err}");

        // A dropped (or duplicated) trace record breaks the lossless-writer
        // contract.
        let mut bad = planned_report();
        bad.trace.records += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("lossless trace"), "{err}");

        // A traced span cannot outlast the run.
        let mut bad = planned_report();
        bad.trace.max_span_ms = bad.wall_seconds * 1000.0 + 10.0;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("wall clock"), "{err}");

        // Warm hits are a subset of cache hits.
        let mut bad = planned_report();
        bad.trace.warm_hits = bad.planner.cache_hits + 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("warm_hits"), "{err}");

        // Warm hits without a loaded sidecar are impossible.
        let mut bad = planned_report();
        bad.trace.warm_hits = 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("without a warm start"), "{err}");

        // The plan history must cover every plan request.
        let mut bad = planned_report();
        bad.trace.plans_logged += 1;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("plans_logged"), "{err}");

        // The convergence fraction is a fraction.
        let mut bad = planned_report();
        bad.trace.converged_at_fraction = 1.5;
        let err = validate_report_json(&serde_json::to_string(&bad).unwrap()).unwrap_err();
        assert!(err.contains("converged_at_fraction"), "{err}");

        // The section is mandatory at v7: a v6-shaped report fails parse.
        let json = serde_json::to_string(&planned_report()).unwrap();
        let stripped = json.replacen("\"trace\"", "\"trace_gone\"", 1);
        let err = validate_report_json(&stripped).unwrap_err();
        assert!(err.contains("trace"), "{err}");
    }

    #[test]
    fn convergence_fraction_favors_warm_histories() {
        // Cold single-shape history: the opening miss is only amortized at
        // the very end — the fraction is 1.
        let miss = PlanEvent {
            hit: false,
            warm: false,
        };
        let hit = PlanEvent {
            hit: true,
            warm: false,
        };
        let warm_hit = PlanEvent {
            hit: true,
            warm: true,
        };
        let mut cold = vec![miss];
        cold.extend(std::iter::repeat_n(hit, 9));
        assert!((converged_at_fraction(&cold) - 1.0).abs() < 1e-12);

        // Warm history: the first request already hits, so the cumulative
        // rate reaches the final rate immediately.
        let mut warm = vec![warm_hit];
        warm.extend(std::iter::repeat_n(hit, 9));
        assert!((converged_at_fraction(&warm) - 0.1).abs() < 1e-12);

        assert_eq!(converged_at_fraction(&[]), 0.0);
        assert!((converged_at_fraction(&[miss]) - 1.0).abs() < 1e-12);
    }
}
