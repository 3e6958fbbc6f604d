//! `stencil-runtime` — a job-serving layer over the stencil executors.
//!
//! The simulator crates answer "how fast is one stencil run?"; this crate
//! answers "what does a *service* built on those executors look like?". A
//! [`job::JobSpec`] names a stencil problem (dims, radius, time steps,
//! block config, backend, deadline, priority) and enters a bounded
//! [`queue::AdmissionQueue`]; a sharded worker pool — one shard per
//! [`job::Backend`] — drains it with small-job batching, per-job
//! deadline/cancellation via a cooperative [`cancel::CancelToken`], and
//! capped-backoff retry for transient failures. A configurable fraction of
//! completed jobs is *shadow verified*: re-executed on the frozen
//! `serial_ref` oracle and bit-compared, which the repo-wide bit-exactness
//! contract makes an exact-equality check. A [`metrics::MetricsRegistry`]
//! aggregates counters and gauges, and [`report::ServeReport`] folds them
//! and the per-job results (every latency summary is nearest-rank over
//! those results) into `BENCH_serve.json`.
//!
//! Jobs submitted in [`planner::PlanMode::Auto`] skip hand-picking a block
//! configuration: the [`planner::Planner`] ranks candidate plans with the
//! `perf-model` analytical tuner (the paper's §V.A flow), caches them per
//! job shape class, and refines the choice with the throughput workers
//! measure: every cache hit takes the candidate with the best measured
//! rate per in-flight job — model-guided planning with online feedback.
//!
//! ```
//! use stencil_runtime::{JobSpec, Runtime, RuntimeConfig};
//! use std::time::Duration;
//!
//! let rt = Runtime::start(RuntimeConfig::default());
//! rt.submit(JobSpec::new_2d(1, 2, 96, 32, 3)).unwrap();
//! rt.wait_for_results(1, Duration::from_secs(30));
//! let outcome = rt.drain();
//! assert_eq!(outcome.results.len(), 1);
//! assert_eq!(outcome.wedged_workers, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod cancel;
pub mod job;
pub mod metrics;
pub mod persist;
pub mod planner;
pub mod pool;
pub mod program;
pub mod queue;
pub mod report;
pub mod retry;
pub mod stream;
pub mod tenant;
pub mod trace;
pub mod worker;
pub mod workload;

pub use batch::BatchPolicy;
pub use cancel::CancelToken;
pub use job::{Backend, JobResult, JobSpec, Outcome, Priority, Replicas};
pub use metrics::MetricsRegistry;
pub use persist::{
    load_planner_memory, save_planner_memory, PersistError, PlannerMemory, ShapeMemory, StatMemory,
};
pub use planner::{
    place_program, DeviceProfile, PlanChoice, PlanError, PlanEvent, PlanMode, Planner,
    ProgramPlacement, ShapeKey, StagePlacement,
};
pub use pool::{GridLease2D, GridLease3D, GridPool, PoolStats, StencilMemo};
pub use program::{ProgramEdge, ProgramError, ProgramNode, StencilProgram};
pub use queue::{AdmissionQueue, PushError};
pub use report::{
    converged_at_fraction, validate_report_json, LatencySummary, PlannerReport, ServeReport,
    TraceReport,
};
pub use stream::{ResultSender, ResultStream};
pub use tenant::{Tenant, TenantConfig, TenantPolicy, TenantRegistry, TenantSnapshot};
pub use trace::{
    validate_trace_file, AttemptSpan, TraceRecord, TraceStats, TraceWriter, TRACE_SCHEMA_VERSION,
};
pub use worker::{DrainOutcome, Runtime, RuntimeConfig, SubmitError, Ticket};
pub use workload::{synthetic_workload, tenant_for, ArrivalGaps, JsonlStream, SyntheticParams};
