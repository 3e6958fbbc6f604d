//! Job descriptions and results — the wire format of the serving runtime.
//!
//! A [`JobSpec`] is a self-contained description of one stencil run:
//! problem geometry, block configuration, the backend to run it on, a
//! deadline and priority for the scheduler, and (for load testing) fault
//! injection. Specs serialize to one JSON object per line (JSONL), which is
//! the replay format `stencil_serve` consumes.

use crate::planner::{PlanChoice, PlanError, PlanMode};
use crate::program::StencilProgram;
use crate::tenant::Tenant;
use serde::{Deserialize, Serialize};
use stencil_core::{BlockConfig, BoundaryCond, KernelClass, KernelDesc, StencilError};

/// Which execution engine serves the job. One worker-pool shard exists per
/// backend, so the backend choice is also the routing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Block-parallel lane-vectorized simulator (`fpga_sim::functional`).
    /// The only backend with sub-job cancellation granularity: the cancel
    /// token is polled at every block boundary.
    Functional,
    /// One-thread-per-kernel dataflow simulator (`fpga_sim::threaded`).
    Threaded,
    /// YASK-style parallel CPU baseline (`cpu_engine::engines`).
    CpuEngine,
    /// The frozen seed data path (`fpga_sim::serial_ref`) — also the shadow
    /// verification oracle.
    SerialRef,
}

impl Backend {
    /// Every backend, in shard order.
    pub const ALL: [Backend; 4] = [
        Backend::Functional,
        Backend::Threaded,
        Backend::CpuEngine,
        Backend::SerialRef,
    ];

    /// Stable lowercase name (used in CLI flags, metrics keys, reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Functional => "functional",
            Backend::Threaded => "threaded",
            Backend::CpuEngine => "cpu-engine",
            Backend::SerialRef => "serial_ref",
        }
    }

    /// Parses a [`Backend::name`] string.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Spatially replicated chain count — the hybrid spatial/temporal axis for
/// many-channel (HBM-class) device profiles. `Replicas(1)` is the classic
/// single deep-temporal chain; `Replicas(r)` runs `r` independent chains
/// over halo-overlapped partitions of the x extent (see
/// `fpga_sim::functional::replica_spans`). Only the functional backend
/// executes the replicated shape; the other backends ignore the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Replicas(pub usize);

impl Replicas {
    /// The chain count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Replicas {
    fn default() -> Self {
        Replicas(1)
    }
}

// Manual serde impls: the wire format is the plain integer, and an
// absent/null field reads as `1` so pre-replica JSONL workloads stay
// loadable (same precedent as `PlanMode`).
impl Serialize for Replicas {
    fn to_value(&self) -> serde::Value {
        serde::Value::UInt(self.0 as u64)
    }
}

impl Deserialize for Replicas {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if matches!(v, serde::Value::Null) {
            return Ok(Replicas(1));
        }
        match v.as_integer() {
            Some(n) if n >= 1 && n <= usize::MAX as i128 => Ok(Replicas(n as usize)),
            _ => Err(serde::Error::custom("replicas must be an integer >= 1")),
        }
    }

    // Absence opts in to the single-chain default — only this field, not
    // every field in the workspace, tolerates a missing key.
    fn absent() -> Option<Self> {
        Some(Replicas(1))
    }
}

/// Declarative kernel request — the wire-format gateway into the kernel-IR
/// scenario space beyond the classic star/clamp stencil.
///
/// A job with `kernel: Some(spec)` still draws its radius and coefficient
/// seed from `rad`/`seed`; the spec only picks the tap family and boundary
/// condition. At execution the full [`KernelDesc`] is built via
/// [`KernelSpec::desc`] (a pure function of `(dim, rad, seed, spec)`), so
/// two jobs with equal geometry, seed, and spec remain bit-identical work
/// items. A star/clamp spec is exactly the legacy job: the desc's
/// coefficients match `Stencil2D::random(rad, seed)` value for value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelSpec {
    /// Tap family: `star` (the paper's shape), `box` (full `(2r+1)^d`
    /// neighborhood), or `asymmetric` (scattered offsets).
    pub taps: KernelClass,
    /// Boundary condition applied on every axis.
    pub boundary: BoundaryCond,
}

impl KernelSpec {
    /// Builds the concrete kernel desc this spec denotes for a job's
    /// dimensionality, radius, and seed.
    ///
    /// # Errors
    /// Propagates [`StencilError`] for invalid radius/dimension combos.
    pub fn desc(&self, dim: usize, rad: usize, seed: u64) -> Result<KernelDesc, StencilError> {
        match (dim, self.taps) {
            (2, KernelClass::Star) => KernelDesc::star_2d(rad, seed, self.boundary),
            (2, KernelClass::Box) => KernelDesc::box_2d(rad, seed, self.boundary),
            (2, KernelClass::Asymmetric) => KernelDesc::asymmetric_2d(rad, seed, self.boundary),
            (3, KernelClass::Star) => KernelDesc::star_3d(rad, seed, self.boundary),
            (3, KernelClass::Box) => KernelDesc::box_3d(rad, seed, self.boundary),
            (3, KernelClass::Asymmetric) => KernelDesc::asymmetric_3d(rad, seed, self.boundary),
            (d, _) => Err(StencilError::InvalidConfig {
                reason: format!("kernel desc needs dim 2 or 3, got {d}"),
            }),
        }
    }
}

// Wire format: `{"taps": "box", "boundary": "periodic"}`. Names round-trip
// through `KernelClass::name`/`BoundaryCond::name`; unknown strings are
// typed errors, not defaults.
impl Serialize for KernelSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "taps".to_string(),
                serde::Value::Str(self.taps.name().to_string()),
            ),
            (
                "boundary".to_string(),
                serde::Value::Str(self.boundary.name().to_string()),
            ),
        ])
    }
}

impl Deserialize for KernelSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("kernel must be an object"))?;
        let field = |name: &str| {
            map.iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_str())
                .ok_or_else(|| serde::Error::custom(format!("kernel.{name} must be a string")))
        };
        let taps = KernelClass::parse(field("taps")?)
            .ok_or_else(|| serde::Error::custom("kernel.taps must be star|box|asymmetric"))?;
        let boundary = BoundaryCond::parse(field("boundary")?).ok_or_else(|| {
            serde::Error::custom("kernel.boundary must be clamp|periodic|reflective")
        })?;
        Ok(KernelSpec { taps, boundary })
    }
}

/// Scheduling priority. Within a shard, higher priorities always pop before
/// lower ones; ties break FIFO by admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Background work; drained last.
    Low,
    /// The default service class.
    Normal,
    /// Latency-sensitive; jumps the queue.
    High,
}

impl Priority {
    /// Numeric rank for ordering (higher pops first).
    pub fn rank(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

/// One job: a complete stencil problem plus serving parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Caller-assigned identifier, echoed in the [`JobResult`].
    pub id: u64,
    /// Problem dimensionality: 2 or 3.
    pub dim: usize,
    /// Stencil radius (1–4).
    pub rad: usize,
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z (ignored for 2D jobs).
    pub nz: usize,
    /// Time steps to run.
    pub iters: usize,
    /// Spatial block size in x (`BlockConfig::bsize_x`).
    pub bsize_x: usize,
    /// Spatial block size in y (3D only; `BlockConfig::bsize_y`).
    pub bsize_y: usize,
    /// Vector lanes (`BlockConfig::parvec`).
    pub parvec: usize,
    /// Temporal blocking depth (`BlockConfig::partime`).
    pub partime: usize,
    /// Spatially replicated chain count (functional backend only; see
    /// [`Replicas`]). Under [`PlanMode::Auto`] the planner overwrites it
    /// with the winning candidate's replica count. Absent in old JSONL
    /// workloads, which deserialize as `Replicas(1)`.
    pub replicas: Replicas,
    /// Backend shard that serves the job. Under [`PlanMode::Auto`] this is
    /// only a hint — the planner overwrites it at admission.
    pub backend: Backend,
    /// The tenant this job bills to: its fair-scheduling lane and quota
    /// bucket. Absent in pre-tenant JSONL workloads, which deserialize as
    /// `"default"`.
    pub tenant: Tenant,
    /// How the block configuration and backend are chosen: `Explicit`
    /// (default; the fields above are used verbatim) or `Auto` (the
    /// runtime's planner picks them from the performance model + measured
    /// feedback). Absent in old JSONL workloads, which deserialize as
    /// `Explicit`.
    pub plan: PlanMode,
    /// Scheduling priority.
    pub priority: Priority,
    /// Deadline in milliseconds from admission; `0` means no deadline. A
    /// job whose deadline passes while queued is failed without running;
    /// one that expires mid-run is cancelled at the next block boundary
    /// (functional backend) or marked timed-out on completion.
    pub deadline_ms: u64,
    /// Seed for the job's stencil coefficients and grid contents — two jobs
    /// with equal geometry and seed are bit-identical work items.
    pub seed: u64,
    /// Forces shadow verification for this job regardless of the runtime's
    /// sampling fraction.
    pub shadow: bool,
    /// Fault injection: the first `fail_times` execution attempts panic
    /// (caught at the shard boundary) before the job is allowed to succeed.
    /// Exercises the retry/backoff path under load.
    pub fail_times: u32,
    /// Optional stencil *program*: a DAG of dependent operators executed on
    /// the multi-device cluster simulator instead of a single kernel.
    /// Absent (the default, and in all pre-program JSONL workloads) the job
    /// is the classic single-kernel run and every field above means what it
    /// always did. Present, the per-node radii/time-steps replace `rad`/
    /// `iters` and the block configuration comes from program placement;
    /// the geometry, tenant, priority, deadline and seed fields still
    /// apply.
    pub program: Option<StencilProgram>,
    /// Optional desc-kernel request (see [`KernelSpec`]). Absent (the
    /// default, and in all pre-kernel JSONL workloads) the job is the
    /// classic star/clamp stencil; present, the job runs the requested tap
    /// family and boundary condition through the runtime kernel specializer.
    /// Mutually exclusive with `program`; the threaded backend cannot serve
    /// kernel jobs (its dataflow streams fixed star taps).
    pub kernel: Option<KernelSpec>,
}

impl JobSpec {
    /// A valid 2D job with defaults for the serving fields.
    pub fn new_2d(id: u64, rad: usize, nx: usize, ny: usize, iters: usize) -> JobSpec {
        JobSpec {
            id,
            dim: 2,
            rad,
            nx,
            ny,
            nz: 1,
            iters,
            bsize_x: 128,
            bsize_y: 1,
            parvec: 4,
            partime: 4 / gcd(rad, 4),
            replicas: Replicas(1),
            backend: Backend::Functional,
            tenant: Tenant::default(),
            plan: PlanMode::Explicit,
            priority: Priority::Normal,
            deadline_ms: 0,
            seed: id,
            shadow: false,
            fail_times: 0,
            program: None,
            kernel: None,
        }
    }

    /// A valid 3D job with defaults for the serving fields.
    pub fn new_3d(id: u64, rad: usize, nx: usize, ny: usize, nz: usize, iters: usize) -> JobSpec {
        JobSpec {
            id,
            dim: 3,
            rad,
            nx,
            ny,
            nz,
            iters,
            bsize_x: 48,
            bsize_y: 48,
            parvec: 2,
            partime: 4 / gcd(rad, 4),
            replicas: Replicas(1),
            backend: Backend::Functional,
            tenant: Tenant::default(),
            plan: PlanMode::Explicit,
            priority: Priority::Normal,
            deadline_ms: 0,
            seed: id,
            shadow: false,
            fail_times: 0,
            program: None,
            kernel: None,
        }
    }

    /// Builds the validated [`BlockConfig`] this job runs under.
    ///
    /// # Errors
    /// [`PlanError::UnsupportedDim`] when `dim` is not 2/3, otherwise
    /// [`PlanError::Config`] wrapping the constraint the geometry violates
    /// (Eqs. 2, 6).
    pub fn block_config(&self) -> Result<BlockConfig, PlanError> {
        match self.dim {
            2 => BlockConfig::new_2d(self.rad, self.bsize_x, self.parvec, self.partime)
                .map_err(PlanError::Config),
            3 => BlockConfig::new_3d(
                self.rad,
                self.bsize_x,
                self.bsize_y,
                self.parvec,
                self.partime,
            )
            .map_err(PlanError::Config),
            d => Err(PlanError::UnsupportedDim { dim: d }),
        }
    }

    /// Admission-time validation: block config plus grid/iteration sanity.
    /// Auto-planned jobs skip the block-config check (the planner replaces
    /// those fields) but still require sane geometry.
    ///
    /// # Errors
    /// The exact [`PlanError`] variant naming why the spec cannot be served.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.nx == 0 || self.ny == 0 || (self.dim == 3 && self.nz == 0) {
            return Err(PlanError::EmptyGrid);
        }
        if self.dim != 2 && self.dim != 3 {
            return Err(PlanError::UnsupportedDim { dim: self.dim });
        }
        if self.replicas.get() == 0 {
            return Err(PlanError::ZeroReplicas);
        }
        if let Some(spec) = &self.kernel {
            if self.program.is_some() {
                return Err(PlanError::KernelWithProgram);
            }
            if self.plan == PlanMode::Explicit && self.backend == Backend::Threaded {
                return Err(PlanError::KernelBackend {
                    backend: self.backend,
                });
            }
            spec.desc(self.dim, self.rad, self.seed)
                .map_err(PlanError::Config)?;
        }
        if let Some(program) = &self.program {
            // Program jobs take their block configurations from placement,
            // so the spec-level config fields are not checked; the graph
            // and its halo/shape compatibility are.
            program.validate().map_err(PlanError::Program)?;
            return program
                .validate_shape(self.dim, self.nx, self.ny, self.nz)
                .map_err(PlanError::Program);
        }
        match self.plan {
            PlanMode::Auto => Ok(()),
            PlanMode::Explicit => self.block_config().map(|_| ()),
        }
    }

    /// Useful cell updates the job performs: `cells · iters` for a
    /// single-kernel job, the sum over every program stage and frame for a
    /// program job.
    pub fn work_cells(&self) -> u64 {
        if let Some(program) = &self.program {
            return program.work_cells(self.dim, self.nx, self.ny, self.nz);
        }
        let cells =
            self.nx as u64 * self.ny as u64 * if self.dim == 3 { self.nz as u64 } else { 1 };
        cells * self.iters as u64
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Terminal state of a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Ran to completion (possibly after retries).
    Completed,
    /// Deadline expired — while queued, or detected during/after the run.
    TimedOut,
    /// Cancelled via its [`crate::cancel::CancelToken`] before completion.
    Cancelled,
    /// Exhausted its retry budget on transient failures.
    Failed,
}

/// What the runtime reports back for one admitted job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResult {
    /// The spec's `id`.
    pub id: u64,
    /// The spec's tenant name — the fairness accounting key.
    pub tenant: String,
    /// Shard that served (or abandoned) the job. A shard pops only jobs
    /// for its own backend, so this is the backend the job was queued for
    /// (the planned one for auto-planned jobs).
    pub backend: Backend,
    /// Terminal state.
    pub outcome: Outcome,
    /// Execution attempts made (0 when the job never started).
    pub attempts: u32,
    /// Time spent queued before the shard first picked the job up.
    pub queue_wait_ms: f64,
    /// Wall time of the final execution attempt (0 when never run).
    pub run_ms: f64,
    /// Admission-to-terminal-state wall time.
    pub total_ms: f64,
    /// Useful cell updates committed (0 unless completed).
    pub cells_updated: u64,
    /// FNV-1a checksum over the output grid's bit patterns (completed jobs
    /// only) — lets a replayed workload assert end-to-end determinism.
    pub checksum: Option<u64>,
    /// Shadow verification verdict: `Some(true)` = bit-exact match with the
    /// frozen serial oracle, `Some(false)` = mismatch, `None` = not sampled.
    pub shadow_match: Option<bool>,
    /// The planner's decision for auto-planned jobs (backend, block config,
    /// lanes, and cached/explored provenance); `None` for explicit jobs.
    pub plan: Option<PlanChoice>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn priority_ranks_order() {
        assert!(Priority::High.rank() > Priority::Normal.rank());
        assert!(Priority::Normal.rank() > Priority::Low.rank());
    }

    #[test]
    fn default_specs_validate() {
        for rad in 1..=4 {
            JobSpec::new_2d(1, rad, 96, 32, 4).validate().unwrap();
            JobSpec::new_3d(2, rad, 24, 24, 8, 2).validate().unwrap();
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_exact_variants() {
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.nx = 0;
        assert_eq!(s.validate().unwrap_err(), PlanError::EmptyGrid);
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.dim = 4;
        assert_eq!(
            s.validate().unwrap_err(),
            PlanError::UnsupportedDim { dim: 4 }
        );
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.partime = 3; // violates Eq. 6 for rad 2
        assert!(matches!(
            s.validate().unwrap_err(),
            PlanError::Config(stencil_core::StencilError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn auto_mode_defers_block_config_to_planner() {
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.partime = 3; // invalid explicit config...
        s.plan = PlanMode::Auto; // ...but auto mode replaces it
        s.validate().unwrap();
        // Geometry errors are still admission-time errors in auto mode.
        s.ny = 0;
        assert_eq!(s.validate().unwrap_err(), PlanError::EmptyGrid);
    }

    #[test]
    fn jsonl_round_trip() {
        let spec = JobSpec::new_3d(42, 2, 30, 26, 7, 3);
        let line = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn replicas_default_to_one_in_old_workloads() {
        let spec = JobSpec::new_2d(8, 1, 64, 16, 2);
        let mut line = serde_json::to_string(&spec).unwrap();
        // Simulate a pre-replica JSONL line with no `replicas` key.
        line = line.replace("\"replicas\":1,", "");
        assert!(!line.contains("replicas"), "field must be gone: {line}");
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back.replicas, Replicas(1));
        assert_eq!(back, spec);
        // Zero on the wire is rejected outright, not defaulted.
        let zero = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"replicas\":1,", "\"replicas\":0,");
        assert!(serde_json::from_str::<JobSpec>(&zero).is_err());
    }

    #[test]
    fn program_field_roundtrips_and_defaults_to_none() {
        let mut spec = JobSpec::new_2d(9, 1, 64, 48, 2);
        spec.program = Some(crate::program::StencilProgram::heat_gradient_2d(3));
        let line = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, spec);

        // Pre-program JSONL lines carry no `program` key and must load as
        // plain single-kernel jobs (same precedent as `replicas`/`tenant`).
        let plain = JobSpec::new_2d(9, 1, 64, 48, 2);
        let line = serde_json::to_string(&plain)
            .unwrap()
            .replace(",\"program\":null", "");
        assert!(!line.contains("program"), "field must be gone: {line}");
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back.program, None);
        assert_eq!(back, plain);
    }

    #[test]
    fn program_jobs_validate_graph_and_shape() {
        let mut s = JobSpec::new_2d(1, 1, 64, 48, 2);
        // Program jobs skip the explicit block-config check entirely.
        s.partime = 3;
        s.program = Some(crate::program::StencilProgram::heat_gradient_2d(2));
        s.validate().unwrap();
        assert_eq!(s.work_cells(), 64 * 48 * 3 * 2, "sum over stages x frames");

        // Graph errors surface as the exact wrapped variant.
        let mut p = crate::program::StencilProgram::heat_gradient_2d(2);
        p.edges[0].depth = 0;
        s.program = Some(p);
        assert!(matches!(
            s.validate().unwrap_err(),
            PlanError::Program(crate::program::ProgramError::ZeroDepthChannel { .. })
        ));

        // Shape mismatch: a 3D program on a too-thin grid.
        let mut s3 = JobSpec::new_3d(2, 2, 48, 48, 3, 2);
        s3.program = Some(crate::program::StencilProgram::seismic_3d(2));
        assert!(matches!(
            s3.validate().unwrap_err(),
            PlanError::Program(crate::program::ProgramError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn kernel_field_roundtrips_and_defaults_to_none() {
        let mut spec = JobSpec::new_2d(11, 2, 64, 48, 2);
        spec.kernel = Some(KernelSpec {
            taps: KernelClass::Box,
            boundary: BoundaryCond::Periodic,
        });
        let line = serde_json::to_string(&spec).unwrap();
        assert!(
            line.contains("\"taps\":\"box\"") && line.contains("\"boundary\":\"periodic\""),
            "wire names: {line}"
        );
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back, spec);

        // Pre-kernel JSONL lines carry no `kernel` key and must load as
        // classic star/clamp jobs (same precedent as `program`).
        let plain = JobSpec::new_2d(11, 2, 64, 48, 2);
        let line = serde_json::to_string(&plain)
            .unwrap()
            .replace(",\"kernel\":null", "");
        assert!(!line.contains("kernel"), "field must be gone: {line}");
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back.kernel, None);
        assert_eq!(back, plain);

        // Unknown tap / boundary names are typed errors, not defaults.
        let bad = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"taps\":\"box\"", "\"taps\":\"hex\"");
        assert!(serde_json::from_str::<JobSpec>(&bad).is_err());
    }

    #[test]
    fn kernel_jobs_validate_backend_and_program_exclusion() {
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.kernel = Some(KernelSpec {
            taps: KernelClass::Asymmetric,
            boundary: BoundaryCond::Reflective,
        });
        s.validate().unwrap();
        // The threaded dataflow simulator cannot serve desc kernels.
        s.backend = Backend::Threaded;
        assert_eq!(
            s.validate().unwrap_err(),
            PlanError::KernelBackend {
                backend: Backend::Threaded
            }
        );
        // ...unless the planner picks the backend anyway.
        s.plan = PlanMode::Auto;
        s.validate().unwrap();
        // Kernel and program are mutually exclusive.
        s.program = Some(crate::program::StencilProgram::heat_gradient_2d(2));
        assert_eq!(s.validate().unwrap_err(), PlanError::KernelWithProgram);
    }

    #[test]
    fn kernel_spec_desc_is_pure_and_star_matches_legacy_coefficients() {
        let spec = KernelSpec {
            taps: KernelClass::Star,
            boundary: BoundaryCond::Clamp,
        };
        let a = spec.desc(2, 3, 77).unwrap();
        let b = spec.desc(2, 3, 77).unwrap();
        assert_eq!(a, b, "desc is a pure function of (dim, rad, seed, spec)");
        // A star/clamp spec executes bit-exactly as the legacy star job
        // with the same (rad, seed) — the desc route is unobservable.
        let legacy = stencil_core::Stencil2D::<f32>::random(3, 77).unwrap();
        let grid =
            stencil_core::Grid2D::from_fn(17, 9, |x, y| ((x * 3 + y * 5) % 11) as f32).unwrap();
        let k = stencil_core::compile_2d::<f32>(&a, 8).unwrap();
        assert_eq!(
            k.run(&grid, 2),
            stencil_core::exec::run_2d(&legacy, &grid, 2)
        );
        assert!(spec.desc(4, 3, 77).is_err(), "bad dim is a typed error");
    }

    #[test]
    fn zero_replicas_fail_validation() {
        let mut s = JobSpec::new_2d(1, 2, 96, 32, 4);
        s.replicas = Replicas(0);
        assert_eq!(s.validate().unwrap_err(), PlanError::ZeroReplicas);
        s.replicas = Replicas(4);
        s.validate().unwrap();
    }

    #[test]
    fn plan_mode_defaults_to_explicit_in_old_workloads() {
        let spec = JobSpec::new_2d(7, 1, 64, 16, 2);
        let mut line = serde_json::to_string(&spec).unwrap();
        // Simulate a pre-planner JSONL line with no `plan` key.
        line = line.replace("\"plan\":\"explicit\",", "");
        assert!(!line.contains("plan"), "field must really be gone: {line}");
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back.plan, PlanMode::Explicit);
        assert_eq!(back, spec);
    }

    #[test]
    fn tenant_defaults_in_old_workloads() {
        let spec = JobSpec::new_2d(9, 1, 64, 16, 2);
        let mut line = serde_json::to_string(&spec).unwrap();
        // Simulate a pre-tenant JSONL line with no `tenant` key.
        line = line.replace("\"tenant\":\"default\",", "");
        assert!(!line.contains("tenant"), "field must be gone: {line}");
        let back: JobSpec = serde_json::from_str(&line).unwrap();
        assert_eq!(back.tenant, Tenant::default());
        assert_eq!(back, spec);
        // A named tenant round-trips.
        let mut named = spec.clone();
        named.tenant = Tenant::new("acme");
        let round: JobSpec = serde_json::from_str(&serde_json::to_string(&named).unwrap()).unwrap();
        assert_eq!(round.tenant.name(), "acme");
        // An empty tenant string on the wire is rejected, not defaulted.
        let empty = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"tenant\":\"default\",", "\"tenant\":\"\",");
        assert!(serde_json::from_str::<JobSpec>(&empty).is_err());
    }

    #[test]
    fn work_cells_counts_dim() {
        assert_eq!(JobSpec::new_2d(0, 1, 10, 5, 3).work_cells(), 150);
        assert_eq!(JobSpec::new_3d(0, 1, 10, 5, 2, 3).work_cells(), 300);
    }
}
