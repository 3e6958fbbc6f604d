//! Model-guided auto-planning: closing the loop between the paper's
//! analytical tuner and the serving runtime.
//!
//! The paper's §V.A flow enumerates every legal `(bsize, parvec, partime)`
//! configuration, scores each with the analytical model, and commits only
//! the top few to place-and-route. The serving equivalent: a [`JobSpec`]
//! submitted in [`PlanMode::Auto`] does not hand-pick its block
//! configuration or backend — the [`Planner`] consults
//! `perf_model::tuner::shape_candidates` for the top four valid
//! candidate plans (backend + `BlockConfig` + lane width) for the job's
//! `(dim, rad, grid shape, deadline)`, every one re-validated against the
//! Eq. 2 / Eq. 6 constraints, and picks one through a concurrent **plan
//! cache** keyed by job shape class. A star shape's table holds those
//! four plans on the functional backend plus a CPU-engine alternate; a
//! desc shape's holds only the CPU-engine plan, the one that runs a desc.
//!
//! The cache refines the model's static ranking with *measured* feedback:
//! workers report each completed auto-planned job's achieved cells/s back
//! into the cache, and every cache hit exploits the candidate with the
//! best estimated throughput — its measured mean once it has one, the
//! conservative prior until then. A cache miss trusts the
//! model's top pick. The planner never selects a candidate that failed
//! validation, because invalid configurations are filtered out before
//! they ever enter the candidate table.
//!
//! Exploitation is **load-aware**: the planner tracks how many of its
//! jobs are in flight per backend (incremented at plan time, released by
//! the worker at job completion) and ranks candidates by estimated
//! throughput divided by `(in-flight + 1)` — shortest expected finish,
//! not fastest in isolation. Without this, every job chases the single
//! fastest backend, its shard's run queue backs up, and the other shards
//! idle; with it, overflow spills onto the next-fastest backend exactly
//! when the backlog justifies the slower per-job rate — which is also
//! how the slower candidates get measured.
//!
//! Every decision is surfaced: the chosen [`PlanChoice`] (with its
//! model/cached/warm provenance) rides on the `JobResult`, and the
//! planner maintains counters (`plans_requested`, `plan_cache_hits`,
//! `plan_cache_misses`, `plan_cache_warm_hits`, `plan_feedback_samples`)
//! in the [`MetricsRegistry`].

use crate::job::{Backend, JobSpec, MAX_GRID_CELLS};
use crate::metrics::MetricsRegistry;
use crate::persist::{PersistError, PlannerMemory, ShapeMemory, StatMemory};
use crate::program::StencilProgram;
use fpga_sim::FpgaDevice;
use perf_model::tuner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use stencil_core::util::fnv1a64_lanes;
use stencil_core::{BlockConfig, Dim, KernelClass, StencilError};

/// Why a job spec cannot be validated or planned. The typed replacement
/// for the stringly errors `JobSpec::block_config` used to return — tests
/// assert exact variants instead of grepping messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// `dim` was not 2 or 3.
    UnsupportedDim {
        /// The dimensionality the spec asked for.
        dim: usize,
    },
    /// A grid extent was zero.
    EmptyGrid,
    /// The spec's explicit block configuration violates one of the paper's
    /// constraints (Eqs. 2, 6) — the underlying error names the rule.
    Config(StencilError),
    /// The planner found no valid candidate plan for the job's shape.
    NoCandidates {
        /// The shape's dimensionality.
        dim: usize,
        /// The shape's stencil radius.
        rad: usize,
    },
    /// `replicas` was zero — the functional backend needs at least one
    /// chain.
    ZeroReplicas,
    /// The job carries an invalid stencil program — the underlying
    /// [`crate::program::ProgramError`] names the graph rule it violates.
    Program(crate::program::ProgramError),
    /// The job sets both `kernel` and `program` — a desc kernel describes
    /// one operator, a program is a DAG of fixed-star operators.
    KernelWithProgram,
    /// The grid's cell count, or the job's work (`cells · iters`, summed
    /// over nodes and frames for a program), overflows a u64.
    WorkOverflow,
    /// The grid holds more than [`crate::job::MAX_GRID_CELLS`] cells, so
    /// its buffers would not fit in memory.
    GridTooLarge {
        /// The grid's cell count.
        cells: u64,
        /// The cap it exceeds.
        max: u64,
    },
    /// The spec names a backend that does not run its kind of job (a
    /// program runs on Functional, a desc kernel on CpuEngine).
    WrongBackend {
        /// The backend the spec names.
        backend: Backend,
        /// The one backend that runs this kind of job.
        runs_on: Backend,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnsupportedDim { dim } => write!(f, "dim must be 2 or 3, got {dim}"),
            PlanError::EmptyGrid => write!(f, "grid extents must be positive"),
            PlanError::Config(e) => write!(f, "{e}"),
            PlanError::NoCandidates { dim, rad } => {
                write!(f, "no valid candidate plan for dim {dim} rad {rad}")
            }
            PlanError::ZeroReplicas => write!(f, "replicas must be >= 1"),
            PlanError::Program(e) => write!(f, "{e}"),
            PlanError::KernelWithProgram => {
                write!(f, "a job cannot carry both a kernel and a program")
            }
            PlanError::WorkOverflow => write!(f, "grid cells or work overflow a u64"),
            PlanError::GridTooLarge { cells, max } => {
                write!(
                    f,
                    "grid has {cells} cells, more than the {max} a job may hold"
                )
            }
            PlanError::WrongBackend { backend, runs_on } => {
                write!(f, "this job runs on backend {runs_on}, not {backend}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Config(e) => Some(e),
            PlanError::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StencilError> for PlanError {
    fn from(e: StencilError) -> Self {
        PlanError::Config(e)
    }
}

/// How a job's block configuration and backend are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// The spec's own `bsize/parvec/partime/backend` fields are used
    /// verbatim (the pre-planner behaviour, and still the default).
    #[default]
    Explicit,
    /// The planner overrides the spec's configuration and backend with a
    /// model-ranked, measurement-refined plan for the job's shape.
    Auto,
}

// Manual serde impls: the wire format is the lowercase mode name
// (`"plan": "auto"`), and an absent/null field reads as `Explicit` so
// pre-planner JSONL workloads stay loadable.
impl Serialize for PlanMode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                PlanMode::Explicit => "explicit",
                PlanMode::Auto => "auto",
            }
            .to_string(),
        )
    }
}

impl Deserialize for PlanMode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(PlanMode::Explicit),
            serde::Value::Str(s) if s == "explicit" => Ok(PlanMode::Explicit),
            serde::Value::Str(s) if s == "auto" => Ok(PlanMode::Auto),
            _ => Err(serde::Error::custom("plan mode must be explicit|auto")),
        }
    }

    // Absence opts in to the default (serde's `#[serde(default)]`): only
    // this field, not every field in the workspace, tolerates a missing key.
    fn absent() -> Option<Self> {
        Some(PlanMode::Explicit)
    }
}

/// Which device's analytical model ranks candidate plans: the paper's
/// DDR-attached Arria 10 (two channels, deep temporal chains win) or an
/// HBM-class Stratix 10 MX (32 pseudo-channels, where the tuner's hybrid
/// `replicas × partime` axis opens and spatially replicated shallow chains
/// win the model ranking). The profile decides which candidates exist;
/// measured feedback still decides which one actually wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceProfile {
    /// The paper's Arria 10 GX 1150 with one shared DDR4 interface.
    #[default]
    Ddr,
    /// A Stratix 10 MX-class device with 32 HBM2 pseudo-channels.
    Hbm,
}

impl DeviceProfile {
    /// Every profile, in CLI order.
    pub const ALL: [DeviceProfile; 2] = [DeviceProfile::Ddr, DeviceProfile::Hbm];

    /// The device-catalog entry this profile ranks candidates against.
    pub fn fpga_device(self) -> FpgaDevice {
        match self {
            DeviceProfile::Ddr => FpgaDevice::arria10_gx1150(),
            DeviceProfile::Hbm => FpgaDevice::stratix10_mx2100(),
        }
    }

    /// Independent memory channels the profile's device exposes.
    pub fn mem_channels(self) -> usize {
        self.fpga_device().mem_channels
    }

    /// Stable lowercase name (used in CLI flags and reports).
    pub fn name(self) -> &'static str {
        match self {
            DeviceProfile::Ddr => "ddr",
            DeviceProfile::Hbm => "hbm",
        }
    }

    /// Parses a [`DeviceProfile::name`] string.
    pub fn parse(s: &str) -> Option<DeviceProfile> {
        DeviceProfile::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The plan cache key: a job's *shape class*. Grid extents are bucketed to
/// their ceiling power of two so that jobs of similar geometry share one
/// candidate table and one feedback history — without bucketing, a
/// workload of organically-sized grids would never hit the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey {
    /// Dimensionality (2 or 3).
    pub dim: usize,
    /// Stencil radius.
    pub rad: usize,
    /// `nx` rounded up to a power of two.
    pub nx_class: usize,
    /// `ny` rounded up to a power of two.
    pub ny_class: usize,
    /// `nz` rounded up to a power of two (1 for 2D).
    pub nz_class: usize,
    /// Kernel class for desc-kernel jobs (`None` for legacy star jobs,
    /// keeping their shape keys and labels byte-identical). Desc kernels
    /// get their own candidate tables even for the star family: those
    /// hold a different candidate set, the CPU engine alone.
    pub kernel_class: Option<KernelClass>,
}

impl ShapeKey {
    /// The shape class `spec` falls into.
    pub fn of(spec: &JobSpec) -> ShapeKey {
        let bucket = |n: usize| n.max(1).next_power_of_two();
        ShapeKey {
            dim: spec.dim,
            rad: spec.rad,
            nx_class: bucket(spec.nx),
            ny_class: bucket(spec.ny),
            nz_class: if spec.dim == 3 { bucket(spec.nz) } else { 1 },
            kernel_class: spec.kernel.as_ref().map(|k| k.taps),
        }
    }

    /// Stable string form, used as the metrics-gauge suffix and the
    /// report key: `d2r3x128y64z1` for legacy jobs, with a `kstar` /
    /// `kbox` / `kasym` suffix for desc-kernel shape classes.
    pub fn label(&self) -> String {
        format!(
            "d{}r{}x{}y{}z{}{}",
            self.dim,
            self.rad,
            self.nx_class,
            self.ny_class,
            self.nz_class,
            kernel_class_suffix(self.kernel_class)
        )
    }
}

/// The label suffix a kernel class contributes to shape keys (empty for
/// legacy star jobs, so every pre-kernel label survives unchanged).
fn kernel_class_suffix(class: Option<KernelClass>) -> &'static str {
    match class {
        None => "",
        Some(KernelClass::Star) => "kstar",
        Some(KernelClass::Box) => "kbox",
        Some(KernelClass::Asymmetric) => "kasym",
    }
}

/// One validated candidate plan for a shape class.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// Backend that would serve the job.
    pub backend: Backend,
    /// The validated block configuration (its `parvec` is the lane width).
    pub config: BlockConfig,
    /// Spatially replicated chain count (1 = single deep-temporal chain;
    /// only many-channel profiles enumerate more).
    pub replicas: usize,
    /// Model ranking score (shape-derated GCell/s; see
    /// `perf_model::tuner::shape_candidates`).
    pub score: f64,
}

/// The decision the planner made for one job — recorded on the
/// [`crate::job::JobResult`] so every plan is auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanChoice {
    /// Backend the planner routed the job to.
    pub backend: Backend,
    /// Chosen spatial block size in x.
    pub bsize_x: usize,
    /// Chosen spatial block size in y (0 for 2D).
    pub bsize_y: usize,
    /// Chosen lane width.
    pub parvec: usize,
    /// Chosen temporal blocking depth.
    pub partime: usize,
    /// Chosen spatially replicated chain count.
    pub replicas: usize,
    /// The candidate's model score.
    pub score: f64,
    /// Whether the shape's candidate table was already cached.
    pub cached: bool,
    /// Whether the cache entry serving this hit was seeded from a
    /// planner-memory sidecar rather than learned this run.
    pub warm: bool,
}

impl PlanChoice {
    /// The plan's provenance label, as trace records carry it:
    /// `warm` > `cached` > `model` (a cache miss trusts the model's static
    /// ranking).
    pub fn provenance(&self) -> &'static str {
        if self.warm {
            "warm"
        } else if self.cached {
            "cached"
        } else {
            "model"
        }
    }

    /// Writes the plan into a spec's configuration fields.
    pub fn apply_to(&self, spec: &mut JobSpec) {
        spec.backend = self.backend;
        spec.bsize_x = self.bsize_x;
        spec.bsize_y = self.bsize_y;
        spec.parvec = self.parvec;
        spec.partime = self.partime;
        spec.replicas = crate::job::Replicas(self.replicas);
    }
}

/// A plan bound to its cache slot, carried through the queue so the
/// worker can report measured throughput back to the exact candidate.
#[derive(Debug, Clone)]
pub struct PlanAssignment {
    /// The shape class the plan came from.
    pub key: ShapeKey,
    /// Index of the chosen candidate in the shape's table.
    pub index: usize,
    /// The decision, as recorded on the result.
    pub choice: PlanChoice,
}

/// Candidate plans kept per shape class (the paper's "top few").
const TOP_K: usize = 4;

/// Half-life, in boots, of persisted measured rates. A warm-started shape
/// that last saw fresh feedback `age` boots ago has its means blended
/// toward the prior with weight `0.5^(age / half_life)` — after
/// enough idle boots a once-fast candidate's stale rate decays to the
/// prior and fresh feedback beats it. Rates measured (or refreshed) in
/// the current run never decay.
const WARM_HALF_LIFE_BOOTS: f64 = 4.0;

/// Per-candidate measured-throughput accumulator.
#[derive(Debug, Default, Clone, Copy)]
struct Stat {
    sum_cells_per_sec: f64,
    samples: u64,
    /// Whether any sample arrived in the current run (fresh feedback is
    /// exempt from age decay, and resets the entry's exported age).
    fresh: bool,
}

impl Stat {
    fn mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum_cells_per_sec / self.samples as f64)
    }

    /// The throughput the decision rules see: fresh feedback verbatim,
    /// persisted feedback blended toward [`PRIOR_CELLS_PER_SEC`] by the
    /// age-decay weight, and the prior itself until feedback arrives.
    fn estimate(&self, decay: f64) -> f64 {
        match self.mean() {
            Some(m) if self.fresh => m,
            Some(m) => decay * m + (1.0 - decay) * PRIOR_CELLS_PER_SEC,
            None => PRIOR_CELLS_PER_SEC,
        }
    }
}

/// One shape class's cached candidate table plus its feedback history.
#[derive(Debug)]
struct CacheEntry {
    candidates: Vec<PlanCandidate>,
    stats: Vec<Stat>,
    planned: u64,
    /// Whether the entry was seeded from a planner-memory sidecar.
    warm: bool,
    /// Boots since the entry's rates last saw fresh feedback (0 for
    /// entries built or fed back this run; warm-started entries inherit
    /// the sidecar's age).
    age: u64,
}

impl CacheEntry {
    /// Age-decay weight for this entry's persisted means.
    fn decay(&self) -> f64 {
        0.5f64.powf(self.age as f64 / WARM_HALF_LIFE_BOOTS)
    }
}

/// One plan request's outcome, in request order — the per-request ledger
/// behind the serve report's warm-convergence curve. `history.len()`
/// always equals the `plans_requested` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEvent {
    /// Whether the request hit the plan cache (failed requests count as
    /// misses, mirroring the counters).
    pub hit: bool,
    /// Whether the hit landed on a sidecar-seeded (warm) entry.
    pub warm: bool,
}

/// Point-in-time view of one shape class, for reports and `--plan-explain`.
#[derive(Debug, Clone)]
pub struct ShapeSnapshot {
    /// The shape class.
    pub key: ShapeKey,
    /// The candidate table, in model-rank order.
    pub candidates: Vec<PlanCandidate>,
    /// Jobs planned against this shape.
    pub planned: u64,
    /// Index of the current winner: best measured mean, falling back to
    /// the model's top pick while no feedback has arrived.
    pub best_index: usize,
    /// Mean measured cells/s of the winner (0 until feedback arrives).
    pub mean_cells_per_sec: f64,
}

/// The model-guided plan cache. Thread-safe; one instance serves the
/// whole runtime.
pub struct Planner {
    profile: DeviceProfile,
    device: FpgaDevice,
    cache: Mutex<BTreeMap<ShapeKey, CacheEntry>>,
    /// Auto-planned jobs currently in flight per backend; the denominator
    /// of the load-aware exploit rule. Locked after `cache` when both are
    /// held.
    load: Mutex<BTreeMap<Backend, u64>>,
    /// Per-request hit/miss ledger, in request order. Locked after
    /// `cache` when both are held.
    history: Mutex<Vec<PlanEvent>>,
}

impl Planner {
    /// A planner ranking candidates against `profile`'s analytical model.
    /// [`DeviceProfile::Hbm`] opens the tuner's `replicas × partime` hybrid
    /// axis, so candidate tables carry spatially replicated shallow chains
    /// alongside (and, on memory-bound shapes, ahead of) the deep temporal
    /// configurations the DDR profile favors.
    pub fn new(profile: DeviceProfile) -> Planner {
        Planner {
            profile,
            device: profile.fpga_device(),
            cache: Mutex::new(BTreeMap::new()),
            load: Mutex::new(BTreeMap::new()),
            history: Mutex::new(Vec::new()),
        }
    }

    /// The device profile this planner ranks candidates against.
    pub fn device_profile(&self) -> DeviceProfile {
        self.profile
    }

    /// Plans one auto-mode job: resolves (building on first sight) the
    /// shape's candidate table, then picks a candidate — the best
    /// load-aware estimated throughput for cache hits, the model's top pick
    /// for misses — restricted to candidates whose backend is in `served` and
    /// whose predicted runtime fits the spec's deadline (when any
    /// candidate does).
    ///
    /// # Errors
    /// [`PlanError::EmptyGrid`] / [`PlanError::UnsupportedDim`] for
    /// malformed geometry, [`PlanError::NoCandidates`] when no valid
    /// candidate exists for the shape on the served backends.
    pub fn plan(
        &self,
        spec: &JobSpec,
        served: &[Backend],
        metrics: &MetricsRegistry,
    ) -> Result<PlanAssignment, PlanError> {
        if spec.dim != 2 && spec.dim != 3 {
            return Err(PlanError::UnsupportedDim { dim: spec.dim });
        }
        if spec.nx == 0 || spec.ny == 0 || (spec.dim == 3 && spec.nz == 0) {
            return Err(PlanError::EmptyGrid);
        }
        let key = ShapeKey::of(spec);
        metrics.counter("plans_requested").inc();

        let mut cache = self.cache.lock().unwrap();
        let cached = cache.contains_key(&key);
        if !cached {
            let candidates = self.build_candidates(&key, served);
            if candidates.is_empty() {
                metrics.counter("plan_cache_misses").inc();
                self.push_event(PlanEvent {
                    hit: false,
                    warm: false,
                });
                return Err(PlanError::NoCandidates {
                    dim: key.dim,
                    rad: key.rad,
                });
            }
            let stats = vec![Stat::default(); candidates.len()];
            cache.insert(
                key,
                CacheEntry {
                    candidates,
                    stats,
                    planned: 0,
                    warm: false,
                    age: 0,
                },
            );
        }
        let entry = cache.get_mut(&key).expect("inserted above");

        // Estimated throughput per candidate, copied out of the entry so
        // the entry stays mutable below.
        let decay = entry.decay();
        let backends: Vec<Backend> = entry.candidates.iter().map(|c| c.backend).collect();
        let est: Vec<f64> = entry.stats.iter().map(|s| s.estimate(decay)).collect();

        // Candidates eligible for this job: backend is served (the table
        // is already filtered at build time, but the served set may differ
        // between runtimes sharing a planner in tests), and the predicted
        // runtime fits the deadline. If the deadline disqualifies every
        // candidate, serve the job anyway with the full set — a slow plan
        // beats a guaranteed rejection.
        let eligible: Vec<usize> = {
            let by_deadline: Vec<usize> = (0..backends.len())
                .filter(|&i| served.contains(&backends[i]))
                .filter(|&i| deadline_fits(est[i], spec))
                .collect();
            if by_deadline.is_empty() {
                (0..backends.len())
                    .filter(|&i| served.contains(&backends[i]))
                    .collect()
            } else {
                by_deadline
            }
        };
        if eligible.is_empty() {
            // A cached table none of whose candidates is served cannot
            // answer this request; it counts as a miss, not a hit. Hit/miss
            // is recorded only below this point — after eligibility is
            // known — so the report invariant `hits + misses == requested`
            // holds across failed plans.
            metrics.counter("plan_cache_misses").inc();
            self.push_event(PlanEvent {
                hit: false,
                warm: false,
            });
            return Err(PlanError::NoCandidates {
                dim: key.dim,
                rad: key.rad,
            });
        }
        let warm = cached && entry.warm;
        metrics
            .counter(if cached {
                "plan_cache_hits"
            } else {
                "plan_cache_misses"
            })
            .inc();
        if warm {
            metrics.counter("plan_cache_warm_hits").inc();
        }
        self.push_event(PlanEvent { hit: cached, warm });
        entry.planned += 1;

        // A hit ranks by measured (or prior) throughput divided by the
        // backend's in-flight count — shortest expected finish, so
        // overflow spills to the next-fastest shard instead of piling onto
        // one. First sight of the shape trusts the model's ranking.
        let mut load = self.load.lock().unwrap();
        let index = if cached {
            exploit_index(&eligible, &backends, &est, &load)
        } else {
            eligible[0]
        };
        *load.entry(entry.candidates[index].backend).or_insert(0) += 1;
        drop(load);

        let c = &entry.candidates[index];
        debug_assert!(c.config.validate().is_ok(), "candidate table is validated");
        Ok(PlanAssignment {
            key,
            index,
            choice: PlanChoice {
                backend: c.backend,
                bsize_x: c.config.bsize_x,
                bsize_y: c.config.bsize_y,
                parvec: c.config.parvec,
                partime: c.config.partime,
                replicas: c.replicas,
                score: c.score,
                cached,
                warm,
            },
        })
    }

    /// Appends one request's outcome to the plan-history ledger.
    fn push_event(&self, event: PlanEvent) {
        self.history.lock().unwrap().push(event);
    }

    /// The per-request hit/miss ledger, in request order. Its length
    /// always equals the `plans_requested` counter — the serve-report
    /// validator leans on that identity.
    pub fn plan_history(&self) -> Vec<PlanEvent> {
        self.history.lock().unwrap().clone()
    }

    /// Feeds one completed job's measured throughput back into the plan
    /// cache.
    pub fn record_throughput(
        &self,
        assignment: &PlanAssignment,
        cells_per_sec: f64,
        metrics: &MetricsRegistry,
    ) {
        if !cells_per_sec.is_finite() || cells_per_sec <= 0.0 {
            return;
        }
        let mut cache = self.cache.lock().unwrap();
        let Some(entry) = cache.get_mut(&assignment.key) else {
            return;
        };
        let Some(stat) = entry.stats.get_mut(assignment.index) else {
            return;
        };
        stat.sum_cells_per_sec += cells_per_sec;
        stat.samples = stat.samples.saturating_add(1);
        stat.fresh = true;
        metrics.counter("plan_feedback_samples").inc();
    }

    /// Releases a planned job's in-flight slot — called by the worker once
    /// the job reaches *any* terminal state (completed, failed, timed out,
    /// or cancelled), so the load-aware exploit rule sees only jobs that
    /// are genuinely still queued or running.
    pub fn release(&self, assignment: &PlanAssignment) {
        let mut load = self.load.lock().unwrap();
        if let Some(n) = load.get_mut(&assignment.choice.backend) {
            *n = n.saturating_sub(1);
        }
    }

    /// Auto-planned jobs currently in flight on `backend`.
    pub fn in_flight(&self, backend: Backend) -> u64 {
        self.load
            .lock()
            .unwrap()
            .get(&backend)
            .copied()
            .unwrap_or(0)
    }

    /// Exports the plan cache's learned state for persistence: every
    /// cached shape's key, candidate-table fingerprint, planned count,
    /// and per-candidate throughput accumulators (float sums as IEEE-754
    /// bits, so the sidecar round-trips byte-stably).
    pub fn export_memory(&self) -> PlannerMemory {
        let cache = self.cache.lock().unwrap();
        PlannerMemory {
            device: self.profile.name().to_string(),
            shapes: cache
                .iter()
                .map(|(key, entry)| ShapeMemory {
                    dim: key.dim as u64,
                    rad: key.rad as u64,
                    nx_class: key.nx_class as u64,
                    ny_class: key.ny_class as u64,
                    nz_class: key.nz_class as u64,
                    kernel_class: key
                        .kernel_class
                        .map_or(String::new(), |c| c.name().to_string()),
                    fingerprint: candidate_fingerprint(&entry.candidates),
                    planned: entry.planned,
                    // Entries that saw fresh feedback this run export as
                    // age 0; untouched warm entries age one boot per
                    // export, so stale rates decay across restarts.
                    age: if entry.stats.iter().any(|s| s.fresh) {
                        0
                    } else {
                        entry.age.saturating_add(1)
                    },
                    stats: entry
                        .stats
                        .iter()
                        .map(|s| StatMemory {
                            sum_bits: s.sum_cells_per_sec.to_bits(),
                            samples: s.samples,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Warm-starts the plan cache from a persisted [`PlannerMemory`]:
    /// rebuilds each shape's candidate table against this planner's
    /// device and the `served` backends, verifies the sidecar's
    /// fingerprint matches (the measured rates must index the *same*
    /// candidates), and seeds the measured-rate accumulators. Adoption is
    /// all-or-nothing — any drift rejects the whole sidecar, leaving the
    /// cache exactly as it was. Seeded entries keep `planned = 0` (the
    /// counter describes *this* run) and are marked warm, so hits on
    /// them surface as `warm` provenance and in `plan_cache_warm_hits`.
    ///
    /// Returns the number of shapes adopted.
    ///
    /// # Errors
    /// [`PersistError::DeviceMismatch`] for a sidecar learned on another
    /// profile, [`PersistError::ShapeKeyDrift`] for an impossible shape
    /// key, [`PersistError::RateTableDrift`] when a shape's candidate
    /// table no longer matches its persisted fingerprint or stat count.
    pub fn warm_start(
        &self,
        memory: &PlannerMemory,
        served: &[Backend],
    ) -> Result<usize, PersistError> {
        if memory.device != self.profile.name() {
            return Err(PersistError::DeviceMismatch {
                expected: self.profile.name().to_string(),
                found: memory.device.clone(),
            });
        }
        // Validate and rebuild everything before touching the cache, so
        // a drifted shape found halfway through cannot leave a
        // half-adopted table behind.
        let mut adopted: Vec<(ShapeKey, CacheEntry)> = Vec::with_capacity(memory.shapes.len());
        for shape in &memory.shapes {
            // Exported shapes come from admitted jobs, whose grids hold at
            // most MAX_GRID_CELLS cells; the bounds also keep the tuner's
            // arithmetic in range for any sidecar.
            let class = |n: u64| n.is_power_of_two() && n <= MAX_GRID_CELLS;
            let kernel_class = if shape.kernel_class.is_empty() {
                None
            } else {
                Some(KernelClass::parse(&shape.kernel_class).ok_or_else(|| {
                    PersistError::ShapeKeyDrift {
                        label: shape.label(),
                    }
                })?)
            };
            let valid_key = (shape.dim == 2 || shape.dim == 3)
                && (1..=MAX_GRID_CELLS).contains(&shape.rad)
                && class(shape.nx_class)
                && class(shape.ny_class)
                && class(shape.nz_class)
                && (shape.dim == 3 || shape.nz_class == 1);
            if !valid_key {
                return Err(PersistError::ShapeKeyDrift {
                    label: shape.label(),
                });
            }
            let key = ShapeKey {
                dim: shape.dim as usize,
                rad: shape.rad as usize,
                nx_class: shape.nx_class as usize,
                ny_class: shape.ny_class as usize,
                nz_class: shape.nz_class as usize,
                kernel_class,
            };
            let candidates = self.build_candidates(&key, served);
            if candidates.is_empty()
                || candidates.len() != shape.stats.len()
                || candidate_fingerprint(&candidates) != shape.fingerprint
            {
                return Err(PersistError::RateTableDrift {
                    label: shape.label(),
                });
            }
            let stats = shape
                .stats
                .iter()
                .map(|s| Stat {
                    sum_cells_per_sec: s.sum_cells_per_sec(),
                    samples: s.samples,
                    fresh: false,
                })
                .collect();
            adopted.push((
                key,
                CacheEntry {
                    candidates,
                    stats,
                    planned: 0,
                    warm: true,
                    age: shape.age,
                },
            ));
        }
        let mut cache = self.cache.lock().unwrap();
        let count = adopted.len();
        for (key, entry) in adopted {
            cache.insert(key, entry);
        }
        Ok(count)
    }

    /// Point-in-time snapshot of every cached shape, for the serve report.
    pub fn snapshot(&self) -> Vec<ShapeSnapshot> {
        let cache = self.cache.lock().unwrap();
        cache
            .iter()
            .map(|(key, entry)| {
                // The report's "winner" is the best *measured* candidate;
                // while no feedback exists, the model's top pick.
                let best_index = entry
                    .stats
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.mean().map(|m| (i, m)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i);
                ShapeSnapshot {
                    key: *key,
                    candidates: entry.candidates.clone(),
                    planned: entry.planned,
                    best_index,
                    mean_cells_per_sec: entry.stats[best_index].mean().unwrap_or(0.0),
                }
            })
            .collect()
    }

    /// Builds the validated candidate table for one shape class: the
    /// model's top-k block configurations on the functional backend (star
    /// shapes only), plus a CPU-engine alternative on the best
    /// configuration — so the load-aware exploit rule has two genuinely
    /// different executors to spill between and measure.
    fn build_candidates(&self, key: &ShapeKey, served: &[Backend]) -> Vec<PlanCandidate> {
        let dim = if key.dim == 2 { Dim::D2 } else { Dim::D3 };
        let ranked = tuner::shape_candidates(
            &self.device,
            dim,
            key.rad,
            key.nx_class,
            key.ny_class,
            TOP_K,
        );
        let mut out: Vec<PlanCandidate> = Vec::new();
        if served.contains(&Backend::Functional) && key.kernel_class.is_none() {
            out.extend(ranked.iter().map(|c| PlanCandidate {
                backend: Backend::Functional,
                config: c.config,
                replicas: c.replicas,
                score: c.score,
            }));
        }
        if let Some(best) = ranked.first() {
            // The CPU engine ignores the block configuration at execution
            // time but is recorded under the model's best one; its score is
            // nudged below so the functional path stays the static winner
            // until measurements say otherwise. It always runs
            // single-chain: only the functional simulator executes the
            // replicated shape.
            if served.contains(&Backend::CpuEngine) {
                out.push(PlanCandidate {
                    backend: Backend::CpuEngine,
                    config: best.config,
                    replicas: 1,
                    score: best.score * 0.75,
                });
            }
        }
        debug_assert!(
            out.iter().all(|c| c.config.validate().is_ok()),
            "every published candidate must pass Eq. 2 / Eq. 6 validation"
        );
        out
    }
}

/// Exploit rule: among `eligible` candidates, maximize estimated
/// throughput (`Stat::estimate`) divided by `(in-flight + 1)` on the
/// candidate's backend. Ties keep the earlier (model-best) candidate.
fn exploit_index(
    eligible: &[usize],
    backends: &[Backend],
    est: &[f64],
    load: &BTreeMap<Backend, u64>,
) -> usize {
    let mut best = eligible[0];
    let mut best_rate = f64::NEG_INFINITY;
    for &i in eligible {
        let in_flight = load.get(&backends[i]).copied().unwrap_or(0);
        let rate = est[i] / (in_flight + 1) as f64;
        if rate > best_rate {
            best_rate = rate;
            best = i;
        }
    }
    best
}

/// Conservative prior throughput (cells/s), the same for both backends: a
/// candidate's estimate, for deadline screening and the exploit rule,
/// until it is measured.
const PRIOR_CELLS_PER_SEC: f64 = 5e7;

/// One program node placed on a simulated device: the block configuration
/// the tuner chose for it, the resources it occupies, and the perf-model
/// stage-rate estimate the cluster scheduler prices its firings with.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlacement {
    /// The program node's name.
    pub node: String,
    /// Device the node runs on (dense ids; pipeline-parallel placements
    /// give every node its own device).
    pub device: usize,
    /// Block configuration of one chain.
    pub config: BlockConfig,
    /// Spatially replicated chain count (HBM profiles may pick > 1).
    pub replicas: usize,
    /// DSP blocks the stage occupies on its device (all chains).
    pub dsps: u64,
    /// Physical BRAM bits the stage occupies on its device (all chains).
    pub bram_bits: u64,
    /// Derated perf-model estimate for the stage, cells/s.
    pub est_cells_per_sec: f64,
    /// Virtual ticks (µs of simulated time) one frame occupies the device.
    pub exec_ticks: u64,
}

/// A whole program mapped onto a cluster of simulated devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPlacement {
    /// Stages in topological order.
    pub stages: Vec<StagePlacement>,
    /// Devices the placement uses.
    pub devices: usize,
}

/// Places `program`'s nodes onto simulated devices of `profile` under the
/// per-device DSP/BRAM budgets the perf model reports.
///
/// Placement is pipeline-parallel — every node gets its own device, in
/// topological order — and **rate-balanced**: the tuner's top candidate per
/// node fixes the bottleneck frame rate, then every other node takes its
/// *cheapest* (fewest DSPs) candidate that still meets that rate, so fast
/// stages do not hoard area their frames cannot use.
///
/// # Errors
/// [`PlanError::UnsupportedDim`] for non-2D/3D specs, or
/// [`PlanError::NoCandidates`] when the tuner has no valid configuration
/// for a node's radius on this shape.
pub fn place_program(
    profile: DeviceProfile,
    spec: &JobSpec,
    program: &StencilProgram,
) -> Result<ProgramPlacement, PlanError> {
    let device = profile.fpga_device();
    let dim = match spec.dim {
        2 => Dim::D2,
        3 => Dim::D3,
        d => return Err(PlanError::UnsupportedDim { dim: d }),
    };
    let order = program.topo_order().expect("validated program");
    let cells = spec.nx as u64 * spec.ny as u64 * if spec.dim == 3 { spec.nz as u64 } else { 1 };

    // Candidate tables per stage, in topological order.
    let mut tables = Vec::with_capacity(order.len());
    for &i in &order {
        let node = &program.nodes[i];
        let cands = tuner::shape_candidates(&device, dim, node.rad, spec.nx, spec.ny, TOP_K);
        if cands.is_empty() {
            return Err(PlanError::NoCandidates {
                dim: spec.dim,
                rad: node.rad,
            });
        }
        tables.push((i, cands));
    }

    // Bottleneck frame rate under each stage's top candidate. A frame
    // costs `cells · iters` updates on its stage.
    let frame_hz = |score: f64, iters: usize| score * 1e9 / (cells as f64 * iters as f64);
    let bottleneck = tables
        .iter()
        .map(|(i, cands)| frame_hz(cands[0].score, program.nodes[*i].iters))
        .fold(f64::INFINITY, f64::min);

    let mut stages = Vec::with_capacity(tables.len());
    for (slot, (i, cands)) in tables.iter().enumerate() {
        let node = &program.nodes[*i];
        // Cheapest candidate still meeting the bottleneck rate; the top
        // candidate qualifies by construction, so the pick always exists.
        let pick = cands
            .iter()
            .filter(|c| frame_hz(c.score, node.iters) >= bottleneck)
            .min_by(|a, b| {
                (a.dsps * a.replicas as u64, a.bram_bits * a.replicas as u64)
                    .cmp(&(b.dsps * b.replicas as u64, b.bram_bits * b.replicas as u64))
            })
            .unwrap_or(&cands[0]);
        let dsps = pick.dsps * pick.replicas as u64;
        let bram_bits = pick.bram_bits * pick.replicas as u64;
        debug_assert!(dsps <= device.dsps && bram_bits <= device.m20k_bits);
        let est = pick.score * 1e9;
        let stage_cells = cells as f64 * node.iters as f64;
        // One virtual tick is 1 µs of simulated device time.
        let exec_ticks = (stage_cells / est * 1e6).ceil().max(1.0) as u64;
        stages.push(StagePlacement {
            node: node.name.clone(),
            device: slot,
            config: pick.config,
            replicas: pick.replicas,
            dsps,
            bram_bits,
            est_cells_per_sec: est,
            exec_ticks,
        });
    }

    Ok(ProgramPlacement {
        devices: stages.len(),
        stages,
    })
}

/// Whether a candidate with estimated throughput `est_cells_per_sec` is
/// predicted to finish `spec` inside its deadline (jobs without deadlines
/// always fit). Half the deadline is budgeted for the run; the rest
/// covers queueing.
fn deadline_fits(est_cells_per_sec: f64, spec: &JobSpec) -> bool {
    if spec.deadline_ms == 0 {
        return true;
    }
    let predicted_ms = spec.work_cells() as f64 / est_cells_per_sec * 1000.0;
    predicted_ms <= spec.deadline_ms as f64 * 0.5
}

/// FNV-1a fingerprint of a candidate table: backend names, block
/// configurations, replica counts, and score bit patterns, in table
/// order. A sidecar's measured rates are only adoptable when the table
/// they index hashes to the same value — any change to the tuner, the
/// device model, or the served-backend set shows up here as drift.
fn candidate_fingerprint(candidates: &[PlanCandidate]) -> u64 {
    // One lane per name byte and per field: order-sensitive.
    fnv1a64_lanes(candidates.iter().flat_map(|c| {
        c.backend.name().bytes().map(u64::from).chain([
            c.config.bsize_x as u64,
            c.config.bsize_y as u64,
            c.config.parvec as u64,
            c.config.partime as u64,
            c.replicas as u64,
            c.score.to_bits(),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auto_spec(id: u64, rad: usize, nx: usize, ny: usize) -> JobSpec {
        let mut s = JobSpec::new_2d(id, rad, nx, ny, 2);
        s.plan = PlanMode::Auto;
        s
    }

    #[test]
    fn candidate_fingerprint_is_pinned() {
        // Pinned: a changed fingerprint silently cold-starts every sidecar
        // written before the change (`planner_warm_rejected`). The value
        // hashes the first five candidates of this shape's table when it
        // also held a serial-reference one: the fold and they are unchanged.
        let planner = Planner::new(DeviceProfile::Ddr);
        let key = ShapeKey::of(&auto_spec(1, 2, 96, 32));
        let candidates = planner.build_candidates(&key, &Backend::ALL);
        assert_eq!(candidates.len(), 5);
        assert_eq!(candidate_fingerprint(&candidates), 0x032c_7805_a4eb_b054);
    }

    #[test]
    fn shape_key_buckets_extents() {
        let a = ShapeKey::of(&auto_spec(1, 2, 100, 60));
        let b = ShapeKey::of(&auto_spec(2, 2, 120, 40));
        assert_eq!(a, b, "same class after power-of-two bucketing");
        assert_eq!(a.label(), "d2r2x128y64z1");
        let c = ShapeKey::of(&auto_spec(3, 2, 200, 60));
        assert_ne!(a, c);
        // 2D keys ignore nz entirely.
        let mut s = auto_spec(4, 2, 100, 60);
        s.nz = 77;
        assert_eq!(ShapeKey::of(&s), a);
    }

    #[test]
    fn program_placement_is_pipelined_and_budgeted() {
        for profile in [DeviceProfile::Ddr, DeviceProfile::Hbm] {
            let device = profile.fpga_device();
            let spec = JobSpec::new_2d(1, 1, 192, 128, 1);
            let program = crate::program::StencilProgram::heat_gradient_2d(3);
            let p = place_program(profile, &spec, &program).unwrap();
            assert_eq!(p.devices, 2, "pipeline-parallel: one node per device");
            assert_eq!(p.stages.len(), 2);
            for (slot, s) in p.stages.iter().enumerate() {
                assert_eq!(s.device, slot);
                assert!(s.dsps <= device.dsps, "DSP budget respected");
                assert!(s.bram_bits <= device.m20k_bits, "BRAM budget respected");
                assert!(s.exec_ticks >= 1);
                assert!(s.est_cells_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn program_placement_3d_and_error_paths() {
        let spec3 = JobSpec::new_3d(1, 2, 48, 48, 24, 1);
        let program = crate::program::StencilProgram::seismic_3d(2);
        let p = place_program(DeviceProfile::Ddr, &spec3, &program).unwrap();
        assert_eq!(p.devices, 3);
        let mut bad = JobSpec::new_2d(2, 1, 64, 64, 1);
        bad.dim = 7;
        assert!(matches!(
            place_program(DeviceProfile::Ddr, &bad, &program),
            Err(PlanError::UnsupportedDim { dim: 7 })
        ));
    }

    #[test]
    fn first_plan_misses_then_hits() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let first = planner
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        assert!(!first.choice.cached);
        let second = planner
            .plan(&auto_spec(2, 2, 96, 32), &served, &metrics)
            .unwrap();
        assert!(second.choice.cached);
        assert_eq!(metrics.counter("plans_requested").get(), 2);
        assert_eq!(metrics.counter("plan_cache_misses").get(), 1);
        assert_eq!(metrics.counter("plan_cache_hits").get(), 1);
    }

    #[test]
    fn planned_configs_validate() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        for (id, (rad, nx, ny)) in [(1, 96, 32), (2, 300, 120), (4, 48, 16), (3, 64, 64)]
            .into_iter()
            .enumerate()
        {
            let asg = planner
                .plan(&auto_spec(id as u64, rad, nx, ny), &served, &metrics)
                .unwrap();
            let c = &asg.choice;
            let cfg = BlockConfig::new_2d(rad, c.bsize_x, c.parvec, c.partime).unwrap();
            assert!(cfg.csize_x() > 0, "Eq. 2");
            assert_eq!((cfg.partime * cfg.rad) % 4, 0, "Eq. 6");
        }
    }

    #[test]
    fn feedback_steers_exploitation() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let first = planner
            .plan(&auto_spec(1, 1, 96, 32), &served, &metrics)
            .unwrap();
        // Tell the cache a *different* candidate is empirically fastest.
        let other = PlanAssignment {
            index: first.index + 1,
            ..first.clone()
        };
        planner.record_throughput(&other, 1e9, &metrics);
        planner.record_throughput(&first, 1e3, &metrics);
        let next = planner
            .plan(&auto_spec(2, 1, 96, 32), &served, &metrics)
            .unwrap();
        assert_eq!(next.index, other.index, "exploits the measured winner");
        assert_eq!(metrics.counter("plan_feedback_samples").get(), 2);
        let snap = planner.snapshot();
        assert_eq!(snap[0].best_index, other.index);
        assert_eq!(snap[0].mean_cells_per_sec, 1e9);
    }

    #[test]
    fn exploitation_balances_in_flight_load() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let first = planner
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        assert_eq!(first.choice.backend, Backend::Functional, "model's pick");
        assert_eq!(planner.in_flight(Backend::Functional), 1);
        // With the functional shard busy and nothing released, the next
        // exploit spills to the equal-prior CPU engine.
        let second = planner
            .plan(&auto_spec(2, 2, 96, 32), &served, &metrics)
            .unwrap();
        assert_eq!(second.choice.backend, Backend::CpuEngine, "load spill");
        // Releasing both slots idles the planner; it returns to the
        // model-best candidate.
        planner.release(&first);
        planner.release(&second);
        assert_eq!(planner.in_flight(Backend::Functional), 0);
        assert_eq!(planner.in_flight(Backend::CpuEngine), 0);
        let third = planner
            .plan(&auto_spec(3, 2, 96, 32), &served, &metrics)
            .unwrap();
        assert_eq!(third.choice.backend, Backend::Functional);
    }

    #[test]
    fn tight_deadlines_screen_out_slow_backends() {
        // Where 38 jobs land, nothing released, once the CPU engine (the
        // table's last candidate) measured 4e6 cells/s on their shape.
        let spread = |deadline_ms: u64| -> Vec<Backend> {
            let (planner, metrics) = (Planner::new(DeviceProfile::Ddr), MetricsRegistry::new());
            let mut spec = auto_spec(1, 1, 256, 128);
            spec.iters = 8;
            let first = planner.plan(&spec, &Backend::ALL, &metrics).unwrap();
            let index = planner.snapshot()[0].candidates.len() - 1;
            planner.record_throughput(&PlanAssignment { index, ..first }, 4e6, &metrics);
            spec.deadline_ms = deadline_ms;
            (2..40)
                .map(|_| planner.plan(&spec, &Backend::ALL, &metrics).unwrap())
                .map(|asg| asg.choice.backend)
                .collect()
        };
        // The load spill reaches it once 12 jobs divide the 5e7 prior;
        // at 4e6/s the 256*128*8 cells need 66 ms, over the 50 ms half of
        // a 100 ms deadline budgeted for the run.
        assert!(spread(0).contains(&Backend::CpuEngine));
        assert!(
            spread(100).iter().all(|&b| b == Backend::Functional),
            "a 100 ms deadline must exclude the slow measured rate"
        );
    }

    #[test]
    fn unserved_backends_never_chosen() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = vec![Backend::CpuEngine];
        for id in 0..30 {
            let asg = planner
                .plan(&auto_spec(id, 2, 96, 32), &served, &metrics)
                .unwrap();
            assert_eq!(asg.choice.backend, Backend::CpuEngine);
        }
    }

    #[test]
    fn plan_errors_are_exact_variants() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let mut bad = auto_spec(1, 2, 96, 32);
        bad.dim = 5;
        assert_eq!(
            planner.plan(&bad, &served, &metrics).unwrap_err(),
            PlanError::UnsupportedDim { dim: 5 }
        );
        let mut empty = auto_spec(2, 2, 96, 32);
        empty.nx = 0;
        assert_eq!(
            planner.plan(&empty, &served, &metrics).unwrap_err(),
            PlanError::EmptyGrid
        );
        assert_eq!(
            planner
                .plan(&auto_spec(3, 2, 96, 32), &[], &metrics)
                .unwrap_err(),
            PlanError::NoCandidates { dim: 2, rad: 2 }
        );
    }

    #[test]
    fn counters_stay_consistent_when_cached_shape_has_no_eligible_candidate() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        planner
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        planner
            .plan(&auto_spec(2, 2, 96, 32), &served, &metrics)
            .unwrap();
        // The same (now cached) shape planned through a runtime serving no
        // overlapping backend: the request fails, and must count as a miss
        // — not a hit — so the report accounting identities keep holding.
        let err = planner
            .plan(&auto_spec(3, 2, 96, 32), &[], &metrics)
            .unwrap_err();
        assert_eq!(err, PlanError::NoCandidates { dim: 2, rad: 2 });
        let count = |n: &str| metrics.counter(n).get();
        assert_eq!(count("plans_requested"), 3);
        assert_eq!(count("plan_cache_hits"), 1, "only the successful re-plan");
        assert_eq!(count("plan_cache_misses"), 2, "first build + failed plan");
    }

    #[test]
    fn device_profiles_round_trip() {
        for p in DeviceProfile::ALL {
            assert_eq!(DeviceProfile::parse(p.name()), Some(p));
        }
        assert_eq!(DeviceProfile::parse("nope"), None);
        assert_eq!(DeviceProfile::default(), DeviceProfile::Ddr);
        assert_eq!(DeviceProfile::Ddr.mem_channels(), 2);
        assert_eq!(DeviceProfile::Hbm.mem_channels(), 32);
    }

    #[test]
    fn ddr_planner_stays_single_chain() {
        // The default (Arria 10 / DDR) profile must keep the historical
        // candidate tables byte-identical: no replicated entries at all.
        let planner = Planner::new(DeviceProfile::Ddr);
        assert_eq!(planner.device_profile(), DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let asg = planner
            .plan(&auto_spec(1, 1, 512, 256), &served, &metrics)
            .unwrap();
        assert_eq!(asg.choice.replicas, 1);
        for c in &planner.snapshot()[0].candidates {
            assert_eq!(c.replicas, 1, "{:?}", c.backend);
        }
    }

    #[test]
    fn hbm_planner_ranks_replicated_chains_first() {
        // On the 32-channel profile the model's top pick for a wide
        // memory-bound shape is a replicated shallow chain, and the choice
        // carries the replica count into the spec.
        let planner = Planner::new(DeviceProfile::Hbm);
        assert_eq!(planner.device_profile(), DeviceProfile::Hbm);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let mut spec = JobSpec::new_3d(1, 1, 512, 256, 16, 2);
        spec.plan = PlanMode::Auto;
        let asg = planner.plan(&spec, &served, &metrics).unwrap();
        assert!(
            asg.choice.replicas > 1,
            "HBM model pick must be replicated, got {:?}",
            asg.choice
        );
        assert!(asg.choice.replicas <= DeviceProfile::Hbm.mem_channels());
        let mut planned = spec.clone();
        asg.choice.apply_to(&mut planned);
        assert_eq!(planned.replicas.get(), asg.choice.replicas);
        assert_eq!(planned.backend, asg.choice.backend);
        // Non-functional alternates never replicate.
        for c in &planner.snapshot()[0].candidates {
            if c.backend != Backend::Functional {
                assert_eq!(c.replicas, 1, "{:?}", c.backend);
            }
        }
    }

    #[test]
    fn export_warm_start_round_trip_seeds_measured_rates() {
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        // Learn on one planner: plan a shape, feed back a decisive rate
        // for a non-default candidate.
        let teacher = Planner::new(DeviceProfile::Ddr);
        let first = teacher
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        let other = PlanAssignment {
            index: first.index + 1,
            ..first.clone()
        };
        teacher.record_throughput(&other, 1e9, &metrics);
        teacher.record_throughput(&first, 1e3, &metrics);
        let memory = teacher.export_memory();
        assert_eq!(memory.device, "ddr");
        assert_eq!(memory.shapes.len(), 1);

        // A fresh planner warm-started from that memory must exploit the
        // taught winner on its very first request — and the request is a
        // cache *hit* with warm provenance.
        let student = Planner::new(DeviceProfile::Ddr);
        let fresh = MetricsRegistry::new();
        assert_eq!(student.warm_start(&memory, &served).unwrap(), 1);
        let asg = student
            .plan(&auto_spec(99, 2, 96, 32), &served, &fresh)
            .unwrap();
        assert_eq!(asg.index, other.index, "warm rates steer the first plan");
        assert!(asg.choice.cached, "warm-started shape is a hit");
        assert!(asg.choice.warm);
        assert_eq!(asg.choice.provenance(), "warm");
        assert_eq!(fresh.counter("plan_cache_hits").get(), 1);
        assert_eq!(fresh.counter("plan_cache_warm_hits").get(), 1);
        assert_eq!(fresh.counter("plan_cache_misses").get(), 0);
        let history = student.plan_history();
        assert_eq!(history.len(), 1);
        assert!(history[0].hit && history[0].warm);
        // Export from the student reproduces the taught sums (planned
        // resets per run, so compare shapes' stats only).
        let re = student.export_memory();
        assert_eq!(re.shapes[0].stats, memory.shapes[0].stats);
    }

    #[test]
    fn warm_start_rejects_drift_with_exact_variants() {
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        let teacher = Planner::new(DeviceProfile::Ddr);
        teacher
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        let memory = teacher.export_memory();

        // Device mismatch.
        let hbm = Planner::new(DeviceProfile::Hbm);
        assert_eq!(
            hbm.warm_start(&memory, &served).unwrap_err(),
            crate::persist::PersistError::DeviceMismatch {
                expected: "hbm".into(),
                found: "ddr".into(),
            }
        );

        // Shape-key drift: a non-power-of-two extent class.
        let mut bad_key = memory.clone();
        bad_key.shapes[0].nx_class = 100;
        let student = Planner::new(DeviceProfile::Ddr);
        assert_eq!(
            student.warm_start(&bad_key, &served).unwrap_err(),
            crate::persist::PersistError::ShapeKeyDrift {
                label: bad_key.shapes[0].label(),
            }
        );

        // Rate-table drift: fingerprint from a different candidate table.
        let mut bad_table = memory.clone();
        bad_table.shapes[0].fingerprint ^= 1;
        assert_eq!(
            student.warm_start(&bad_table, &served).unwrap_err(),
            crate::persist::PersistError::RateTableDrift {
                label: bad_table.shapes[0].label(),
            }
        );

        // Stat-count drift is rate-table drift too.
        let mut bad_stats = memory.clone();
        bad_stats.shapes[0].stats.pop();
        assert!(matches!(
            student.warm_start(&bad_stats, &served).unwrap_err(),
            crate::persist::PersistError::RateTableDrift { .. }
        ));

        // Rejection is all-or-nothing: the student's cache stayed cold.
        assert!(student.snapshot().is_empty());
        assert_eq!(
            student.export_memory().shapes.len(),
            0,
            "no partial adoption"
        );
    }

    #[test]
    fn kernel_jobs_get_their_own_shape_class() {
        use crate::job::KernelSpec;
        use stencil_core::BoundaryCond;
        let legacy = auto_spec(1, 2, 96, 32);
        let mut kernel = auto_spec(2, 2, 96, 32);
        kernel.kernel = Some(KernelSpec {
            taps: KernelClass::Box,
            boundary: BoundaryCond::Periodic,
        });
        let lk = ShapeKey::of(&legacy);
        let kk = ShapeKey::of(&kernel);
        assert_ne!(lk, kk, "kernel jobs never share legacy candidate tables");
        assert_eq!(lk.label(), "d2r2x128y32z1", "legacy labels unchanged");
        assert_eq!(kk.label(), "d2r2x128y32z1kbox");
        // A desc table holds the CPU engine alone; every desc job lands there.
        let planner = Planner::new(DeviceProfile::Ddr);
        let table = planner.build_candidates(&kk, &Backend::ALL);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].backend, Backend::CpuEngine);
        for _ in 0..3 {
            let asg = planner.plan(&kernel, &Backend::ALL, &MetricsRegistry::new());
            assert_eq!(asg.unwrap().choice.backend, Backend::CpuEngine);
        }
        // Even the star family gets its own class.
        let mut star = auto_spec(3, 2, 96, 32);
        star.kernel = Some(KernelSpec {
            taps: KernelClass::Star,
            boundary: BoundaryCond::Clamp,
        });
        assert_eq!(ShapeKey::of(&star).label(), "d2r2x128y32z1kstar");
    }

    #[test]
    fn stale_warm_rates_decay_and_lose_to_fresh_feedback() {
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        // Teach a decisive winner: candidate `slow.index + 1` at 1e9.
        let teacher = Planner::new(DeviceProfile::Ddr);
        let first = teacher
            .plan(&auto_spec(1, 2, 96, 32), &served, &metrics)
            .unwrap();
        let taught = PlanAssignment {
            index: first.index + 1,
            ..first.clone()
        };
        teacher.record_throughput(&taught, 1e9, &metrics);
        let mut memory = teacher.export_memory();
        assert_eq!(memory.shapes[0].age, 0, "fed-back entries export age 0");

        // Simulate many idle boots: the entry ages without fresh feedback.
        memory.shapes[0].age = 40;

        // A student with a 4-boot half-life sees the stale 1e9 decayed by
        // 2^-10 toward the prior; one fresh sample at 2x the prior on the
        // model-best candidate must now win.
        let student = Planner::new(DeviceProfile::Ddr);
        let fresh = MetricsRegistry::new();
        assert_eq!(student.warm_start(&memory, &served).unwrap(), 1);
        let asg = student
            .plan(&auto_spec(50, 2, 96, 32), &served, &fresh)
            .unwrap();
        student.release(&asg);
        let best = PlanAssignment {
            index: first.index,
            ..first.clone()
        };
        student.record_throughput(&best, 1e8, &fresh);
        let next = student
            .plan(&auto_spec(51, 2, 96, 32), &served, &fresh)
            .unwrap();
        assert_eq!(
            next.index, first.index,
            "fresh 1e8 beats the 40-boot-old 1e9 (decayed to ~the prior)"
        );

        // Control: the same sidecar at age 0 still steers to the taught
        // winner even against the same fresh sample.
        memory.shapes[0].age = 0;
        let control = Planner::new(DeviceProfile::Ddr);
        let cm = MetricsRegistry::new();
        control.warm_start(&memory, &served).unwrap();
        control.record_throughput(&best, 1e8, &cm);
        let kept = control
            .plan(&auto_spec(52, 2, 96, 32), &served, &cm)
            .unwrap();
        assert_eq!(kept.index, taught.index, "age-0 rates do not decay");
    }

    #[test]
    fn plan_history_tracks_every_request() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        for id in 0..4 {
            planner
                .plan(&auto_spec(id, 2, 96, 32), &served, &metrics)
                .unwrap();
        }
        // A failed request (no served backends) is recorded as a miss.
        planner.plan(&auto_spec(9, 2, 96, 32), &[], &metrics).ok();
        let history = planner.plan_history();
        assert_eq!(
            history.len() as u64,
            metrics.counter("plans_requested").get()
        );
        let hits = history.iter().filter(|e| e.hit).count() as u64;
        assert_eq!(hits, metrics.counter("plan_cache_hits").get());
        assert!(!history[0].hit, "first sight misses");
        assert!(!history.last().unwrap().hit, "failed plan is a miss");
    }

    #[test]
    fn snapshot_reflects_cache() {
        let planner = Planner::new(DeviceProfile::Ddr);
        let metrics = MetricsRegistry::new();
        let served = Backend::ALL.to_vec();
        for id in 0..5 {
            planner
                .plan(&auto_spec(id, 2, 96, 32), &served, &metrics)
                .unwrap();
        }
        planner
            .plan(&auto_spec(9, 1, 200, 100), &served, &metrics)
            .unwrap();
        let snap = planner.snapshot();
        assert_eq!(snap.len(), 2);
        let total: u64 = snap.iter().map(|s| s.planned).sum();
        assert_eq!(total, 6);
        for s in &snap {
            assert!(!s.candidates.is_empty());
            assert!(s.best_index < s.candidates.len());
        }
    }
}
