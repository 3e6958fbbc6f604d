//! Workload generation and replay.
//!
//! Two sources feed `stencil_serve`: a JSONL file (one [`JobSpec`] object
//! per line — the replay format), or a *synthetic* open-loop arrival
//! process driven by a seeded deterministic RNG, so every load test is
//! reproducible bit-for-bit from `(jobs, seed, quick)`.
//!
//! The synthetic mix is deliberately adversarial for the runtime: every
//! backend round-robin-ish, 2D and 3D geometries, a spread of radii and
//! priorities, ~12% forced shadow verification, a few percent injected
//! transient failures (testing retry), and a small slice of
//! near-impossible deadlines (testing timeout handling).
//!
//! Both sources stream. [`JsonlStream`] yields specs line-buffered from any
//! `BufRead` — the replay path never materializes the whole file — and
//! [`ArrivalGaps`] is the infinite deterministic arrival process the
//! open-loop generator paces submissions with. Multi-tenant workloads
//! assign tenants round-robin by job id (`id % tenants`), deliberately
//! *outside* the RNG draw sequence so a single-tenant and an N-tenant run
//! of the same seed submit byte-identical job geometries.

use crate::job::{Backend, JobSpec, KernelSpec, Priority};
use crate::program::StencilProgram;
use crate::tenant::Tenant;
use std::io::BufRead;
use stencil_core::{BoundaryCond, KernelClass};

/// xorshift64* — a tiny, seedable, deterministic RNG for workload
/// synthesis (quality is irrelevant; determinism is the point).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (a zero seed is remapped to a fixed constant).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `[lo, hi)`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parameters of a synthetic workload.
#[derive(Debug, Clone)]
pub struct SyntheticParams {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// RNG seed; equal seeds generate identical workloads.
    pub seed: u64,
    /// Shrinks grids/iterations to CI smoke scale.
    pub quick: bool,
    /// Mean open-loop inter-arrival gap, in microseconds.
    pub mean_arrival_us: u64,
    /// Number of synthetic tenants; jobs are assigned round-robin by id.
    /// `<= 1` leaves every job on the default tenant.
    pub tenants: usize,
    /// Mixes multi-node stencil *programs* into the stream: jobs whose
    /// `id % 4` is 1 or 2 become programs (alternating a 2-stage
    /// heat→gradient 2D pipeline and a 3-stage seismic 3D pipeline), the
    /// rest stay single-kernel so the planner/pool sections keep their
    /// coverage. The picker deliberately spans both id parities so the
    /// round-robin tenant assignment splits program load evenly across
    /// two tenants. `false` leaves the historical stream untouched, draw
    /// for draw.
    pub programs: bool,
    /// Mixes declarative *kernel-desc* jobs into the stream: jobs whose
    /// `id % 4` is 3 gain a [`KernelSpec`] cycling through the tap
    /// families (star/box/asymmetric) and boundary conditions
    /// (clamp/periodic/reflective). Disjoint from the `programs`
    /// slice, so both mixes can run together. `false` leaves the
    /// historical stream untouched, draw for draw.
    pub kernels: bool,
}

impl SyntheticParams {
    /// Defaults for `jobs` jobs at `seed`: full-scale grids, 500 µs mean
    /// arrival gap.
    pub fn new(jobs: usize, seed: u64, quick: bool) -> SyntheticParams {
        SyntheticParams {
            jobs,
            seed,
            quick,
            mean_arrival_us: if quick { 200 } else { 500 },
            tenants: 1,
            programs: false,
            kernels: false,
        }
    }
}

/// The tenant job `id` belongs to under round-robin assignment across
/// `tenants` lanes: `tenant-<id % tenants>`, or the default tenant when
/// `tenants <= 1`. Pure in `(id, tenants)` — no RNG draws — so enabling
/// multi-tenancy never perturbs the synthesized job stream.
pub fn tenant_for(id: u64, tenants: usize) -> Tenant {
    if tenants <= 1 {
        Tenant::default()
    } else {
        Tenant::new(&format!("tenant-{}", id % tenants as u64))
    }
}

/// Generates the deterministic synthetic workload for `params`.
pub fn synthetic_workload(params: &SyntheticParams) -> Vec<JobSpec> {
    let mut rng = XorShift64::new(params.seed);
    let mut out = Vec::with_capacity(params.jobs);
    for id in 0..params.jobs as u64 {
        let mut spec = if params.programs && matches!(id % 4, 1 | 2) {
            synthesize_program_job(id, &mut rng, params.quick)
        } else if params.kernels && id % 4 == 3 {
            synthesize_kernel_job(id, &mut rng, params.quick)
        } else {
            synthesize_job(id, &mut rng, params.quick)
        };
        spec.tenant = tenant_for(id, params.tenants);
        out.push(spec);
    }
    out
}

/// The infinite open-loop arrival process: exponential inter-arrival gaps
/// (µs) with a configured mean, drawn from a dedicated seed lane so the
/// arrival process replays exactly — same seed, same gap sequence, however
/// many gaps are consumed. Gaps are clamped at 50 ms so a pathological
/// draw cannot stall a load test.
#[derive(Debug, Clone)]
pub struct ArrivalGaps {
    rng: XorShift64,
    mean_us: u64,
}

impl ArrivalGaps {
    /// An arrival stream for `seed` with the given mean gap.
    pub fn new(seed: u64, mean_arrival_us: u64) -> ArrivalGaps {
        ArrivalGaps {
            rng: XorShift64::new(seed ^ 0xa5a5_a5a5_a5a5_a5a5),
            mean_us: mean_arrival_us,
        }
    }
}

impl Iterator for ArrivalGaps {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let u = self.rng.gen_f64().max(1e-12);
        Some((-u.ln() * self.mean_us as f64).min(50_000.0) as u64)
    }
}

/// Open-loop inter-arrival gaps (µs) for the workload: the first
/// `params.jobs` draws of [`ArrivalGaps`].
pub fn arrival_gaps_us(params: &SyntheticParams) -> Vec<u64> {
    ArrivalGaps::new(params.seed, params.mean_arrival_us)
        .take(params.jobs)
        .collect()
}

fn synthesize_job(id: u64, rng: &mut XorShift64, quick: bool) -> JobSpec {
    let backend = Backend::ALL[(rng.next_u64() % Backend::ALL.len() as u64) as usize];
    let dim3 = rng.gen_f64() < 0.3;
    let rad = rng.gen_range(1, 5) as usize;
    let mut spec = if dim3 {
        let (nx, ny, nz) = if quick {
            (
                rng.gen_range(12, 28) as usize,
                rng.gen_range(12, 24) as usize,
                rng.gen_range(4, 9) as usize,
            )
        } else {
            (
                rng.gen_range(20, 40) as usize,
                rng.gen_range(16, 32) as usize,
                rng.gen_range(6, 14) as usize,
            )
        };
        let iters = if quick {
            2
        } else {
            rng.gen_range(2, 5) as usize
        };
        JobSpec::new_3d(id, rad, nx, ny, nz, iters)
    } else {
        let (nx, ny) = if quick {
            (
                rng.gen_range(48, 128) as usize,
                rng.gen_range(16, 48) as usize,
            )
        } else {
            (
                rng.gen_range(96, 320) as usize,
                rng.gen_range(32, 128) as usize,
            )
        };
        let iters = if quick {
            rng.gen_range(1, 4) as usize
        } else {
            rng.gen_range(2, 9) as usize
        };
        JobSpec::new_2d(id, rad, nx, ny, iters)
    };
    spec.backend = backend;
    spec.seed = rng.next_u64() % 10_000;
    spec.priority = match rng.next_u64() % 10 {
        0..=1 => Priority::Low,
        2..=7 => Priority::Normal,
        _ => Priority::High,
    };
    // ~12% forced shadow verification (the runtime's sampler adds more).
    spec.shadow = rng.gen_f64() < 0.12;
    // ~4% of jobs fail transiently once or twice before succeeding.
    if rng.gen_f64() < 0.04 {
        spec.fail_times = rng.gen_range(1, 3) as u32;
    }
    // ~2% carry a deadline they cannot meet (tests the timeout path);
    // the rest get a generous deadline or none at all.
    let d = rng.gen_f64();
    spec.deadline_ms = if d < 0.02 {
        1
    } else if d < 0.5 {
        30_000
    } else {
        0
    };
    debug_assert!(spec.validate().is_ok(), "generator must emit valid specs");
    spec
}

/// Synthesizes one stencil-*program* job: a canned multi-node graph
/// (heat→gradient in 2D, the 3-stage seismic pipeline in 3D) on a
/// moderate grid, always on the Functional shard — program nodes execute
/// through the functional engine regardless, and a stable shard keeps the
/// pool's shape classes warm for the CI hit-rate gate.
fn synthesize_program_job(id: u64, rng: &mut XorShift64, quick: bool) -> JobSpec {
    let heat = rng.gen_f64() < 0.5;
    let mut spec = if heat {
        let (nx, ny) = if quick { (96, 64) } else { (192, 128) };
        let frames = rng.gen_range(2, 5) as usize;
        let mut s = JobSpec::new_2d(id, 1, nx, ny, 1);
        s.program = Some(StencilProgram::heat_gradient_2d(frames));
        s
    } else {
        let n = if quick { 32 } else { 48 };
        let frames = rng.gen_range(2, 4) as usize;
        let mut s = JobSpec::new_3d(id, 2, n, n, n, 1);
        s.program = Some(StencilProgram::seismic_3d(frames));
        s
    };
    spec.backend = Backend::Functional;
    spec.seed = rng.next_u64() % 10_000;
    spec.priority = match rng.next_u64() % 10 {
        0..=1 => Priority::Low,
        2..=7 => Priority::Normal,
        _ => Priority::High,
    };
    debug_assert!(
        spec.validate().is_ok(),
        "generator must emit valid programs"
    );
    spec
}

/// Synthesizes one declarative *kernel-desc* job: the geometry draw of a
/// plain 2D/3D job plus a [`KernelSpec`].
///
/// The desc itself (taps + boundary + radius + coefficient seed) is drawn
/// from a *small fixed table* of recurring kernel types rather than fully
/// at random: a serving fleet runs a handful of kernel shapes over and
/// over, and recurring descs are exactly what the compiled-kernel cache
/// exists for — a fully random coefficient seed would make every desc
/// hash unique and pin the cache hit rate at zero. Radii stay small (1–2)
/// so box neighborhoods stay affordable at serve scale; the bench matrix
/// covers the deep-radius shapes.
fn synthesize_kernel_job(id: u64, rng: &mut XorShift64, quick: bool) -> JobSpec {
    /// The recurring kernel types: (taps, boundary, rad, 3D?). The 2D
    /// slice spans every tap family and boundary condition; the 3D slice
    /// keeps the deep shapes that stress plane-major lowering.
    const TYPES: [(KernelClass, BoundaryCond, usize, bool); 6] = [
        (KernelClass::Star, BoundaryCond::Clamp, 1, false),
        (KernelClass::Box, BoundaryCond::Periodic, 2, false),
        (KernelClass::Asymmetric, BoundaryCond::Reflective, 2, false),
        (KernelClass::Box, BoundaryCond::Reflective, 1, false),
        (KernelClass::Star, BoundaryCond::Periodic, 2, true),
        (KernelClass::Box, BoundaryCond::Clamp, 1, true),
    ];
    let backend = Backend::ALL[(rng.next_u64() % Backend::ALL.len() as u64) as usize];
    let kind = (rng.next_u64() % TYPES.len() as u64) as usize;
    let (taps, boundary, rad, dim3) = TYPES[kind];
    let mut spec = if dim3 {
        let n = if quick {
            rng.gen_range(10, 18) as usize
        } else {
            rng.gen_range(16, 28) as usize
        };
        let iters = if quick {
            2
        } else {
            rng.gen_range(2, 4) as usize
        };
        JobSpec::new_3d(id, rad, n, n, n.div_ceil(2), iters)
    } else {
        let (nx, ny) = if quick {
            (
                rng.gen_range(48, 96) as usize,
                rng.gen_range(16, 40) as usize,
            )
        } else {
            (
                rng.gen_range(96, 256) as usize,
                rng.gen_range(32, 96) as usize,
            )
        };
        let iters = if quick {
            rng.gen_range(1, 3) as usize
        } else {
            rng.gen_range(2, 6) as usize
        };
        JobSpec::new_2d(id, rad, nx, ny, iters)
    };
    spec.backend = backend;
    spec.kernel = Some(KernelSpec { taps, boundary });
    // The coefficient seed is the type index: same type, same desc, same
    // stable hash — the compiled-kernel cache hits on every repeat.
    spec.seed = kind as u64;
    spec.priority = match rng.next_u64() % 10 {
        0..=1 => Priority::Low,
        2..=7 => Priority::Normal,
        _ => Priority::High,
    };
    debug_assert!(
        spec.validate().is_ok(),
        "generator must emit valid kernel jobs"
    );
    spec
}

/// Serializes a workload as JSONL (one spec per line).
pub fn to_jsonl(specs: &[JobSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        out.push_str(&serde_json::to_string(s).expect("spec serializes"));
        out.push('\n');
    }
    out
}

/// Line-buffered streaming JSONL reader: yields one [`JobSpec`] per line
/// as it is read, never materializing the file. Blank lines and `#`
/// comments are skipped. Errors carry `(line_number, message)`.
#[derive(Debug)]
pub struct JsonlStream<R> {
    reader: R,
    lineno: usize,
}

impl<R: BufRead> JsonlStream<R> {
    /// Streams specs out of `reader`.
    pub fn new(reader: R) -> JsonlStream<R> {
        JsonlStream { reader, lineno: 0 }
    }

    /// The 1-based line number of the last item yielded.
    pub fn line(&self) -> usize {
        self.lineno
    }
}

impl<R: BufRead> Iterator for JsonlStream<R> {
    type Item = Result<JobSpec, (usize, String)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut line = String::new();
            self.lineno += 1;
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err((self.lineno, e.to_string()))),
            }
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(match serde_json::from_str::<JobSpec>(line) {
                Ok(spec) => Ok(spec),
                Err(e) => Err((self.lineno, e.to_string())),
            });
        }
    }
}

/// Parses a JSONL workload eagerly (collects [`JsonlStream`]).
///
/// # Errors
/// Returns `(line_number, message)` for the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JobSpec>, (usize, String)> {
    JsonlStream::new(text.as_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let p = SyntheticParams::new(40, 7, true);
        assert_eq!(synthetic_workload(&p), synthetic_workload(&p));
        assert_eq!(arrival_gaps_us(&p), arrival_gaps_us(&p));
        let q = SyntheticParams::new(40, 8, true);
        assert_ne!(synthetic_workload(&p), synthetic_workload(&q));
    }

    #[test]
    fn workload_covers_all_backends_and_dims() {
        let p = SyntheticParams::new(200, 1, true);
        let specs = synthetic_workload(&p);
        for b in Backend::ALL {
            assert!(specs.iter().any(|s| s.backend == b), "missing {b}");
        }
        assert!(specs.iter().any(|s| s.dim == 2));
        assert!(specs.iter().any(|s| s.dim == 3));
        assert!(specs.iter().any(|s| s.shadow));
        assert!(specs.iter().any(|s| s.fail_times > 0));
        assert!(specs.iter().all(|s| s.validate().is_ok()));
    }

    #[test]
    fn jsonl_round_trips_a_workload() {
        let p = SyntheticParams::new(25, 3, true);
        let specs = synthetic_workload(&p);
        let text = to_jsonl(&specs);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, specs);
    }

    #[test]
    fn jsonl_reports_bad_lines() {
        let err = parse_jsonl("# comment\n\n{\"not\": \"a spec\"}\n").unwrap_err();
        assert_eq!(err.0, 3, "line number of the bad line");
    }

    #[test]
    fn tenant_assignment_is_pure_and_spec_preserving() {
        let mut single = SyntheticParams::new(30, 11, true);
        let mut multi = single.clone();
        multi.tenants = 3;
        let a = synthetic_workload(&single);
        let b = synthetic_workload(&multi);
        for (x, y) in a.iter().zip(&b) {
            // Same geometry, backend, seed, deadline — only the tenant
            // label differs.
            let mut y2 = y.clone();
            y2.tenant = x.tenant.clone();
            assert_eq!(x, &y2, "tenancy must not perturb the RNG stream");
        }
        assert_eq!(b[0].tenant.name(), "tenant-0");
        assert_eq!(b[4].tenant.name(), "tenant-1");
        assert!(a.iter().all(|s| s.tenant.name() == "default"));
        single.tenants = 1;
        assert_eq!(synthetic_workload(&single), a);
    }

    #[test]
    fn arrival_gap_stream_is_deterministic_and_infinite() {
        let a: Vec<u64> = ArrivalGaps::new(9, 500).take(1000).collect();
        let b: Vec<u64> = ArrivalGaps::new(9, 500).take(1000).collect();
        assert_eq!(a, b, "same seed, same gap sequence");
        let p = SyntheticParams {
            jobs: 1000,
            seed: 9,
            quick: false,
            mean_arrival_us: 500,
            tenants: 1,
            programs: false,
            kernels: false,
        };
        assert_eq!(arrival_gaps_us(&p), a, "eager form is the same stream");
        assert!(a.iter().all(|&g| g <= 50_000), "gaps are clamped");
        let mean = a.iter().sum::<u64>() as f64 / a.len() as f64;
        assert!((300.0..700.0).contains(&mean), "mean near 500: {mean}");
    }

    #[test]
    fn jsonl_stream_yields_line_by_line() {
        let p = SyntheticParams::new(5, 3, true);
        let specs = synthetic_workload(&p);
        let text = format!("# header\n\n{}", to_jsonl(&specs));
        let mut stream = JsonlStream::new(text.as_bytes());
        for want in &specs {
            assert_eq!(&stream.next().unwrap().unwrap(), want);
        }
        assert!(stream.next().is_none());
        // A malformed line surfaces with its 1-based line number, and the
        // stream keeps going afterwards.
        let text = "# c\n{\"bad\": 1}\n";
        let errs: Vec<_> = JsonlStream::new(text.as_bytes()).collect::<Vec<_>>();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].as_ref().unwrap_err().0, 2);
    }

    #[test]
    fn program_mix_alternates_and_round_trips() {
        let mut p = SyntheticParams::new(40, 13, true);
        p.programs = true;
        let specs = synthetic_workload(&p);
        // Ids with `id % 4` in {1, 2} carry programs (both canned graphs
        // appear) and span both parities, so two round-robin tenants get
        // equal program load; the rest are the usual single-kernel stream.
        assert!(specs
            .iter()
            .all(|s| s.program.is_some() == matches!(s.id % 4, 1 | 2)));
        let (even, odd): (Vec<_>, Vec<_>) = specs
            .iter()
            .filter(|s| s.program.is_some())
            .partition(|s| s.id % 2 == 0);
        assert_eq!(even.len(), odd.len());
        assert!(specs.iter().any(|s| s.program.is_some() && s.dim == 2));
        assert!(specs.iter().any(|s| s.program.is_some() && s.dim == 3));
        assert!(specs
            .iter()
            .filter(|s| s.program.is_some())
            .all(|s| s.backend == Backend::Functional && s.validate().is_ok()));
        // Program jobs survive the JSONL replay format bit-for-bit.
        let back = parse_jsonl(&to_jsonl(&specs)).unwrap();
        assert_eq!(back, specs);
        // The flag off reproduces the historical stream exactly.
        p.programs = false;
        assert_eq!(
            synthetic_workload(&p),
            synthetic_workload(&SyntheticParams::new(40, 13, true))
        );
    }

    #[test]
    fn kernel_mix_spans_the_scenario_space_and_round_trips() {
        let mut p = SyntheticParams::new(120, 17, true);
        p.kernels = true;
        let specs = synthetic_workload(&p);
        // Exactly the `id % 4 == 3` slice carries kernel descs.
        assert!(specs.iter().all(|s| s.kernel.is_some() == (s.id % 4 == 3)));
        let kernel_jobs: Vec<_> = specs.iter().filter(|s| s.kernel.is_some()).collect();
        assert_eq!(kernel_jobs.len(), 30);
        // The mix covers every tap family and boundary condition and both
        // dimensionalities.
        for taps in [KernelClass::Star, KernelClass::Box, KernelClass::Asymmetric] {
            assert!(
                kernel_jobs
                    .iter()
                    .any(|s| s.kernel.as_ref().unwrap().taps == taps),
                "missing tap family {taps:?}"
            );
        }
        for boundary in [
            BoundaryCond::Clamp,
            BoundaryCond::Periodic,
            BoundaryCond::Reflective,
        ] {
            assert!(
                kernel_jobs
                    .iter()
                    .any(|s| s.kernel.as_ref().unwrap().boundary == boundary),
                "missing boundary {boundary:?}"
            );
        }
        assert!(kernel_jobs.iter().any(|s| s.dim == 2));
        assert!(kernel_jobs.iter().any(|s| s.dim == 3));
        assert!(kernel_jobs.iter().all(|s| s.validate().is_ok()));
        // Kernel jobs survive the JSONL replay format bit-for-bit.
        let back = parse_jsonl(&to_jsonl(&specs)).unwrap();
        assert_eq!(back, specs);
        // The flag off reproduces the historical stream exactly.
        p.kernels = false;
        assert_eq!(
            synthetic_workload(&p),
            synthetic_workload(&SyntheticParams::new(120, 17, true))
        );
        // Programs and kernels occupy disjoint id slices, so both mixes
        // compose without colliding.
        let mut both = SyntheticParams::new(40, 17, true);
        both.programs = true;
        both.kernels = true;
        let specs = synthetic_workload(&both);
        assert!(specs
            .iter()
            .all(|s| !(s.program.is_some() && s.kernel.is_some())));
        assert!(specs.iter().any(|s| s.program.is_some()));
        assert!(specs.iter().any(|s| s.kernel.is_some()));
    }

    #[test]
    fn rng_ranges() {
        let mut rng = XorShift64::new(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3, 9);
            assert!((3..9).contains(&v));
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
