//! `solve`: a fixed set of large single problems, no runtime in front.
//!
//! - 2D and 3D star stencils of radius 1–4 at the paper's Table III block
//!   configurations through `fpga_sim::functional`;
//! - the same stars through `cpu_engine::engines::parallel_*`;
//! - box and asymmetric kernel-IR shapes lowered by
//!   `stencil_core::compile_*` and run by `parallel_*_kernel`.
//!
//! The set is cycled for the measured time; one operation is one problem.
//! Every output is checked bit-exact against the frozen oracles
//! (`serial_ref` for stars, `kernel_ir::reference_run_*` for descs), which
//! run once per problem outside the timed region.

use crate::stats::{median, percentile, ratio};
use crate::{Args, Outcome};
use cpu_engine::engines;
use fpga_sim::{functional, serial_ref, SimCounters};
use perf_model::paper;
use std::time::Instant;
use stencil_core::kernel_ir::{reference_run_2d, reference_run_3d};
use stencil_core::{
    compile_2d, compile_3d, BlockConfig, BoundaryCond, CompiledKernel2D, CompiledKernel3D, Dim,
    Grid2D, Grid3D, KernelDesc, Stencil2D, Stencil3D,
};

/// 2D star grids: 4096 × 320 f32 (5 MiB, above a 4 MiB L2).
const NX_2D: usize = 4096;
const NY_2D: usize = 320;
/// 3D star grids: 128 × 128 × 48 f32 (3 MiB).
const N_3D: (usize, usize, usize) = (128, 128, 48);
/// The 3D box kernel's grid: a 125-tap neighborhood needs a smaller one.
const N_3D_BOX: (usize, usize, usize) = (96, 96, 24);
/// Time steps per problem.
const ITERS: usize = 2;
/// Lane width the kernel-IR shapes are lowered at.
const KERNEL_LANES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Functional,
    CpuEngine,
    Specialize,
}

enum Work {
    Star2 {
        st: Stencil2D<f32>,
        cfg: BlockConfig,
        grid: Grid2D<f32>,
    },
    Star3 {
        st: Stencil3D<f32>,
        cfg: BlockConfig,
        grid: Grid3D<f32>,
    },
    Kernel2 {
        desc: KernelDesc,
        kernel: CompiledKernel2D<f32>,
        grid: Grid2D<f32>,
    },
    Kernel3 {
        desc: KernelDesc,
        kernel: CompiledKernel3D<f32>,
        grid: Grid3D<f32>,
    },
}

/// One problem of the set: an input, the layer that solves it, and the
/// hash of the oracle's output once verified.
struct Problem {
    label: String,
    layer: Layer,
    work: std::sync::Arc<Work>,
    cells: u64,
    expected: u64,
}

/// FNV-1a over the f32 bit patterns: equal hashes mean bit-equal grids.
fn fnv(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seeded grid contents: small integers, so every engine's arithmetic is
/// exercised on representative magnitudes.
fn cell(seed: u64, x: usize, y: usize, z: usize) -> f32 {
    let mut h = seed ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ (z as u64).wrapping_mul(0x1656_67b1);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    (h % 103) as f32
}

/// Builds the whole problem set from the seed.
fn build(seed: u64) -> Vec<Problem> {
    let mut out = Vec::new();
    let grid2 = |s: u64| Grid2D::from_fn(NX_2D, NY_2D, |x, y| cell(s, x, y, 0)).expect("grid");
    let grid3 = |s: u64, (nx, ny, nz): (usize, usize, usize)| {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| cell(s, x, y, z)).expect("grid")
    };
    let cells2 = (NX_2D * NY_2D * ITERS) as u64;
    let cells3 = (N_3D.0 * N_3D.1 * N_3D.2 * ITERS) as u64;
    for row in paper::table3() {
        let s = seed.wrapping_mul(0x9e37_79b9) ^ (row.rad as u64) << 8 ^ (row.dim as u64);
        let (work, cells) = match row.dim {
            Dim::D2 => {
                let cfg = BlockConfig::new_2d(row.rad, row.bsize.0, row.parvec, row.partime)
                    .expect("paper configuration is valid");
                let st = Stencil2D::random(row.rad, s).expect("stencil");
                (
                    Work::Star2 {
                        st,
                        cfg,
                        grid: grid2(s),
                    },
                    cells2,
                )
            }
            Dim::D3 => {
                let cfg =
                    BlockConfig::new_3d(row.rad, row.bsize.0, row.bsize.1, row.parvec, row.partime)
                        .expect("paper configuration is valid");
                let st = Stencil3D::random(row.rad, s).expect("stencil");
                (
                    Work::Star3 {
                        st,
                        cfg,
                        grid: grid3(s, N_3D),
                    },
                    cells3,
                )
            }
        };
        let work = std::sync::Arc::new(work);
        let name = format!("{:?} star rad {}", row.dim, row.rad);
        for layer in [Layer::Functional, Layer::CpuEngine] {
            out.push(Problem {
                label: format!("{name} {layer:?}"),
                layer,
                work: std::sync::Arc::clone(&work),
                cells,
                expected: 0,
            });
        }
    }
    let shapes: [(Dim, &str, usize, BoundaryCond); 4] = [
        (Dim::D2, "box", 2, BoundaryCond::Periodic),
        (Dim::D2, "box", 4, BoundaryCond::Clamp),
        (Dim::D2, "asymmetric", 3, BoundaryCond::Reflective),
        (Dim::D3, "box", 2, BoundaryCond::Periodic),
    ];
    for (dim, class, rad, boundary) in shapes {
        let s = seed ^ (rad as u64) << 16 ^ class.len() as u64;
        let (work, cells) = match (dim, class) {
            (Dim::D2, "box") => {
                let desc = KernelDesc::box_2d(rad, s, boundary).expect("desc");
                let kernel = compile_2d(&desc, KERNEL_LANES).expect("compiles");
                (
                    Work::Kernel2 {
                        desc,
                        kernel,
                        grid: grid2(s),
                    },
                    cells2,
                )
            }
            (Dim::D2, _) => {
                let desc = KernelDesc::asymmetric_2d(rad, s, boundary).expect("desc");
                let kernel = compile_2d(&desc, KERNEL_LANES).expect("compiles");
                (
                    Work::Kernel2 {
                        desc,
                        kernel,
                        grid: grid2(s),
                    },
                    cells2,
                )
            }
            _ => {
                let desc = KernelDesc::box_3d(rad, s, boundary).expect("desc");
                let kernel = compile_3d(&desc, KERNEL_LANES).expect("compiles");
                let (nx, ny, nz) = N_3D_BOX;
                let grid = grid3(s, N_3D_BOX);
                (
                    Work::Kernel3 { desc, kernel, grid },
                    (nx * ny * nz * ITERS) as u64,
                )
            }
        };
        out.push(Problem {
            label: format!("{dim:?} {class} {} rad {rad} compiled", boundary.name()),
            layer: Layer::Specialize,
            work: std::sync::Arc::new(work),
            cells,
            expected: 0,
        });
    }
    out
}

/// The oracle's output hash for a problem, and the oracle's wall time.
fn oracle(work: &Work) -> (u64, f64) {
    let t = Instant::now();
    let grid = match work {
        Work::Star2 { st, cfg, grid } => Out::D2(serial_ref::run_2d_serial(st, grid, cfg, ITERS)),
        Work::Star3 { st, cfg, grid } => Out::D3(serial_ref::run_3d_serial(st, grid, cfg, ITERS)),
        Work::Kernel2 { desc, grid, .. } => Out::D2(reference_run_2d(desc, grid, ITERS)),
        Work::Kernel3 { desc, grid, .. } => Out::D3(reference_run_3d(desc, grid, ITERS)),
    };
    let secs = t.elapsed().as_secs_f64();
    (grid.hash(), secs)
}

/// A solved grid.
enum Out {
    D2(Grid2D<f32>),
    D3(Grid3D<f32>),
}

impl Out {
    fn hash(&self) -> u64 {
        match self {
            Out::D2(g) => fnv(g.as_slice()),
            Out::D3(g) => fnv(g.as_slice()),
        }
    }
}

/// One timed solve: the output hash (taken after the clock stops), the
/// solve's wall time, and the simulator counters when traced.
fn solve(layer: Layer, work: &Work, traced: bool) -> (u64, f64, Option<SimCounters>) {
    let t = Instant::now();
    let (grid, counters) = match (layer, work) {
        (Layer::Functional, Work::Star2 { st, cfg, grid }) if traced => {
            let (g, c) = functional::run_2d_instrumented(st, grid, cfg, ITERS);
            (Out::D2(g), Some(c))
        }
        (Layer::Functional, Work::Star3 { st, cfg, grid }) if traced => {
            let (g, c) = functional::run_3d_instrumented(st, grid, cfg, ITERS);
            (Out::D3(g), Some(c))
        }
        (Layer::Functional, Work::Star2 { st, cfg, grid }) => {
            (Out::D2(functional::run_2d(st, grid, cfg, ITERS)), None)
        }
        (Layer::Functional, Work::Star3 { st, cfg, grid }) => {
            (Out::D3(functional::run_3d(st, grid, cfg, ITERS)), None)
        }
        (Layer::CpuEngine, Work::Star2 { st, grid, .. }) => {
            (Out::D2(engines::parallel_2d(st, grid, ITERS)), None)
        }
        (Layer::CpuEngine, Work::Star3 { st, grid, .. }) => {
            (Out::D3(engines::parallel_3d(st, grid, ITERS)), None)
        }
        (_, Work::Kernel2 { kernel, grid, .. }) => (
            Out::D2(engines::parallel_2d_kernel(kernel, grid, ITERS)),
            None,
        ),
        (_, Work::Kernel3 { kernel, grid, .. }) => (
            Out::D3(engines::parallel_3d_kernel(kernel, grid, ITERS)),
            None,
        ),
        _ => unreachable!("star problems run on Functional or CpuEngine only"),
    };
    let secs = t.elapsed().as_secs_f64();
    (grid.hash(), secs, counters)
}

/// Times lowering a problem's desc again (kernel-IR problems only), µs.
fn compile_us(work: &Work) -> Option<f64> {
    let t = Instant::now();
    match work {
        Work::Kernel2 { desc, .. } => {
            std::hint::black_box(compile_2d::<f32>(desc, KERNEL_LANES).expect("compiles"));
        }
        Work::Kernel3 { desc, .. } => {
            std::hint::black_box(compile_3d::<f32>(desc, KERNEL_LANES).expect("compiles"));
        }
        _ => return None,
    }
    Some(t.elapsed().as_secs_f64() * 1e6)
}

/// One timed solve of the measured loop.
struct Sample {
    problem: usize,
    secs: f64,
    counters: Option<SimCounters>,
    compile_us: Option<f64>,
}

/// Cycles through the problem set until `budget_s` has passed, checking
/// every output against its oracle hash; a mismatch counts as a failed
/// operation.
fn measure(problems: &[Problem], budget_s: f64, traced: bool, out: &mut Outcome) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < budget_s || !i.is_multiple_of(problems.len()) {
        let k = i % problems.len();
        let p = &problems[k];
        let compile_us = if traced { compile_us(&p.work) } else { None };
        let (hash, secs, counters) = solve(p.layer, &p.work, traced);
        if hash != p.expected {
            out.failed += 1;
            out.fail(format!("{}: output differs from the oracle", p.label));
        }
        samples.push(Sample {
            problem: k,
            secs,
            counters,
            compile_us,
        });
        i += 1;
    }
    samples
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: grids, stencils, block configurations and compiled kernels,
    // built from scratch several times; the median is reported.
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..3 {
        drop(std::mem::take(&mut problems));
        let t = Instant::now();
        problems = build(args.seed);
        setups.push(t.elapsed().as_secs_f64());
    }

    // Oracles, outside the timed region: one run per distinct input.
    let mut serial_ref = (0u64, 0.0f64);
    let mut reference = (0u64, 0.0f64);
    for k in 0..problems.len() {
        let shared = (0..k).find(|&j| std::sync::Arc::ptr_eq(&problems[j].work, &problems[k].work));
        problems[k].expected = match shared {
            Some(j) => problems[j].expected,
            None => {
                let (hash, secs) = oracle(&problems[k].work);
                let acc = if problems[k].layer == Layer::Specialize {
                    &mut reference
                } else {
                    &mut serial_ref
                };
                acc.0 += problems[k].cells;
                acc.1 += secs;
                hash
            }
        };
    }

    let (untraced, traced) = if args.trace {
        let u = measure(&problems, args.seconds / 2.0, false, &mut out);
        let t = measure(&problems, args.seconds / 2.0, true, &mut out);
        (u, t)
    } else {
        (
            measure(&problems, args.seconds, false, &mut out),
            Vec::new(),
        )
    };
    out.attempted = (untraced.len() + traced.len()) as u64;
    // One pass over the problems (of one layer) at each problem's median
    // solve time: `(cells, seconds)`. Medians keep a burst of host noise
    // from moving the rates.
    let median_pass = |samples: &[Sample], layer: Option<Layer>| -> (f64, f64) {
        problems
            .iter()
            .enumerate()
            .filter(|(_, p)| layer.is_none_or(|l| p.layer == l))
            .fold((0.0, 0.0), |(c, t), (k, p)| {
                let secs: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.problem == k)
                    .map(|s| s.secs)
                    .collect();
                (c + p.cells as f64, t + median(&secs))
            })
    };
    if !args.trace {
        let latency_ms: Vec<f64> = untraced.iter().map(|s| s.secs * 1e3).collect();
        let (cells, secs) = median_pass(&untraced, None);
        out.put("setup_s", median(&setups));
        out.put("cells_per_s", ratio(cells, secs));
        out.put("jobs_per_s", ratio(problems.len() as f64, secs));
        out.put("wall_s", secs);
        out.put("latency_p50_ms", percentile(&latency_ms, 0.5));
        out.put("latency_p99_ms", percentile(&latency_ms, 0.99));
    } else {
        let rate = |layer| {
            let (c, t) = median_pass(&traced, Some(layer));
            ratio(c, t)
        };
        let mut sim = SimCounters::default();
        for c in traced.iter().filter_map(|s| s.counters.as_ref()) {
            sim.merge(c);
        }
        let compile: Vec<f64> = traced.iter().filter_map(|s| s.compile_us).collect();
        let (c_u, t_u) = median_pass(&untraced, None);
        let (c_t, t_t) = median_pass(&traced, None);
        out.put("specialize.compile_us", median(&compile));
        out.put("specialize.cells_per_s", rate(Layer::Specialize));
        out.put("functional.cells_per_s", rate(Layer::Functional));
        out.put(
            "functional.halo_share",
            ratio(
                sim.halo_cells as f64,
                (sim.cells_updated + sim.halo_cells) as f64,
            ),
        );
        out.put(
            "functional.bytes_per_cell",
            ratio(sim.bytes_moved as f64, sim.cells_updated as f64),
        );
        out.put("cpu_engine.cells_per_s", rate(Layer::CpuEngine));
        out.put(
            "serial_ref.cells_per_s",
            ratio(serial_ref.0 as f64, serial_ref.1),
        );
        out.put(
            "kernel_ir.reference_cells_per_s",
            ratio(reference.0 as f64, reference.1),
        );
        // Cost per cell, traced over untraced.
        out.put("trace.overhead_share", ratio(t_t / c_t, t_u / c_u) - 1.0);
    }
    out
}
