//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * memory-controller sequential coalescing on/off (the 3D splitting
//!   mechanism),
//! * `parvec` sweep at a fixed DSP budget,
//! * temporal wave-front depth on the CPU (§V.B),
//! * overlapped-blocking redundancy vs chain depth,
//! * the compiled star row kernel at lane widths 1/2/4/8
//!   (`kernels_specialized`),
//! * kernel-IR 3-way on box stencils: frozen reference interpreter vs the
//!   scalar compiled kernel vs the lane-vectorized specialized kernel
//!   (`kernels_ir`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_sim::{timing, FpgaDevice, GridDims, TimingOptions};
use stencil_core::{
    compile_2d, compile_star_2d, kernel_ir, BlockConfig, BoundaryCond, Grid2D, KernelDesc,
    Stencil2D,
};

fn bench_memctrl_coalescing(c: &mut Criterion) {
    let device = FpgaDevice::arria10_gx1150();
    let cfg = BlockConfig::new_3d(2, 256, 128, 16, 6).unwrap();
    let dims = GridDims::D3 {
        nx: 232,
        ny: 104,
        nz: 256,
    };
    let mut g = c.benchmark_group("ablate_memctrl");
    g.sample_size(10);
    for coalescing in [true, false] {
        g.bench_with_input(
            BenchmarkId::new(
                "timing_sim",
                if coalescing { "coalesced" } else { "naive_lsu" },
            ),
            &coalescing,
            |b, &coalescing| {
                let mut opts = TimingOptions::at_fmax(262.88);
                opts.coalescing = coalescing;
                b.iter(|| std::hint::black_box(timing::simulate(&device, &cfg, dims, 6, &opts)))
            },
        );
    }
    g.finish();
}

fn bench_parvec_sweep(c: &mut Criterion) {
    let device = FpgaDevice::arria10_gx1150();
    let mut g = c.benchmark_group("ablate_parvec");
    g.sample_size(10);
    for parvec in [2usize, 4, 8, 16] {
        let partime = ((216 / parvec) / 4 * 4).max(4);
        if let Ok(cfg) = BlockConfig::new_3d(1, 256, 256, parvec, partime) {
            if !cfg.fits_dsps(1518) {
                continue;
            }
            let dims = GridDims::D3 {
                nx: cfg.csize_x(),
                ny: cfg.csize_y(),
                nz: 192,
            };
            g.bench_with_input(BenchmarkId::new("timing_sim", parvec), &cfg, |b, cfg| {
                b.iter(|| {
                    std::hint::black_box(timing::simulate(
                        &device,
                        cfg,
                        dims,
                        cfg.partime,
                        &TimingOptions::at_fmax(280.0),
                    ))
                })
            });
        }
    }
    g.finish();
}

fn bench_wavefront_depth(c: &mut Criterion) {
    let st = Stencil2D::<f32>::random(2, 3).unwrap();
    let grid = Grid2D::from_fn(256, 256, |x, y| ((x ^ y) % 31) as f32).unwrap();
    let mut g = c.benchmark_group("ablate_wavefront");
    g.sample_size(10);
    for tsteps in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("cpu", tsteps), &tsteps, |b, &tsteps| {
            b.iter(|| std::hint::black_box(cpu_engine::wavefront_2d(&st, &grid, 8, 64, tsteps)))
        });
    }
    g.finish();
}

fn bench_overlap_redundancy(c: &mut Criterion) {
    // Chain depth sweep at fixed everything else: deeper chains buy
    // temporal reuse but pay halo redundancy; the timing sim shows the
    // trade-off directly.
    let device = FpgaDevice::arria10_gx1150();
    let mut g = c.benchmark_group("ablate_overlap");
    g.sample_size(10);
    for partime in [4usize, 12, 28] {
        if let Ok(cfg) = BlockConfig::new_2d(3, 4096, 4, partime) {
            if !cfg.fits_dsps(1518) {
                continue;
            }
            let dims = GridDims::D2 {
                nx: 2 * cfg.csize_x(),
                ny: 1024,
            };
            g.bench_with_input(BenchmarkId::new("timing_sim", partime), &cfg, |b, cfg| {
                b.iter(|| {
                    std::hint::black_box(timing::simulate(
                        &device,
                        cfg,
                        dims,
                        cfg.partime,
                        &TimingOptions::at_fmax(300.0),
                    ))
                })
            });
        }
    }
    g.finish();
}

fn bench_kernels_specialized(c: &mut Criterion) {
    // Interior-row microbenchmark: a star stencil lowered to its clamp desc
    // and compiled at lane widths 1/2/4/8 — the one row kernel every engine
    // runs. All widths compute the identical canonical-order update, so any
    // gap is pure vectorization.
    let nx = 4096usize;
    let mut g = c.benchmark_group("kernels_specialized");
    g.sample_size(10);
    for rad in [1usize, 2, 4] {
        let st = Stencil2D::<f32>::random(rad, rad as u64).unwrap();
        let rows: Vec<Vec<f32>> = (0..2 * rad + 1)
            .map(|r| (0..nx).map(|x| ((x * 7 + r * 13) % 101) as f32).collect())
            .collect();
        let window: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0.0f32; nx];
        for lanes in [1usize, 2, 4, 8] {
            let kernel = compile_star_2d(&st, lanes);
            g.bench_with_input(
                BenchmarkId::new(format!("lanes{lanes}"), rad),
                &rad,
                |b, _| {
                    b.iter(|| {
                        kernel.run_row(&window, &[0], std::hint::black_box(&mut out), rad, nx - rad)
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_kernels_ir(c: &mut Criterion) {
    // Whole-grid kernel-IR comparison on periodic-boundary box stencils. Three data paths per
    // radius — the frozen generic-reference interpreter, the scalar
    // (lane width 1) compiled kernel, and the lane-8 specialized kernel —
    // all bit-exact by the specializer's contract, so any gap is pure
    // specialization.
    let (nx, ny, iters) = (512usize, 128usize, 2usize);
    let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 5 + y * 11) % 97) as f32).unwrap();
    let mut g = c.benchmark_group("kernels_ir");
    g.sample_size(10);
    for rad in [2usize, 4] {
        let desc = KernelDesc::box_2d(rad, rad as u64, BoundaryCond::Periodic).unwrap();
        g.bench_with_input(BenchmarkId::new("reference", rad), &desc, |b, desc| {
            b.iter(|| std::hint::black_box(kernel_ir::reference_run_2d(desc, &grid, iters)))
        });
        let scalar = compile_2d::<f32>(&desc, 1).unwrap();
        g.bench_with_input(BenchmarkId::new("scalar", rad), &scalar, |b, k| {
            b.iter(|| std::hint::black_box(k.run(&grid, iters)))
        });
        let specialized = compile_2d::<f32>(&desc, 8).unwrap();
        g.bench_with_input(
            BenchmarkId::new("specialized", rad),
            &specialized,
            |b, k| b.iter(|| std::hint::black_box(k.run(&grid, iters))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_memctrl_coalescing,
    bench_parvec_sweep,
    bench_wavefront_depth,
    bench_overlap_redundancy,
    bench_kernels_specialized,
    bench_kernels_ir
);
criterion_main!(benches);
