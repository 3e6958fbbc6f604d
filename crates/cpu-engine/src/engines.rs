//! The CPU stencil engines: naive, 3D cache-tiled, and rayon-parallel.
//!
//! Every engine runs the one compiled row kernel
//! ([`stencil_core::specialize`]): a star stencil is lowered to its
//! clamp-boundary desc and compiled at [`CPU_LANES`] once per call, and each
//! output row is one `step_row`. The engines differ only in iteration order
//! and parallelism, neither of which changes any cell's operation order, so
//! all are bit-exact with the oracle. The rayon engine also runs any
//! compiled desc (`parallel_*_kernel*`), optionally cancellable between row
//! bands — the grid-resident executor the serving runtime uses. It reads
//! its input in place: the first sweep reads the caller's grid, the last
//! writes the result, and only the sweeps in between use a scratch grid
//! ([`stencil_core::sweep_buffers`]).

use rayon::prelude::*;
use stencil_core::{
    compile_star_2d, compile_star_3d, sweep_buffers, CompiledKernel2D, CompiledKernel3D, Grid2D,
    Grid3D, Real, Stencil2D, Stencil3D,
};

/// Lane width the CPU engines compile star stencils at: 8 cells per step,
/// the widest row kernel the specializer emits.
pub const CPU_LANES: usize = 8;

/// Output rows per parallel task of the 2D engines: big enough to amortize
/// the fork/join, small enough that a cancellation hook is polled often.
/// 3D tasks are whole z-planes.
pub const ROW_BAND: usize = 32;

/// Spatial tile sizes for the cache-blocked 3D engine. A dimension of 0
/// means "unblocked"; x is never blocked, so rows always stream whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Tile height along y.
    pub ty: usize,
    /// Tile depth along z.
    pub tz: usize,
}

impl Tile {
    /// YASK-flavoured default: block y (and z) to keep the working set in
    /// L2, leave x unblocked for streamy vector access.
    pub fn yask_default() -> Tile {
        Tile { ty: 32, tz: 32 }
    }

    fn eff(v: usize, n: usize) -> usize {
        if v == 0 {
            n
        } else {
            v.min(n)
        }
    }
}

/// Naive engine: plain double-buffered sweeps, one row at a time.
pub fn naive_2d<T: Real>(st: &Stencil2D<T>, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    compile_star_2d(st, CPU_LANES).run(grid, iters)
}

/// Naive 3D engine.
pub fn naive_3d<T: Real>(st: &Stencil3D<T>, grid: &Grid3D<T>, iters: usize) -> Grid3D<T> {
    compile_star_3d(st, CPU_LANES).run(grid, iters)
}

/// Cache-tiled 3D engine: iterates z and y in tiles so the stencil's
/// working set stays cache-resident; within a tile, rows stream along x.
pub fn tiled_3d<T: Real>(
    st: &Stencil3D<T>,
    grid: &Grid3D<T>,
    iters: usize,
    tile: Tile,
) -> Grid3D<T> {
    let kernel = compile_star_3d(st, CPU_LANES);
    let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
    let ty = Tile::eff(tile.ty, ny);
    let tz = Tile::eff(tile.tz, nz);
    let mut cur = grid.clone();
    let mut next = grid.clone();
    for _ in 0..iters {
        let mut z0 = 0;
        while z0 < nz {
            let z1 = (z0 + tz).min(nz);
            let mut y0 = 0;
            while y0 < ny {
                let y1 = (y0 + ty).min(ny);
                for z in z0..z1 {
                    for y in y0..y1 {
                        let dst_row = &mut next.plane_mut(z)[y * nx..(y + 1) * nx];
                        kernel.step_row(&cur, y, z, dst_row);
                    }
                }
                y0 = y1;
            }
            z0 = z1;
        }
        cur.swap(&mut next);
    }
    cur
}

/// Rayon-parallel engine: each time step partitions the output rows across
/// threads. Every cell's update is independent, so parallelism cannot
/// change results. Each worker writes its disjoint destination rows in
/// place — no scratch rows, no allocation inside the sweep.
pub fn parallel_2d<T: Real>(st: &Stencil2D<T>, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    parallel_2d_kernel(&compile_star_2d(st, CPU_LANES), grid, iters)
}

/// Rayon-parallel 3D engine (parallel over z-planes).
pub fn parallel_3d<T: Real>(st: &Stencil3D<T>, grid: &Grid3D<T>, iters: usize) -> Grid3D<T> {
    parallel_3d_kernel(&compile_star_3d(st, CPU_LANES), grid, iters)
}

/// Rayon-parallel execution of a compiled kernel into caller-provided
/// buffers, with a cooperative cancellation hook — the CPU engine's route
/// into the open-ended kernel space (box/asymmetric tap sets,
/// periodic/reflective boundaries). Each pass fans [`ROW_BAND`]-row bands
/// of the scratch grid out across the pool; the kernel's `step_row` does
/// the boundary-resolved vectorized update, so results are bit-exact with
/// the frozen generic-reference interpreter at every thread count.
///
/// `cancel` is polled before each pass and before each band. Returns
/// `false` when it fired — the buffers then hold partial data and must be
/// treated as dirty — and `true` when all `iters` passes ran; `out` then
/// holds the result. The first pass reads `grid` in place and the last
/// writes `out`; `scratch` is written only when `iters ≥ 2`. Both buffers
/// must have `grid`'s shape; their prior contents are irrelevant.
///
/// # Panics
/// Panics when the buffer shapes do not match `grid`.
pub fn parallel_2d_kernel_into<T: Real>(
    kernel: &CompiledKernel2D<T>,
    grid: &Grid2D<T>,
    iters: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid2D<T>,
    scratch: &mut Grid2D<T>,
) -> bool {
    assert_eq!(
        (scratch.nx(), scratch.ny()),
        (grid.nx(), grid.ny()),
        "scratch buffer shape mismatch"
    );
    sweeps_2d(kernel, grid, iters, cancel, out, Some(scratch))
}

/// The 2D sweep loop behind [`parallel_2d_kernel_into`] and
/// [`parallel_2d_kernel`]. With `scratch` `None`, a scratch grid is
/// allocated here when the run has a second sweep.
fn sweeps_2d<T: Real>(
    kernel: &CompiledKernel2D<T>,
    grid: &Grid2D<T>,
    iters: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid2D<T>,
    scratch: Option<&mut Grid2D<T>>,
) -> bool {
    let (nx, ny) = (grid.nx(), grid.ny());
    assert_eq!((out.nx(), out.ny()), (nx, ny), "out buffer shape mismatch");
    if iters == 0 {
        out.copy_from(grid);
    }
    let mut owned = None;
    let mut scratch = match scratch {
        None if iters > 1 => Some(owned.insert(Grid2D::zeros(nx, ny).expect("grid shape"))),
        s => s,
    };
    for i in 0..iters {
        if cancel() {
            return false;
        }
        let (src, dst) = sweep_buffers(i, iters, grid, &mut *out, scratch.as_deref_mut());
        dst.as_mut_slice()
            .par_chunks_mut(nx * ROW_BAND)
            .enumerate()
            .for_each(|(band, rows)| {
                if cancel() {
                    return;
                }
                for (i, dst_row) in rows.chunks_mut(nx).enumerate() {
                    kernel.step_row(src, band * ROW_BAND + i, dst_row);
                }
            });
        if cancel() {
            return false;
        }
    }
    true
}

/// Allocating wrapper over [`parallel_2d_kernel_into`]: allocates the
/// result, plus a scratch grid only when `iters ≥ 2`.
pub fn parallel_2d_kernel<T: Real>(
    kernel: &CompiledKernel2D<T>,
    grid: &Grid2D<T>,
    iters: usize,
) -> Grid2D<T> {
    let mut out = Grid2D::zeros(grid.nx(), grid.ny()).expect("same shape as the input");
    sweeps_2d(kernel, grid, iters, &|| false, &mut out, None);
    out
}

/// 3D variant of [`parallel_2d_kernel_into`]: parallel over z-planes,
/// `cancel` polled before each pass and each plane.
///
/// # Panics
/// Panics when the buffer shapes do not match `grid`.
pub fn parallel_3d_kernel_into<T: Real>(
    kernel: &CompiledKernel3D<T>,
    grid: &Grid3D<T>,
    iters: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid3D<T>,
    scratch: &mut Grid3D<T>,
) -> bool {
    assert_eq!(
        (scratch.nx(), scratch.ny(), scratch.nz()),
        (grid.nx(), grid.ny(), grid.nz()),
        "scratch buffer shape mismatch"
    );
    sweeps_3d(kernel, grid, iters, cancel, out, Some(scratch))
}

/// The 3D sweep loop (see [`sweeps_2d`]).
fn sweeps_3d<T: Real>(
    kernel: &CompiledKernel3D<T>,
    grid: &Grid3D<T>,
    iters: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid3D<T>,
    scratch: Option<&mut Grid3D<T>>,
) -> bool {
    let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
    assert_eq!(
        (out.nx(), out.ny(), out.nz()),
        (nx, ny, nz),
        "out buffer shape mismatch"
    );
    if iters == 0 {
        out.copy_from(grid);
    }
    let mut owned = None;
    let mut scratch = match scratch {
        None if iters > 1 => Some(owned.insert(Grid3D::zeros(nx, ny, nz).expect("grid shape"))),
        s => s,
    };
    for i in 0..iters {
        if cancel() {
            return false;
        }
        let (src, dst) = sweep_buffers(i, iters, grid, &mut *out, scratch.as_deref_mut());
        dst.as_mut_slice()
            .par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(z, dst_plane)| {
                if cancel() {
                    return;
                }
                for (y, dst_row) in dst_plane.chunks_mut(nx).enumerate() {
                    kernel.step_row(src, y, z, dst_row);
                }
            });
        if cancel() {
            return false;
        }
    }
    true
}

/// Allocating wrapper over [`parallel_3d_kernel_into`]: allocates the
/// result, plus a scratch grid only when `iters ≥ 2`.
pub fn parallel_3d_kernel<T: Real>(
    kernel: &CompiledKernel3D<T>,
    grid: &Grid3D<T>,
    iters: usize,
) -> Grid3D<T> {
    let mut out = Grid3D::zeros(grid.nx(), grid.ny(), grid.nz()).expect("same shape as the input");
    sweeps_3d(kernel, grid, iters, &|| false, &mut out, None);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    fn grid2() -> Grid2D<f32> {
        Grid2D::from_fn(41, 23, |x, y| ((x * 7 + y * 11) % 19) as f32).unwrap()
    }

    fn grid3() -> Grid3D<f32> {
        Grid3D::from_fn(17, 13, 11, |x, y, z| ((x + 2 * y + 3 * z) % 7) as f32).unwrap()
    }

    #[test]
    fn naive_matches_oracle() {
        for rad in 1..=4 {
            let st = Stencil2D::<f32>::random(rad, rad as u64).unwrap();
            assert_eq!(
                naive_2d(&st, &grid2(), 3),
                exec::run_2d(&st, &grid2(), 3),
                "rad {rad}"
            );
        }
        let st = Stencil3D::<f32>::random(2, 5).unwrap();
        assert_eq!(naive_3d(&st, &grid3(), 2), exec::run_3d(&st, &grid3(), 2));
    }

    #[test]
    fn tiled_matches_oracle_various_tiles() {
        let st3 = Stencil3D::<f32>::random(3, 4).unwrap();
        let oracle3 = exec::run_3d(&st3, &grid3(), 2);
        for (ty, tz) in [(4, 4), (13, 3), (1, 1)] {
            let tile = Tile { ty, tz };
            assert_eq!(tiled_3d(&st3, &grid3(), 2, tile), oracle3, "tile {ty}x{tz}");
        }
    }

    #[test]
    fn parallel_matches_oracle_bit_exactly() {
        let st = Stencil2D::<f32>::random(3, 21).unwrap();
        assert_eq!(
            parallel_2d(&st, &grid2(), 5),
            exec::run_2d(&st, &grid2(), 5)
        );
        let st3 = Stencil3D::<f32>::random(1, 22).unwrap();
        assert_eq!(
            parallel_3d(&st3, &grid3(), 4),
            exec::run_3d(&st3, &grid3(), 4)
        );
    }

    fn bits(cells: &[f32]) -> Vec<u32> {
        cells.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn into_variants_overwrite_nan_buffers_for_every_sweep_count() {
        // 0–3 sweeps: every case of which buffer the first sweep reads and
        // which the last one writes. Both buffers arrive full of NaN.
        use stencil_core::kernel_ir::{
            reference_run_2d, reference_run_3d, BoundaryCond, KernelDesc,
        };
        let st = Stencil2D::<f32>::random(3, 21).unwrap();
        let star = compile_star_2d(&st, CPU_LANES);
        let st3 = Stencil3D::<f32>::random(1, 22).unwrap();
        let star3 = compile_star_3d(&st3, CPU_LANES);
        let desc = KernelDesc::box_2d(1, 3, BoundaryCond::Periodic).unwrap();
        let k = stencil_core::compile_2d::<f32>(&desc, 8).unwrap();
        let desc3 = KernelDesc::asymmetric_3d(2, 14, BoundaryCond::Reflective).unwrap();
        let k3 = stencil_core::compile_3d::<f32>(&desc3, 4).unwrap();
        let nan_2d = || Grid2D::filled(41, 23, f32::NAN).unwrap();
        let nan_3d = || Grid3D::filled(17, 13, 11, f32::NAN).unwrap();
        for iters in 0..=3 {
            let expect_2d = [
                (&star, exec::run_2d(&st, &grid2(), iters)),
                (&k, reference_run_2d::<f32>(&desc, &grid2(), iters)),
            ];
            for (kernel, expect) in expect_2d {
                let (mut out, mut scratch) = (nan_2d(), nan_2d());
                assert!(parallel_2d_kernel_into(
                    kernel,
                    &grid2(),
                    iters,
                    &|| false,
                    &mut out,
                    &mut scratch
                ));
                assert_eq!(
                    bits(out.as_slice()),
                    bits(expect.as_slice()),
                    "2d iters {iters}"
                );
            }
            let expect_3d = [
                (&star3, exec::run_3d(&st3, &grid3(), iters)),
                (&k3, reference_run_3d::<f32>(&desc3, &grid3(), iters)),
            ];
            for (kernel, expect) in expect_3d {
                let (mut out, mut scratch) = (nan_3d(), nan_3d());
                assert!(parallel_3d_kernel_into(
                    kernel,
                    &grid3(),
                    iters,
                    &|| false,
                    &mut out,
                    &mut scratch
                ));
                assert_eq!(
                    bits(out.as_slice()),
                    bits(expect.as_slice()),
                    "3d iters {iters}"
                );
            }
        }
    }

    #[test]
    fn parallel_kernel_matches_interpreter() {
        use stencil_core::kernel_ir::{
            reference_run_2d, reference_run_3d, BoundaryCond, KernelDesc,
        };
        for bc in BoundaryCond::ALL {
            let desc = KernelDesc::box_2d(2, 13, bc).unwrap();
            let k = stencil_core::compile_2d::<f32>(&desc, 8).unwrap();
            assert_eq!(
                parallel_2d_kernel(&k, &grid2(), 3),
                reference_run_2d::<f32>(&desc, &grid2(), 3),
                "{bc}"
            );
            let desc3 = KernelDesc::asymmetric_3d(2, 14, bc).unwrap();
            let k3 = stencil_core::compile_3d::<f32>(&desc3, 4).unwrap();
            assert_eq!(
                parallel_3d_kernel(&k3, &grid3(), 2),
                reference_run_3d::<f32>(&desc3, &grid3(), 2),
                "{bc}"
            );
        }
    }

    #[test]
    fn parallel_kernel_bands_match_interpreter() {
        use stencil_core::kernel_ir::{reference_run_2d, BoundaryCond, KernelDesc};
        for bc in BoundaryCond::ALL {
            let desc = KernelDesc::box_2d(2, 77, bc).unwrap();
            let k = stencil_core::compile_2d::<f32>(&desc, 8).unwrap();
            // Multiple row bands (ny > ROW_BAND) and a ragged final band.
            let grid = Grid2D::from_fn(61, 2 * ROW_BAND + 7, |x, y| {
                ((x * 31 + y * 17) % 103) as f32
            })
            .unwrap();
            assert_eq!(
                parallel_2d_kernel(&k, &grid, 3),
                reference_run_2d::<f32>(&desc, &grid, 3),
                "{bc}"
            );
        }
    }

    #[test]
    fn cancelled_kernel_run_returns_false() {
        use stencil_core::kernel_ir::{BoundaryCond, KernelDesc};
        let desc = KernelDesc::box_2d(1, 1, BoundaryCond::Periodic).unwrap();
        let k = stencil_core::compile_2d::<f32>(&desc, 8).unwrap();
        let (mut out, mut scratch) = (grid2(), grid2());
        assert!(!parallel_2d_kernel_into(
            &k,
            &grid2(),
            5,
            &|| true,
            &mut out,
            &mut scratch
        ));
        assert!(parallel_2d_kernel_into(
            &k,
            &grid2(),
            0,
            &|| true,
            &mut out,
            &mut scratch
        ));
        assert_eq!(out, grid2(), "zero passes copy the input");
        let desc3 = KernelDesc::box_3d(1, 1, BoundaryCond::Clamp).unwrap();
        let k3 = stencil_core::compile_3d::<f32>(&desc3, 4).unwrap();
        let (mut out3, mut scratch3) = (grid3(), grid3());
        assert!(!parallel_3d_kernel_into(
            &k3,
            &grid3(),
            2,
            &|| true,
            &mut out3,
            &mut scratch3
        ));
    }

    #[test]
    fn zero_iters_identity() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        assert_eq!(naive_2d(&st, &grid2(), 0), grid2());
        assert_eq!(parallel_2d(&st, &grid2(), 0), grid2());
    }
}
