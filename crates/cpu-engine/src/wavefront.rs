//! Temporal blocking on the CPU — the paper's §V.B ablation.
//!
//! YASK supports temporal wave-front tiling, but the paper "could not
//! achieve a meaningful performance improvement over what could already be
//! achieved without temporal blocking, regardless of the hardware". This
//! module implements overlapped temporal blocking for the CPU (the same
//! scheme the FPGA uses: per-block halo of `tsteps · rad`, redundant halo
//! computation, `tsteps` in-cache time steps per sweep) so the claim can be
//! reproduced: the redundant computation and extra cache traffic eat the
//! bandwidth savings on cache-based architectures.
//!
//! Results are bit-exact with the oracle: taps clamp by *global* coordinate
//! exactly like the FPGA PE, so committed cells never see halo garbage.

use stencil_core::{Grid2D, Grid3D, Real, Stencil2D, Stencil3D};

/// Runs `iters` steps with overlapped temporal blocking: x-blocks of
/// `block_x` committed cells, `tsteps` time steps fused per sweep. Each
/// block runs its fused steps in two `(block_x + 2·halo) × ny` buffers —
/// the cache-resident footprint the technique is built around.
///
/// # Panics
/// Panics when `block_x == 0` or `tsteps == 0`.
pub fn wavefront_2d<T: Real>(
    st: &Stencil2D<T>,
    grid: &Grid2D<T>,
    iters: usize,
    block_x: usize,
    tsteps: usize,
) -> Grid2D<T> {
    assert!(block_x > 0, "block_x must be positive");
    assert!(tsteps > 0, "tsteps must be positive");
    let (nx, ny) = (grid.nx(), grid.ny());
    let rad = st.radius();
    // `out` always holds the latest completed sweep; `scratch` is the
    // in-flight destination, exchanged (Vec pointers only) per sweep.
    let mut out = grid.clone();
    let mut scratch = grid.clone();

    let mut left = iters;
    while left > 0 {
        let t = left.min(tsteps);
        let halo = t * rad;
        let mut x0 = 0usize;
        while x0 < nx {
            let x1 = (x0 + block_x).min(nx);
            let r0 = x0 as isize - halo as isize;
            let bw = (x1 - x0) + 2 * halo;

            // Load the block + halo with grid-clamped columns.
            let mut a: Vec<T> = Vec::with_capacity(bw * ny);
            for y in 0..ny {
                for j in 0..bw {
                    a.push(out.get_clamped(r0 + j as isize, y as isize));
                }
            }
            let mut b = a.clone();

            // t fused steps within the scratch buffers.
            for _ in 0..t {
                step_scratch(st, &a, &mut b, r0, bw, nx, ny);
                std::mem::swap(&mut a, &mut b);
            }

            // Commit the compute region.
            for y in 0..ny {
                for gx in x0..x1 {
                    let j = (gx as isize - r0) as usize;
                    scratch.set(gx, y, a[y * bw + j]);
                }
            }
            x0 = x1;
        }
        out.swap(&mut scratch);
        left -= t;
    }
    out
}

/// One time step over a scratch block whose column `j` is global
/// `r0 + j`; taps clamp by global coordinate first (the boundary
/// condition), then into the scratch (halo-garbage containment).
fn step_scratch<T: Real>(
    st: &Stencil2D<T>,
    src: &[T],
    dst: &mut [T],
    r0: isize,
    bw: usize,
    nx: usize,
    ny: usize,
) {
    let tap_x = |gx: isize| -> usize {
        let clamped = gx.clamp(0, nx as isize - 1);
        (clamped - r0).clamp(0, bw as isize - 1) as usize
    };
    for y in 0..ny {
        let row = y * bw;
        for j in 0..bw {
            let gx = r0 + j as isize;
            let mut acc = st.center() * src[row + j];
            for (k, arm) in st.arms().iter().enumerate() {
                let d = (k + 1) as isize;
                let ys = (y as isize - d).clamp(0, ny as isize - 1) as usize;
                let yn = (y as isize + d).clamp(0, ny as isize - 1) as usize;
                acc += arm.west * src[row + tap_x(gx - d)];
                acc += arm.east * src[row + tap_x(gx + d)];
                acc += arm.south * src[ys * bw + j];
                acc += arm.north * src[yn * bw + j];
            }
            dst[row + j] = acc;
        }
    }
}

/// Runs `iters` steps of a 3D stencil with overlapped temporal blocking:
/// x/y-blocks of `block_x × block_y` committed cells, `tsteps` fused time
/// steps per sweep. Bit-exact with the oracle (same global-coordinate tap
/// clamping as the 2D variant and the FPGA PE).
///
/// # Panics
/// Panics when any block extent or `tsteps` is zero.
pub fn wavefront_3d<T: Real>(
    st: &Stencil3D<T>,
    grid: &Grid3D<T>,
    iters: usize,
    block_x: usize,
    block_y: usize,
    tsteps: usize,
) -> Grid3D<T> {
    assert!(block_x > 0 && block_y > 0, "block extents must be positive");
    assert!(tsteps > 0, "tsteps must be positive");
    let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
    let mut out = grid.clone();
    let mut scratch = grid.clone();

    let mut left = iters;
    while left > 0 {
        let t = left.min(tsteps);
        let halo = t * st.radius();
        let mut y0 = 0usize;
        while y0 < ny {
            let y1 = (y0 + block_y).min(ny);
            let mut x0 = 0usize;
            while x0 < nx {
                let x1 = (x0 + block_x).min(nx);
                let rx = x0 as isize - halo as isize;
                let ry = y0 as isize - halo as isize;
                let bw = (x1 - x0) + 2 * halo;
                let bh = (y1 - y0) + 2 * halo;

                // Load block + halo with grid-clamped coordinates.
                let mut a: Vec<T> = Vec::with_capacity(bw * bh * nz);
                for z in 0..nz {
                    for i in 0..bh {
                        for j in 0..bw {
                            a.push(out.get_clamped(rx + j as isize, ry + i as isize, z as isize));
                        }
                    }
                }
                let mut b = a.clone();
                for _ in 0..t {
                    step_scratch_3d(st, &a, &mut b, rx, ry, bw, bh, nx, ny, nz);
                    std::mem::swap(&mut a, &mut b);
                }
                for z in 0..nz {
                    for gy in y0..y1 {
                        let i = (gy as isize - ry) as usize;
                        for gx in x0..x1 {
                            let j = (gx as isize - rx) as usize;
                            scratch.set(gx, gy, z, a[(z * bh + i) * bw + j]);
                        }
                    }
                }
                x0 = x1;
            }
            y0 = y1;
        }
        out.swap(&mut scratch);
        left -= t;
    }
    out
}

/// One fused 3D step over a scratch block; taps clamp by global coordinate
/// first, then into the scratch (halo-garbage containment).
#[allow(clippy::too_many_arguments)]
fn step_scratch_3d<T: Real>(
    st: &Stencil3D<T>,
    src: &[T],
    dst: &mut [T],
    rx: isize,
    ry: isize,
    bw: usize,
    bh: usize,
    nx: usize,
    ny: usize,
    nz: usize,
) {
    let tap_x = |gx: isize| -> usize {
        (gx.clamp(0, nx as isize - 1) - rx).clamp(0, bw as isize - 1) as usize
    };
    let tap_y = |gy: isize| -> usize {
        (gy.clamp(0, ny as isize - 1) - ry).clamp(0, bh as isize - 1) as usize
    };
    for z in 0..nz {
        let zp = z * bh;
        for i in 0..bh {
            let gy = ry + i as isize;
            let row = (zp + i) * bw;
            for j in 0..bw {
                let gx = rx + j as isize;
                let mut acc = st.center() * src[row + j];
                for (k, arm) in st.arms().iter().enumerate() {
                    let d = (k + 1) as isize;
                    let zb = (z as isize - d).clamp(0, nz as isize - 1) as usize;
                    let za = (z as isize + d).clamp(0, nz as isize - 1) as usize;
                    acc += arm.west * src[row + tap_x(gx - d)];
                    acc += arm.east * src[row + tap_x(gx + d)];
                    acc += arm.south * src[(zp + tap_y(gy - d)) * bw + j];
                    acc += arm.north * src[(zp + tap_y(gy + d)) * bw + j];
                    acc += arm.below * src[(zb * bh + i) * bw + j];
                    acc += arm.above * src[(za * bh + i) * bw + j];
                }
                dst[row + j] = acc;
            }
        }
    }
}

/// Counts the cell updates (committed + redundant) a wavefront run performs
/// — the redundancy overhead the paper's §V.B observation stems from.
pub fn wavefront_work_2d(
    nx: usize,
    ny: usize,
    iters: usize,
    block_x: usize,
    tsteps: usize,
    rad: usize,
) -> u64 {
    let mut work = 0u64;
    let mut left = iters;
    while left > 0 {
        let t = left.min(tsteps);
        let halo = t * rad;
        let mut x0 = 0usize;
        while x0 < nx {
            let x1 = (x0 + block_x).min(nx);
            let bw = (x1 - x0) + 2 * halo;
            work += (bw * ny * t) as u64;
            x0 = x1;
        }
        left -= t;
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    fn grid() -> Grid2D<f32> {
        Grid2D::from_fn(50, 21, |x, y| ((x * 13 + y * 3) % 23) as f32).unwrap()
    }

    #[test]
    fn matches_oracle_various_shapes() {
        for rad in 1..=3 {
            let st = Stencil2D::<f32>::random(rad, 40 + rad as u64).unwrap();
            let oracle = exec::run_2d(&st, &grid(), 7);
            for (bx, ts) in [(16, 2), (10, 3), (50, 7), (7, 1)] {
                assert_eq!(
                    wavefront_2d(&st, &grid(), 7, bx, ts),
                    oracle,
                    "rad {rad} block {bx} tsteps {ts}"
                );
            }
        }
    }

    #[test]
    fn partial_final_round() {
        // iters not a multiple of tsteps.
        let st = Stencil2D::<f32>::random(2, 50).unwrap();
        assert_eq!(
            wavefront_2d(&st, &grid(), 5, 20, 3),
            exec::run_2d(&st, &grid(), 5)
        );
    }

    #[test]
    fn tsteps_one_equals_plain_blocked_sweep() {
        let st = Stencil2D::<f32>::random(1, 60).unwrap();
        assert_eq!(
            wavefront_2d(&st, &grid(), 4, 13, 1),
            exec::run_2d(&st, &grid(), 4)
        );
    }

    #[test]
    fn wavefront_3d_matches_oracle() {
        use stencil_core::Grid3D;
        for rad in 1..=2 {
            let st = Stencil3D::<f32>::random(rad, 70 + rad as u64).unwrap();
            let g = Grid3D::from_fn(17, 14, 9, |x, y, z| ((x * 3 + y * 5 + z * 7) % 13) as f32)
                .unwrap();
            let oracle = stencil_core::exec::run_3d(&st, &g, 5);
            for (bx, by, ts) in [(8, 8, 2), (17, 5, 3), (6, 14, 1)] {
                assert_eq!(
                    wavefront_3d(&st, &g, 5, bx, by, ts),
                    oracle,
                    "rad {rad} block {bx}x{by} tsteps {ts}"
                );
            }
        }
    }

    #[test]
    fn work_grows_with_tsteps_at_small_blocks() {
        // The §V.B mechanism: with blocks that fit in cache, deep temporal
        // fusion inflates redundant work substantially.
        let flat = wavefront_work_2d(1000, 1000, 8, 64, 1, 2);
        let deep = wavefront_work_2d(1000, 1000, 8, 64, 8, 2);
        assert!(deep as f64 > 1.3 * flat as f64, "deep {deep} flat {flat}");
    }

    #[test]
    fn work_exact_single_block() {
        // One block covering the grid, tsteps 1: the block plus its
        // radius-wide halo is recomputed every sweep.
        assert_eq!(wavefront_work_2d(100, 40, 5, 100, 1, 3), (100 + 6) * 40 * 5);
    }
}
