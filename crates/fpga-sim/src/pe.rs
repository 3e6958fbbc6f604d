//! Processing elements — one per parallel time step.
//!
//! Each PE consumes the stream of rows (2D) or planes (3D) of time step
//! `t − 1` for one spatial block, holds the last `2·rad + 1` of them in its
//! shift register, and produces the stream of time step `t` by running the
//! compiled kernel ([`stencil_core::specialize`]) over that window — one
//! kernel, compiled once per run and shared by every PE through an `Arc`.
//!
//! Taps clamp to the grid border per the paper's boundary condition; taps
//! that fall outside the block's *read region* (possible only for halo cells
//! whose results are discarded by overlapped blocking) clamp to the region
//! edge, which is deterministic and never reaches a committed cell. Both
//! clamps are resolved once per PE into one index table per axis.
//!
//! A PE evaluates only the in-grid cells of its region. Because taps clamp
//! to the grid before they clamp to the region, no in-grid cell ever reads
//! a cell where the region overhangs the grid, and no such cell is
//! committed; the PE writes zero there.
//!
//! Rows move through a PE by ownership: [`Pe2D::feed_into`] keeps the input
//! row in the shift register and hands the evicted row back to the caller's
//! [`RowPool`], and output rows are pool buffers whose every cell the PE
//! overwrites — so a recycled buffer's stale contents never show.

use crate::shift_register::{RowPool, ShiftRegister};
use std::sync::Arc;
use stencil_core::specialize::MAX_WINDOW;
use stencil_core::{BoundaryCond, CompiledKernel, CompiledKernel2D, CompiledKernel3D, Real};

/// Maximum supported stencil radius (generously above the paper's 4; §VI.A
/// discusses feasibility up to 6).
pub const MAX_RADIUS: usize = 16;

/// Output rows/planes produced by a feed, tagged with their stream index.
pub type Produced<T> = Vec<(i64, Vec<T>)>;

/// One axis of a block's read region `[o, o + len)` on a grid axis
/// `[0, n)`, resolved once per PE.
#[derive(Debug, Clone)]
struct Axis {
    /// `taps[i + rad + d]` is the local index (times the axis stride) a tap
    /// at offset `d` of local cell `i` reads: clamped to the grid, then to
    /// the region.
    taps: Vec<usize>,
    /// The in-grid cells `[grid.0, grid.1)`, the only ones evaluated.
    grid: (usize, usize),
    /// The cells inside `grid` whose every tap is the identity.
    inner: (usize, usize),
}

impl Axis {
    fn new(o: i64, len: usize, n: usize, rad: usize, stride: usize) -> Axis {
        let (w, n, r) = (len as i64, n as i64, rad as i64);
        let taps = (0..w + 2 * r)
            .map(|k| ((o + k - r).clamp(0, n - 1) - o).clamp(0, w - 1) as usize * stride)
            .collect();
        let g0 = (-o).clamp(0, w);
        let g1 = (n - o).clamp(g0, w);
        let lo = r.max(r - o).clamp(g0, g1);
        let hi = (w - r).min(n - r - o).clamp(lo, g1);
        Axis {
            taps,
            grid: (g0 as usize, g1 as usize),
            inner: (lo as usize, hi as usize),
        }
    }

    /// Writes one output row (this axis is x): the vectorized kernel over
    /// the inner cells, the border cells through the tap table, and zero
    /// where the region overhangs the grid.
    fn eval_row<T: Real, const D: usize>(
        &self,
        kernel: &CompiledKernel<T, D>,
        src: &[&[T]],
        yoff: &[usize],
        out: &mut [T],
    ) {
        let w = 2 * kernel.radius() + 1;
        let (lo, hi) = self.inner;
        kernel.run_row(src, yoff, out, lo, hi);
        for j in (self.grid.0..lo).chain(hi..self.grid.1) {
            out[j] = kernel.eval_cell(src, yoff, &self.taps[j..j + w]);
        }
        out[..self.grid.0].fill(T::ZERO);
        out[self.grid.1..].fill(T::ZERO);
    }
}

fn check_kernel<T: Real, const D: usize>(kernel: &CompiledKernel<T, D>) {
    assert_eq!(
        kernel.desc().boundary,
        BoundaryCond::Clamp,
        "streaming PEs support clamp only"
    );
}

/// The shift-register window around stream index `i`: `2·rad + 1` rows or
/// planes, clamped to the stream `[0, hi]`.
fn window<T: Real>(sr: &ShiftRegister<T>, i: i64, rad: usize, hi: i64) -> [&[T]; MAX_WINDOW] {
    let mut win = [sr.get_clamped(i, 0, hi); MAX_WINDOW];
    for (k, slot) in win[..2 * rad + 1].iter_mut().enumerate() {
        *slot = sr.get_clamped(i + k as i64 - rad as i64, 0, hi);
    }
    win
}

/// A 2D processing element operating on one spatial block.
///
/// The block's read region starts at global column `x0` (may be negative for
/// the left halo of the first block) and is `width` columns wide; the grid is
/// `nx × ny`. Rows must be fed in order `0, 1, …, ny − 1`; output rows are
/// emitted as soon as their northern taps are resident.
#[derive(Debug, Clone)]
pub struct Pe2D<T> {
    kernel: Arc<CompiledKernel2D<T>>,
    ny: i64,
    width: usize,
    cols: Axis,
    sr: ShiftRegister<T>,
    next_out: i64,
    /// Pool backing the [`Self::feed`] wrapper: evicted rows come back
    /// here and leave again as output rows.
    pool: RowPool<T>,
}

impl<T: Real> Pe2D<T> {
    /// Creates a PE running `kernel` for a block whose read region is
    /// `[x0, x0 + width)` on a `nx × ny` grid.
    ///
    /// # Panics
    /// Panics when the kernel's boundary is not [`BoundaryCond::Clamp`] — a
    /// streaming PE holds only the last `2·rad + 1` rows, so periodic or
    /// reflective taps in the streamed dimension would need rows that have
    /// not arrived yet (those descs run grid-resident instead) — or when
    /// `width == 0`.
    pub fn new(
        kernel: Arc<CompiledKernel2D<T>>,
        x0: i64,
        width: usize,
        nx: usize,
        ny: usize,
    ) -> Self {
        check_kernel(&kernel);
        assert!(width > 0, "empty read region");
        let rad = kernel.radius();
        Self {
            ny: ny as i64,
            width,
            cols: Axis::new(x0, width, nx, rad, 1),
            sr: ShiftRegister::new(2 * rad + 1),
            next_out: 0,
            pool: RowPool::new(width),
            kernel,
        }
    }

    /// Feeds input row `y` (global index, `0..ny`) and returns every output
    /// row that became computable.
    ///
    /// Convenience wrapper over [`Self::feed_into`] with a per-PE pool: the
    /// rows the shift register evicts become the next output rows.
    /// Streaming callers should use `feed_into` with a shared [`RowPool`].
    ///
    /// # Panics
    /// Panics when `row` has the wrong width or rows arrive out of order.
    #[inline]
    pub fn feed(&mut self, y: i64, row: Vec<T>) -> Produced<T> {
        let mut out = Produced::new();
        let mut pool = std::mem::replace(&mut self.pool, RowPool::new(self.width));
        self.feed_into(y, row, &mut out, &mut pool);
        self.pool = pool;
        out
    }

    /// Feeds input row `y`, keeping its buffer in the shift register, and
    /// appends every output row that became computable to `out`.
    ///
    /// This is the allocation-free feed path: the row the shift register
    /// evicts goes back to `pool`, and output rows are `pool` buffers that
    /// the caller feeds on to the next PE or [`RowPool::put`]s back once
    /// consumed. With a warm pool, a steady-state call performs no heap
    /// allocation.
    ///
    /// # Panics
    /// Panics when `row` has the wrong width or rows arrive out of order.
    pub fn feed_into(&mut self, y: i64, row: Vec<T>, out: &mut Produced<T>, pool: &mut RowPool<T>) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if let Some(evicted) = self.sr.push(y, row) {
            pool.put(evicted);
        }
        let rad = self.kernel.radius() as i64;
        // Output row `o` needs input rows up to min(o + rad, ny - 1).
        while self.next_out < self.ny && (y - self.next_out >= rad || y == self.ny - 1) {
            let mut buf = pool.take();
            self.compute_row_into(self.next_out, &mut buf);
            out.push((self.next_out, buf));
            self.next_out += 1;
        }
    }

    fn compute_row_into(&self, y: i64, out: &mut [T]) {
        let rad = self.kernel.radius();
        let win = window(&self.sr, y, rad, self.ny - 1);
        self.cols
            .eval_row(&self.kernel, &win[..2 * rad + 1], &[0], out);
    }
}

/// A 3D processing element operating on one spatial block (read region
/// `[x0, x0+width) × [y0, y0+height)`), streaming z-planes.
#[derive(Debug, Clone)]
pub struct Pe3D<T> {
    kernel: Arc<CompiledKernel3D<T>>,
    nz: i64,
    width: usize,
    height: usize,
    cols: Axis,
    /// The y axis, its tap table scaled to row offsets (`× width`).
    rows: Axis,
    sr: ShiftRegister<T>,
    next_out: i64,
    pool: RowPool<T>,
}

impl<T: Real> Pe3D<T> {
    /// Creates a PE running `kernel` for a 3D block on an `nx × ny × nz`
    /// grid.
    ///
    /// # Panics
    /// Panics when the kernel's boundary is not [`BoundaryCond::Clamp`] (see
    /// [`Pe2D::new`]) or the read region is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: Arc<CompiledKernel3D<T>>,
        x0: i64,
        y0: i64,
        width: usize,
        height: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Self {
        check_kernel(&kernel);
        assert!(width > 0 && height > 0, "empty read region");
        let rad = kernel.radius();
        Self {
            nz: nz as i64,
            width,
            height,
            cols: Axis::new(x0, width, nx, rad, 1),
            rows: Axis::new(y0, height, ny, rad, width),
            sr: ShiftRegister::new(2 * rad + 1),
            next_out: 0,
            pool: RowPool::new(width * height),
            kernel,
        }
    }

    /// Feeds input plane `z` (row-major `width × height`) and returns every
    /// output plane that became computable — the per-PE-pool convenience
    /// wrapper over [`Self::feed_into`] (see [`Pe2D::feed`]).
    ///
    /// # Panics
    /// Panics when `plane` has the wrong size or planes arrive out of order.
    #[inline]
    pub fn feed(&mut self, z: i64, plane: Vec<T>) -> Produced<T> {
        let mut out = Produced::new();
        let mut pool = std::mem::replace(&mut self.pool, RowPool::new(self.width * self.height));
        self.feed_into(z, plane, &mut out, &mut pool);
        self.pool = pool;
        out
    }

    /// Feeds input plane `z`, keeping its buffer in the shift register, and
    /// appends every output plane that became computable to `out` — the
    /// allocation-free feed path (see [`Pe2D::feed_into`]).
    ///
    /// # Panics
    /// Panics when `plane` has the wrong size or planes arrive out of order.
    pub fn feed_into(
        &mut self,
        z: i64,
        plane: Vec<T>,
        out: &mut Produced<T>,
        pool: &mut RowPool<T>,
    ) {
        assert_eq!(plane.len(), self.width * self.height, "plane size mismatch");
        if let Some(evicted) = self.sr.push(z, plane) {
            pool.put(evicted);
        }
        let rad = self.kernel.radius() as i64;
        while self.next_out < self.nz && (z - self.next_out >= rad || z == self.nz - 1) {
            let mut buf = pool.take();
            self.compute_plane_into(self.next_out, &mut buf);
            out.push((self.next_out, buf));
            self.next_out += 1;
        }
    }

    /// Every in-grid row of the plane runs the vectorized kernel over its
    /// x-interior — rows near the y border included, their row offsets
    /// taken from the y tap table — and the x-border cells through the x
    /// tap table. Rows where the region overhangs the grid are zeroed.
    fn compute_plane_into(&self, z: i64, out: &mut [T]) {
        let rad = self.kernel.radius();
        let win = window(&self.sr, z, rad, self.nz - 1);
        let win = &win[..2 * rad + 1];
        let (g0, g1) = self.rows.grid;
        out[..g0 * self.width].fill(T::ZERO);
        out[g1 * self.width..].fill(T::ZERO);
        for i in g0..g1 {
            let yoff = &self.rows.taps[i..i + 2 * rad + 1];
            let row = &mut out[i * self.width..(i + 1) * self.width];
            self.cols.eval_row(&self.kernel, win, yoff, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernel_ir::{reference_run_2d, reference_run_3d, KernelDesc};
    use stencil_core::{
        compile_2d, compile_3d, compile_star_2d, compile_star_3d, exec, Grid2D, Grid3D, Stencil2D,
        Stencil3D,
    };

    fn star_2d(st: &Stencil2D<f32>, lanes: usize) -> Arc<CompiledKernel2D<f32>> {
        Arc::new(compile_star_2d(st, lanes))
    }

    /// Streams a whole grid through one PE whose read region is the grid.
    fn whole_grid_2d(k: Arc<CompiledKernel2D<f32>>, grid: &Grid2D<f32>) -> Grid2D<f32> {
        let (nx, ny) = (grid.nx(), grid.ny());
        let mut pe = Pe2D::new(k, 0, nx, nx, ny);
        let mut got = Grid2D::<f32>::zeros(nx, ny).unwrap();
        for y in 0..ny {
            for (oy, orow) in pe.feed(y as i64, grid.row(y).to_vec()) {
                got.row_mut(oy as usize).copy_from_slice(&orow);
            }
        }
        got
    }

    fn whole_grid_3d(k: Arc<CompiledKernel3D<f32>>, grid: &Grid3D<f32>) -> Grid3D<f32> {
        let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
        let mut pe = Pe3D::new(k, 0, 0, nx, ny, nx, ny, nz);
        let mut got = Grid3D::<f32>::zeros(nx, ny, nz).unwrap();
        for z in 0..nz {
            for (oz, oplane) in pe.feed(z as i64, grid.plane(z).to_vec()) {
                got.plane_mut(oz as usize).copy_from_slice(&oplane);
            }
        }
        got
    }

    /// Runs one PE over a whole grid as a single block (no halo needed) and
    /// compares with the oracle's single step.
    #[test]
    fn single_pe_whole_grid_matches_oracle_2d() {
        for rad in 1..=4 {
            let st = Stencil2D::<f32>::random(rad, 21).unwrap();
            let grid = Grid2D::from_fn(13, 11, |x, y| ((x * 7 + y * 3) % 17) as f32).unwrap();
            for lanes in [1, 8] {
                let got = whole_grid_2d(star_2d(&st, lanes), &grid);
                assert_eq!(got, exec::run_2d(&st, &grid, 1), "rad {rad} lanes {lanes}");
            }
        }
    }

    #[test]
    fn single_pe_whole_grid_matches_oracle_3d() {
        for rad in 1..=3 {
            let st = Stencil3D::<f32>::random(rad, 33).unwrap();
            let grid =
                Grid3D::from_fn(9, 8, 10, |x, y, z| ((x + 2 * y + 5 * z) % 13) as f32).unwrap();
            let got = whole_grid_3d(Arc::new(compile_star_3d(&st, 4)), &grid);
            assert_eq!(got, exec::run_3d(&st, &grid, 1), "rad {rad}");
        }
    }

    #[test]
    fn outputs_emitted_with_radius_lag() {
        let st = Stencil2D::<f32>::uniform(2).unwrap();
        let mut pe = Pe2D::new(star_2d(&st, 1), 0, 4, 4, 10);
        assert!(pe.feed(0, vec![0.0; 4]).is_empty());
        assert!(pe.feed(1, vec![0.0; 4]).is_empty());
        // Row 2 arrives: output row 0 (needs rows up to 0+2) is computable.
        let out = pe.feed(2, vec![0.0; 4]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        // Final row flushes the remaining lag.
        for y in 3..9 {
            assert_eq!(pe.feed(y, vec![0.0; 4]).len(), 1);
        }
        let out = pe.feed(9, vec![0.0; 4]);
        assert_eq!(out.len(), 3, "rows 7, 8, 9 flush at stream end");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let mut pe = Pe2D::new(star_2d(&st, 1), 0, 4, 4, 4);
        pe.feed(0, vec![0.0; 5]);
    }

    #[test]
    fn pe_kernel_box_clamp_matches_interpreter_2d() {
        for rad in 1..=3usize {
            let desc = KernelDesc::box_2d(rad, 41, BoundaryCond::Clamp).unwrap();
            let k = Arc::new(compile_2d::<f32>(&desc, 8).unwrap());
            let grid = Grid2D::from_fn(14, 11, |x, y| ((x * 5 + y * 7) % 19) as f32).unwrap();
            let got = whole_grid_2d(k, &grid);
            assert_eq!(got, reference_run_2d::<f32>(&desc, &grid, 1), "rad {rad}");
        }
    }

    #[test]
    fn pe_kernel_matches_interpreter_3d() {
        let desc = KernelDesc::box_3d(2, 55, BoundaryCond::Clamp).unwrap();
        let k = Arc::new(compile_3d::<f32>(&desc, 4).unwrap());
        let grid = Grid3D::from_fn(9, 8, 10, |x, y, z| ((x + 2 * y + 5 * z) % 13) as f32).unwrap();
        let got = whole_grid_3d(k, &grid);
        assert_eq!(got, reference_run_3d::<f32>(&desc, &grid, 1));
    }

    /// Halo block with a desc kernel: committed cells (distance >= rad from
    /// the region edges) must match the grid-resident interpreter.
    #[test]
    fn pe_kernel_halo_block_commits_interpreter_cells() {
        let (nx, ny) = (12, 6);
        let rad = 2;
        let desc = KernelDesc::box_2d(rad, 77, BoundaryCond::Clamp).unwrap();
        let k = Arc::new(compile_2d::<f32>(&desc, 8).unwrap());
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x * x + y) as f32).unwrap();
        let (x0, width) = (-3i64, 12usize);
        let mut pe = Pe2D::new(k, x0, width, nx, ny);
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for y in 0..ny {
            let row: Vec<f32> = (0..width)
                .map(|j| grid.get_clamped(x0 as isize + j as isize, y as isize))
                .collect();
            for (_, orow) in pe.feed(y as i64, row) {
                rows.push(orow);
            }
        }
        let expect = reference_run_2d::<f32>(&desc, &grid, 1);
        for (y, orow) in rows.iter().enumerate() {
            for (j, &val) in orow.iter().enumerate().take(width - rad).skip(rad) {
                let gx = x0 + j as i64;
                if (0..nx as i64).contains(&gx) {
                    assert_eq!(val, expect.get(gx as usize, y), "cell ({gx},{y})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "clamp only")]
    fn pe_rejects_non_clamp_kernel() {
        let desc = KernelDesc::box_2d(2, 1, BoundaryCond::Periodic).unwrap();
        let k = Arc::new(compile_2d::<f32>(&desc, 8).unwrap());
        let _ = Pe2D::new(k, 0, 8, 8, 8);
    }

    #[test]
    fn grid_clamp_beats_region_clamp_for_committed_cells() {
        // A block whose read region sticks out past both grid edges: the
        // committed cells must match the oracle exactly, and the cells
        // outside the grid are not evaluated.
        let (nx, ny) = (12, 6);
        let rad = 2;
        let st = Stencil2D::<f32>::random(rad, 5).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x * x + y) as f32).unwrap();
        // Read region [-3, 14): x0 = -3, width 17.
        let (x0, width) = (-3i64, 17usize);
        let mut pe = Pe2D::new(star_2d(&st, 4), x0, width, nx, ny);
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for y in 0..ny {
            let row: Vec<f32> = (0..width)
                .map(|j| grid.get_clamped(x0 as isize + j as isize, y as isize))
                .collect();
            for (_, orow) in pe.feed(y as i64, row) {
                rows.push(orow);
            }
        }
        let expect = exec::run_2d(&st, &grid, 1);
        for (y, orow) in rows.iter().enumerate() {
            for (j, &val) in orow.iter().enumerate() {
                let gx = x0 + j as i64;
                if (0..nx as i64).contains(&gx) {
                    assert_eq!(val, expect.get(gx as usize, y), "cell ({gx},{y})");
                } else {
                    assert_eq!(val, 0.0, "out-of-grid cell ({gx},{y})");
                }
            }
        }
    }

    #[test]
    fn overhanging_3d_region_commits_oracle_cells() {
        // Region [-2, 9) x [-3, 10) over a 6 x 5 grid: overhangs every
        // edge in x and y, so every row mixes border and out-of-grid cells.
        let (nx, ny, nz) = (6, 5, 4);
        let st = Stencil3D::<f32>::random(2, 8).unwrap();
        let grid =
            Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x * 3 + y * 7 + z) % 11) as f32).unwrap();
        let (x0, y0, width, height) = (-2i64, -3i64, 11usize, 13usize);
        let mut pe = Pe3D::new(
            Arc::new(compile_star_3d(&st, 8)),
            x0,
            y0,
            width,
            height,
            nx,
            ny,
            nz,
        );
        let expect = exec::run_3d(&st, &grid, 1);
        let mut planes = 0;
        for z in 0..nz {
            let mut plane = vec![0.0f32; width * height];
            grid.read_plane_clamped(z as isize, x0 as isize, y0 as isize, width, &mut plane);
            for (oz, oplane) in pe.feed(z as i64, plane) {
                planes += 1;
                for (i, orow) in oplane.chunks(width).enumerate() {
                    for (j, &val) in orow.iter().enumerate() {
                        let (gx, gy) = (x0 + j as i64, y0 + i as i64);
                        if (0..nx as i64).contains(&gx) && (0..ny as i64).contains(&gy) {
                            let want = expect.get(gx as usize, gy as usize, oz as usize);
                            assert_eq!(val, want, "cell ({gx},{gy},{oz})");
                        } else {
                            assert_eq!(val, 0.0, "out-of-grid cell ({gx},{gy},{oz})");
                        }
                    }
                }
            }
        }
        assert_eq!(planes, nz);
    }
}
