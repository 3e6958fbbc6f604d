//! The chain of PEs that realizes temporal blocking.
//!
//! PEs are connected head-to-tail by channels (Fig. 2); PE *t* consumes the
//! rows/planes of time step *t − 1* for the current spatial block and
//! produces those of time step *t*. A chain holds only the PEs that compute
//! in its pass: on the hardware, a pass shorter than `partime` (the last
//! pass of a run whose iteration count is not a multiple of `partime`)
//! streams through surplus PEs that only forward data, and in the
//! functional model such a PE is an identity with zero delay, so it is
//! left out.
//!
//! # Buffer ownership
//!
//! Rows move, they are not copied. The chain owns a [`RowPool`] of
//! block-wide buffers and two reusable wave lists. A caller takes an input
//! buffer with [`Chain2D::take_row`], fills it, and gives it back to
//! [`Chain2D::feed_row`]; the head PE keeps it in its shift register. Each
//! PE's output rows move into the next PE's shift register the same way,
//! and every row a shift register evicts returns to the pool. The tail
//! PE's outputs are lent to a callback as `&[T]` and then returned to the
//! pool. After a few warm-up rows (which size the pool to the chain's
//! steady occupancy) the feed path performs **no heap allocation**; the
//! `zero_alloc` integration test counts allocations to check it.

use crate::pe::{Pe2D, Pe3D, Produced};
use crate::shift_register::RowPool;
use std::sync::Arc;
use stencil_core::{CompiledKernel2D, CompiledKernel3D, Real};

/// A chain of 2D PEs for one spatial block.
#[derive(Debug, Clone)]
pub struct Chain2D<T> {
    pes: Vec<Pe2D<T>>,
    pool: RowPool<T>,
    wave: Produced<T>,
    scratch: Produced<T>,
}

impl<T: Real> Chain2D<T> {
    /// Builds a chain of `depth` PEs sharing `kernel` — one per time step
    /// of the pass — over a block whose read region is `[x0, x0 + width)`
    /// on an `nx × ny` grid.
    ///
    /// # Panics
    /// Panics when `depth == 0`, or when a PE rejects the kernel (see
    /// [`Pe2D::new`]).
    pub fn new(
        kernel: &Arc<CompiledKernel2D<T>>,
        depth: usize,
        x0: i64,
        width: usize,
        nx: usize,
        ny: usize,
    ) -> Self {
        assert!(depth > 0, "empty chain");
        Self {
            pes: (0..depth)
                .map(|_| Pe2D::new(Arc::clone(kernel), x0, width, nx, ny))
                .collect(),
            pool: RowPool::new(width),
            wave: Produced::new(),
            scratch: Produced::new(),
        }
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// `true` iff the chain has no PEs (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Number of buffers parked in the chain's pool.
    pub fn pool_idle(&self) -> usize {
        self.pool.idle()
    }

    /// A block-wide input buffer from the chain's pool. Its contents are
    /// stale: the caller overwrites every cell before feeding it.
    pub fn take_row(&mut self) -> Vec<T> {
        self.pool.take()
    }

    /// Feeds input row `y` to the head PE, cascades it through the chain,
    /// and invokes `emit(y, row)` for every row the tail PE produces. The
    /// chain keeps `row`'s buffer and recycles it through its pool; it
    /// should come from [`Self::take_row`] — allocation-free in steady
    /// state.
    pub fn feed_row(&mut self, y: i64, row: Vec<T>, mut emit: impl FnMut(i64, &[T])) {
        let Self {
            pes,
            pool,
            wave,
            scratch,
        } = self;
        debug_assert!(wave.is_empty() && scratch.is_empty());
        let (head, rest) = pes.split_first_mut().expect("empty chain");
        head.feed_into(y, row, wave, pool);
        for pe in rest {
            if wave.is_empty() {
                return;
            }
            for (iy, irow) in wave.drain(..) {
                pe.feed_into(iy, irow, scratch, pool);
            }
            std::mem::swap(wave, scratch);
        }
        for (oy, orow) in wave.drain(..) {
            emit(oy, &orow);
            pool.put(orow);
        }
    }

    /// Feeds one input row and returns the rows emitted by the tail PE.
    ///
    /// Convenience wrapper over [`Self::feed_row`] that allocates its
    /// results; streaming callers should use `feed_row`.
    pub fn feed(&mut self, y: i64, row: Vec<T>) -> Produced<T> {
        let mut out = Produced::new();
        self.feed_row(y, row, |oy, orow| out.push((oy, orow.to_vec())));
        out
    }
}

/// A chain of 3D PEs for one spatial block.
#[derive(Debug, Clone)]
pub struct Chain3D<T> {
    pes: Vec<Pe3D<T>>,
    pool: RowPool<T>,
    wave: Produced<T>,
    scratch: Produced<T>,
}

impl<T: Real> Chain3D<T> {
    /// Builds a chain of `depth` 3D PEs sharing `kernel` over a block whose
    /// read region is `[x0, x0 + width) × [y0, y0 + height)` on an
    /// `nx × ny × nz` grid.
    ///
    /// # Panics
    /// Panics when `depth == 0`, or when a PE rejects the kernel (see
    /// [`Pe3D::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &Arc<CompiledKernel3D<T>>,
        depth: usize,
        x0: i64,
        y0: i64,
        width: usize,
        height: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Self {
        assert!(depth > 0, "empty chain");
        Self {
            pes: (0..depth)
                .map(|_| Pe3D::new(Arc::clone(kernel), x0, y0, width, height, nx, ny, nz))
                .collect(),
            pool: RowPool::new(width * height),
            wave: Produced::new(),
            scratch: Produced::new(),
        }
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// `true` iff the chain has no PEs.
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Number of buffers parked in the chain's pool.
    pub fn pool_idle(&self) -> usize {
        self.pool.idle()
    }

    /// A block-sized input plane from the chain's pool, with stale contents
    /// (see [`Chain2D::take_row`]).
    pub fn take_plane(&mut self) -> Vec<T> {
        self.pool.take()
    }

    /// Feeds input plane `z` through the chain, invoking `emit(z, plane)`
    /// per tail-PE output plane; buffers move and are recycled as in
    /// [`Chain2D::feed_row`].
    pub fn feed_plane(&mut self, z: i64, plane: Vec<T>, mut emit: impl FnMut(i64, &[T])) {
        let Self {
            pes,
            pool,
            wave,
            scratch,
        } = self;
        debug_assert!(wave.is_empty() && scratch.is_empty());
        let (head, rest) = pes.split_first_mut().expect("empty chain");
        head.feed_into(z, plane, wave, pool);
        for pe in rest {
            if wave.is_empty() {
                return;
            }
            for (iz, iplane) in wave.drain(..) {
                pe.feed_into(iz, iplane, scratch, pool);
            }
            std::mem::swap(wave, scratch);
        }
        for (oz, oplane) in wave.drain(..) {
            emit(oz, &oplane);
            pool.put(oplane);
        }
    }

    /// Feeds one input plane and returns the planes emitted by the tail PE.
    ///
    /// Convenience wrapper over [`Self::feed_plane`] that allocates its
    /// results.
    pub fn feed(&mut self, z: i64, plane: Vec<T>) -> Produced<T> {
        let mut out = Produced::new();
        self.feed_plane(z, plane, |oz, oplane| out.push((oz, oplane.to_vec())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{compile_star_2d, exec, Grid2D, Stencil2D};

    fn star(st: &Stencil2D<f32>) -> Arc<CompiledKernel2D<f32>> {
        Arc::new(compile_star_2d(st, 4))
    }

    /// Streams `grid` through `chain` as one whole-grid block.
    fn run_whole_grid(chain: &mut Chain2D<f32>, grid: &Grid2D<f32>) -> Grid2D<f32> {
        let mut got = Grid2D::<f32>::zeros(grid.nx(), grid.ny()).unwrap();
        for y in 0..grid.ny() {
            for (oy, orow) in chain.feed(y as i64, grid.row(y).to_vec()) {
                got.row_mut(oy as usize).copy_from_slice(&orow);
            }
        }
        got
    }

    #[test]
    fn chain_of_depth_k_equals_k_oracle_steps_whole_grid() {
        let (nx, ny) = (16, 12);
        let st = Stencil2D::<f32>::random(1, 9).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((3 * x) as f32).sin() + y as f32).unwrap();
        // Whole grid as one block. All committed cells are valid because
        // clamping handles the physical boundary.
        for depth in 1..=3 {
            let mut chain = Chain2D::new(&star(&st), depth, 0, nx, nx, ny);
            assert_eq!(
                run_whole_grid(&mut chain, &grid),
                exec::run_2d(&st, &grid, depth),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn feed_row_equals_feed() {
        let (nx, ny) = (14, 9);
        let st = Stencil2D::<f32>::random(2, 42).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y) % 11) as f32).unwrap();
        let mut a = Chain2D::new(&star(&st), 3, 0, nx, nx, ny);
        let mut b = Chain2D::new(&star(&st), 3, 0, nx, nx, ny);
        for y in 0..ny {
            let via_feed = a.feed(y as i64, grid.row(y).to_vec());
            let mut row = b.take_row();
            row.copy_from_slice(grid.row(y));
            let mut via_feed_row = Produced::new();
            b.feed_row(y as i64, row, |oy, orow| {
                via_feed_row.push((oy, orow.to_vec()))
            });
            assert_eq!(via_feed, via_feed_row, "row {y}");
        }
    }

    #[test]
    fn steady_state_pool_is_closed() {
        // Input rows come from the chain's pool and every buffer the cascade
        // takes is returned: after warm-up the pool's idle count stops
        // changing and no new buffer enters the chain. (A caller feeding
        // fresh rows instead would grow the pool by one row per feed.)
        let (nx, ny) = (20, 40);
        let st = Stencil2D::<f32>::random(2, 3).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        let mut chain = Chain2D::new(&star(&st), 4, 0, nx, nx, ny);
        let mut idle_after_row = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut buffers_after_row = Vec::new();
        for y in 0..ny {
            let mut row = chain.take_row();
            row.copy_from_slice(grid.row(y));
            seen.insert(row.as_ptr() as usize);
            chain.feed_row(y as i64, row, |_, orow| {
                seen.insert(orow.as_ptr() as usize);
            });
            idle_after_row.push(chain.pool_idle());
            buffers_after_row.push(seen.len());
        }
        // Warm-up is bounded by the chain's fill latency (depth * rad
        // rows); past the midpoint of this grid nothing may change except
        // at the final flush.
        let mid = ny / 2;
        for y in mid..ny - 1 {
            assert_eq!(
                idle_after_row[y], idle_after_row[mid],
                "pool grew at row {y}: {idle_after_row:?}"
            );
            assert_eq!(
                buffers_after_row[y], buffers_after_row[mid],
                "new buffer at row {y}: {buffers_after_row:?}"
            );
        }
    }

    #[test]
    fn stale_pool_buffers_never_leak_into_results() {
        // Poison every buffer the pool hands out first: the first input row
        // is overwritten by the caller, every output cell by the PEs.
        let (nx, ny) = (10, 10);
        let st = Stencil2D::<f32>::random(1, 4).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        let mut chain = Chain2D::new(&star(&st), 2, 0, nx, nx, ny);
        for _ in 0..8 {
            let buf = vec![f32::NAN; nx];
            chain.pool.put(buf);
        }
        assert_eq!(
            run_whole_grid(&mut chain, &grid),
            exec::run_2d(&st, &grid, 2)
        );
    }

    #[test]
    #[should_panic(expected = "empty chain")]
    fn empty_chain_panics() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let _ = Chain2D::new(&star(&st), 0, 0, 8, 8, 8);
    }
}
