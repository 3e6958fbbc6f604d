//! The chain of PEs that realizes temporal blocking.
//!
//! `partime` PEs are connected head-to-tail by channels (Fig. 2); PE *t*
//! consumes the rows/planes of time step *t − 1* for the current spatial
//! block and produces those of time step *t*. When the remaining iteration
//! count is smaller than the chain length (the last pass of a run whose
//! iteration count is not a multiple of `partime`), the surplus PEs are
//! switched to pass-through.
//!
//! # Buffer ownership
//!
//! The chain owns a [`RowPool`] and two reusable wave lists. Callers feed
//! *borrowed* rows via [`Chain2D::feed_row`] / [`Chain3D::feed_plane`] and
//! receive outputs as borrowed slices through a callback; every buffer the
//! cascade produces is returned to the pool before the call ends. After a
//! few warm-up rows (which size the pool to the chain's steady occupancy)
//! the feed path performs **no heap allocation** — this invariant is load
//! bearing for the simulator's throughput and is checked by the
//! `steady_state_pool_is_closed` test below.

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
    /// Builds a chain of `partime` PEs sharing `kernel`, the first `active`
    /// of which compute (the rest pass through).
    ///
    /// # Panics
    /// Panics when `active > partime` or `partime == 0`, or when a PE
    /// rejects the kernel (see [`Pe2D::new`]).
    pub fn new(
        kernel: &Arc<CompiledKernel2D<T>>,
        partime: usize,
        active: usize,
        x0: i64,
        width: usize,
        nx: usize,
        ny: usize,
    ) -> Self {
        assert!(partime > 0, "empty chain");
        assert!(active <= partime, "more active PEs than chain length");
        let pes = (0..partime)
            .map(|t| {
                let mut pe = Pe2D::new(Arc::clone(kernel), x0, width, nx, ny);
                pe.set_active(t < active);
                pe
            })
            .collect();
        Self {
            pes,
            pool: RowPool::new(),
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

    /// Number of buffers parked in the chain's pool (test hook for the
    /// zero-allocation invariant).
    pub fn pool_idle(&self) -> usize {
        self.pool.idle()
    }

    /// Feeds one borrowed input row to the head PE, cascades it through the
    /// chain, and invokes `emit(y, row)` for every row the tail PE
    /// produces. All intermediate and output buffers are recycled through
    /// the chain's pool — allocation-free in steady state.
    pub fn feed_row(&mut self, y: i64, row: &[T], mut emit: impl FnMut(i64, &[T])) {
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
                pe.feed_into(iy, &irow, scratch, pool);
                pool.put(irow);
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
        self.feed_row(y, &row, |oy, orow| out.push((oy, orow.to_vec())));
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
    /// Builds a chain of `partime` 3D PEs sharing `kernel`, the first
    /// `active` computing.
    ///
    /// # Panics
    /// Panics when `active > partime` or `partime == 0`, or when a PE
    /// rejects the kernel (see [`Pe3D::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &Arc<CompiledKernel3D<T>>,
        partime: usize,
        active: usize,
        x0: i64,
        y0: i64,
        width: usize,
        height: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Self {
        assert!(partime > 0, "empty chain");
        assert!(active <= partime, "more active PEs than chain length");
        let pes = (0..partime)
            .map(|t| {
                let mut pe = Pe3D::new(Arc::clone(kernel), x0, y0, width, height, nx, ny, nz);
                pe.set_active(t < active);
                pe
            })
            .collect();
        Self {
            pes,
            pool: RowPool::new(),
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

    /// Feeds one borrowed input plane through the chain, invoking
    /// `emit(z, plane)` per tail-PE output plane; buffers are recycled
    /// through the chain's pool (see [`Chain2D::feed_row`]).
    pub fn feed_plane(&mut self, z: i64, plane: &[T], mut emit: impl FnMut(i64, &[T])) {
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
                pe.feed_into(iz, &iplane, scratch, pool);
                pool.put(iplane);
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
        self.feed_plane(z, &plane, |oz, oplane| out.push((oz, oplane.to_vec())));
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

    #[test]
    fn two_pe_chain_equals_two_oracle_steps_whole_grid() {
        let (nx, ny) = (16, 12);
        let st = Stencil2D::<f32>::random(1, 9).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((3 * x) as f32).sin() + y as f32).unwrap();
        // Whole grid as one block; 2 active PEs. All committed cells are
        // valid because clamping handles the physical boundary.
        let mut chain = Chain2D::new(&star(&st), 2, 2, 0, nx, nx, ny);
        let mut got = Grid2D::<f32>::zeros(nx, ny).unwrap();
        for y in 0..ny {
            let row: Vec<f32> = (0..nx).map(|x| grid.get(x, y)).collect();
            for (oy, orow) in chain.feed(y as i64, row) {
                got.row_mut(oy as usize).copy_from_slice(&orow);
            }
        }
        assert_eq!(got, exec::run_2d(&st, &grid, 2));
    }

    #[test]
    fn feed_row_equals_feed() {
        let (nx, ny) = (14, 9);
        let st = Stencil2D::<f32>::random(2, 42).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y) % 11) as f32).unwrap();
        let mut a = Chain2D::new(&star(&st), 3, 3, 0, nx, nx, ny);
        let mut b = Chain2D::new(&star(&st), 3, 3, 0, nx, nx, ny);
        for y in 0..ny {
            let row: Vec<f32> = (0..nx).map(|x| grid.get(x, y)).collect();
            let via_feed = a.feed(y as i64, row.clone());
            let mut via_feed_row = Produced::new();
            b.feed_row(y as i64, &row, |oy, orow| {
                via_feed_row.push((oy, orow.to_vec()))
            });
            assert_eq!(via_feed, via_feed_row, "row {y}");
        }
    }

    #[test]
    fn steady_state_pool_is_closed() {
        // After warm-up, every buffer the cascade takes is returned: the
        // pool's idle count at rest stops changing, i.e. the feed loop no
        // longer allocates.
        let (nx, ny) = (20, 40);
        let st = Stencil2D::<f32>::random(2, 3).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        let mut chain = Chain2D::new(&star(&st), 4, 4, 0, nx, nx, ny);
        let mut idle_after_row = Vec::new();
        for y in 0..ny {
            let row: Vec<f32> = (0..nx).map(|x| grid.get(x, y)).collect();
            chain.feed_row(y as i64, &row, |_, _| {});
            idle_after_row.push(chain.pool_idle());
        }
        // Warm-up is bounded by the chain's fill latency (partime * rad
        // rows); past the midpoint of this grid the pool size must be flat
        // except at the final flush.
        let mid = ny / 2;
        let steady = idle_after_row[mid];
        for (y, &idle) in idle_after_row.iter().enumerate().take(ny - 1).skip(mid) {
            assert_eq!(idle, steady, "pool grew at row {y}: {idle_after_row:?}");
        }
    }

    #[test]
    fn passthrough_tail_preserves_results() {
        let (nx, ny) = (10, 10);
        let st = Stencil2D::<f32>::random(1, 4).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        // Chain of 4 with only 1 active == one oracle step.
        let mut chain = Chain2D::new(&star(&st), 4, 1, 0, nx, nx, ny);
        let mut got = Grid2D::<f32>::zeros(nx, ny).unwrap();
        for y in 0..ny {
            let row: Vec<f32> = (0..nx).map(|x| grid.get(x, y)).collect();
            for (oy, orow) in chain.feed(y as i64, row) {
                got.row_mut(oy as usize).copy_from_slice(&orow);
            }
        }
        assert_eq!(got, exec::run_2d(&st, &grid, 1));
    }

    #[test]
    fn zero_active_chain_is_identity() {
        let (nx, ny) = (6, 4);
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let mut chain = Chain2D::new(&star(&st), 3, 0, 0, nx, nx, ny);
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x * y) as f32).unwrap();
        let mut got = Grid2D::<f32>::zeros(nx, ny).unwrap();
        for y in 0..ny {
            let row: Vec<f32> = (0..nx).map(|x| grid.get(x, y)).collect();
            for (oy, orow) in chain.feed(y as i64, row) {
                got.row_mut(oy as usize).copy_from_slice(&orow);
            }
        }
        assert_eq!(got, grid);
    }

    #[test]
    #[should_panic(expected = "more active PEs")]
    fn too_many_active_panics() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let _ = Chain2D::new(&star(&st), 2, 3, 0, 8, 8, 8);
    }
}
