//! YASK-style padded-halo allocation (§IV.B).
//!
//! "In YASK, the allocated grid is bigger than the input grid so that
//! out-of-bound neighbors can also be read from external memory. This
//! results in extra memory accesses, but allows correct vectorization on
//! grid boundaries. In our implementation, all out-of-bound neighbors fall
//! back on the grid cell that is on the border, instead."
//!
//! [`PaddedGrid2D`] is that allocation: a `rad`-cell apron around the
//! logical grid. When the apron is filled with the border-replicated values
//! the engine is **bit-exact** with the clamp-boundary oracle — every inner
//! cell update becomes branch-free (the "correct vectorization") at the cost
//! of the apron's extra memory ([`PaddedGrid2D::overhead_bytes`] quantifies
//! §IV.B's "extra memory accesses").

use stencil_core::{Grid2D, Real, Stencil2D};

/// A grid allocated with a `halo`-cell apron on every side.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedGrid2D<T> {
    nx: usize,
    ny: usize,
    halo: usize,
    /// Allocated width = nx + 2·halo.
    anx: usize,
    data: Vec<T>,
}

impl<T: Real> PaddedGrid2D<T> {
    /// Allocates from a logical grid, filling the apron by border
    /// replication (the fill that makes padded reads equal clamped reads).
    pub fn from_grid(g: &Grid2D<T>, halo: usize) -> Self {
        let (nx, ny) = (g.nx(), g.ny());
        let (anx, any) = (nx + 2 * halo, ny + 2 * halo);
        let mut data = vec![T::ZERO; anx * any];
        for ay in 0..any {
            for ax in 0..anx {
                let x = (ax as isize - halo as isize).clamp(0, nx as isize - 1);
                let y = (ay as isize - halo as isize).clamp(0, ny as isize - 1);
                data[ay * anx + ax] = g.get(x as usize, y as usize);
            }
        }
        Self {
            nx,
            ny,
            halo,
            anx,
            data,
        }
    }

    /// Logical width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Logical height.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Apron width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Reads logical cell `(x, y)` (no bounds logic needed for any tap
    /// within the apron).
    #[inline]
    pub fn get(&self, x: isize, y: isize) -> T {
        debug_assert!(x >= -(self.halo as isize) && x < (self.nx + self.halo) as isize);
        debug_assert!(y >= -(self.halo as isize) && y < (self.ny + self.halo) as isize);
        let ax = (x + self.halo as isize) as usize;
        let ay = (y + self.halo as isize) as usize;
        self.data[ay * self.anx + ax]
    }

    /// Writes logical cell `(x, y)` (interior only).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.nx && y < self.ny);
        let i = (y + self.halo) * self.anx + (x + self.halo);
        self.data[i] = v;
    }

    /// Extracts the logical grid.
    pub fn to_grid(&self) -> Grid2D<T> {
        Grid2D::from_fn(self.nx, self.ny, |x, y| self.get(x as isize, y as isize))
            .expect("valid dims")
    }

    /// Re-fills the apron by border replication (after a time step).
    pub fn refill_apron(&mut self) {
        let (nx, ny, halo, anx) = (self.nx, self.ny, self.halo, self.anx);
        let any = ny + 2 * halo;
        for ay in 0..any {
            for ax in 0..anx {
                let lx = ax as isize - halo as isize;
                let ly = ay as isize - halo as isize;
                if lx < 0 || ly < 0 || lx >= nx as isize || ly >= ny as isize {
                    let sx = lx.clamp(0, nx as isize - 1) as usize;
                    let sy = ly.clamp(0, ny as isize - 1) as usize;
                    self.data[ay * anx + ax] = self.data[(sy + halo) * anx + (sx + halo)];
                }
            }
        }
    }

    /// Extra bytes the padded allocation reads/stores per sweep relative to
    /// the exact grid — §IV.B's "extra memory accesses".
    pub fn overhead_bytes(&self) -> usize {
        let allocated = self.anx * (self.ny + 2 * self.halo);
        (allocated - self.nx * self.ny) * std::mem::size_of::<T>()
    }
}

/// Runs `iters` steps with the padded-allocation engine: every cell update
/// is branch-free (reads the apron instead of clamping), apron re-filled
/// between steps. Bit-exact with the clamp oracle.
pub fn padded_run_2d<T: Real>(st: &Stencil2D<T>, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    let rad = st.radius();
    let mut cur = PaddedGrid2D::from_grid(grid, rad);
    let mut next = cur.clone();
    for _ in 0..iters {
        for y in 0..cur.ny {
            for x in 0..cur.nx {
                let (xi, yi) = (x as isize, y as isize);
                // Canonical Eq. (1) order; taps go straight to the apron —
                // except where the *logical* clamp coordinate differs from
                // the apron coordinate only outside the grid, which the
                // border-replicated fill makes identical.
                let mut acc = st.center() * cur.get(xi, yi);
                for (k, a) in st.arms().iter().enumerate() {
                    let d = (k + 1) as isize;
                    acc += a.west * cur.get(xi - d, yi);
                    acc += a.east * cur.get(xi + d, yi);
                    acc += a.south * cur.get(xi, yi - d);
                    acc += a.north * cur.get(xi, yi + d);
                }
                next.set(x, y, acc);
            }
        }
        std::mem::swap(&mut cur, &mut next);
        cur.refill_apron();
    }
    cur.to_grid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    #[test]
    fn padded_reads_equal_clamped_reads() {
        let g = Grid2D::from_fn(7, 5, |x, y| (10 * x + y) as f32).unwrap();
        let p = PaddedGrid2D::from_grid(&g, 3);
        for y in -3i32..8 {
            for x in -3i32..10 {
                assert_eq!(
                    p.get(x as isize, y as isize),
                    g.get_clamped(x as isize, y as isize),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn padded_engine_matches_oracle_bit_exactly() {
        for rad in 1..=4 {
            let st = Stencil2D::<f32>::random(rad, 90 + rad as u64).unwrap();
            let g = Grid2D::from_fn(33, 21, |x, y| ((x * 11 + y * 5) % 29) as f32).unwrap();
            assert_eq!(
                padded_run_2d(&st, &g, 6),
                exec::run_2d(&st, &g, 6),
                "rad {rad}"
            );
        }
    }

    #[test]
    fn padded_engine_matches_oracle_on_square_grid() {
        let st = Stencil2D::<f32>::random(2, 91).unwrap();
        let g = Grid2D::from_fn(30, 30, |x, y| ((x + 3 * y) % 13) as f32).unwrap();
        assert_eq!(padded_run_2d(&st, &g, 4), exec::run_2d(&st, &g, 4));
    }

    #[test]
    fn overhead_grows_with_radius_and_shrinks_relatively_with_grid() {
        // §IV.B: extra memory accesses; the apron cost is O(perimeter·rad).
        let g = Grid2D::<f32>::zeros(100, 100).unwrap();
        let o1 = PaddedGrid2D::from_grid(&g, 1).overhead_bytes();
        let o4 = PaddedGrid2D::from_grid(&g, 4).overhead_bytes();
        assert!(o4 > 3 * o1);

        let big = Grid2D::<f32>::zeros(1000, 1000).unwrap();
        let rel_small = o4 as f64 / (100.0 * 100.0 * 4.0);
        let rel_big =
            PaddedGrid2D::from_grid(&big, 4).overhead_bytes() as f64 / (1000.0 * 1000.0 * 4.0);
        assert!(rel_big < rel_small);
    }

    #[test]
    fn roundtrip() {
        let g = Grid2D::from_fn(9, 9, |x, y| (x * y) as f64).unwrap();
        assert_eq!(PaddedGrid2D::from_grid(&g, 2).to_grid(), g);
    }
}
