//! Dense, flat, row-major grids for 2D and 3D stencil computation.
//!
//! Layout matches the paper's kernels: `x` is the fastest-varying (unit
//! stride) dimension — the dimension that is vectorized by `parvec` — then
//! `y`, then (for 3D) `z`, the streamed dimension of 2.5D blocking.

use crate::error::{Result, StencilError};
use crate::real::Real;

/// Fills `out` with `out.len()` cells of `row` starting at (possibly
/// negative) column `x0`, clamping out-of-range columns to the row ends —
/// the paper's boundary condition, vectorized: one `copy_from_slice` for the
/// in-grid interior plus constant fills for the clamped edges.
fn gather_row_clamped<T: Real>(row: &[T], x0: isize, out: &mut [T]) {
    let nx = row.len() as isize;
    let len = out.len() as isize;
    let lo = x0.clamp(0, nx);
    let hi = (x0 + len).clamp(0, nx);
    if lo < hi {
        let o0 = (lo - x0) as usize;
        let o1 = (hi - x0) as usize;
        out[o0..o1].copy_from_slice(&row[lo as usize..hi as usize]);
        out[..o0].fill(row[0]);
        out[o1..].fill(row[row.len() - 1]);
    } else {
        // The whole request lies off-grid on one side.
        out.fill(if x0 + len <= 0 {
            row[0]
        } else {
            row[row.len() - 1]
        });
    }
}

/// Checks that `bounds` is a strictly increasing partition `0 = b_0 < … <
/// b_k = n` of an axis of length `n`.
fn check_bounds(bounds: &[usize], n: usize, axis: &str) {
    assert!(
        bounds.len() >= 2 && bounds[0] == 0 && *bounds.last().unwrap() == n,
        "{axis} bounds must start at 0 and end at {n}"
    );
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "{axis} bounds must be strictly increasing"
    );
}

/// The source and destination of sweep `i` of a run of `n` sweeps that
/// reads `input` in place and leaves its result in `out`: sweep 0 reads
/// `input`, sweep `n − 1` writes `out`, and the sweeps in between alternate
/// between `out` and `scratch` so that each reads what the one before it
/// wrote. `scratch` is used only when `n ≥ 2`, so a one-sweep run needs
/// none and never copies its input.
///
/// # Panics
/// Panics when `i ≥ n`, or when sweep `i` needs `scratch` and it is `None`.
pub fn sweep_buffers<'a, G>(
    i: usize,
    n: usize,
    input: &'a G,
    out: &'a mut G,
    scratch: Option<&'a mut G>,
) -> (&'a G, &'a mut G) {
    assert!(i < n, "sweep {i} of a {n}-sweep run");
    let scratch = || scratch.expect("a run of two or more sweeps needs a scratch grid");
    // A sweep followed by an even number of sweeps writes `out`.
    match (i == 0, (n - 1 - i) % 2 == 0) {
        (true, true) => (input, out),
        (true, false) => (input, scratch()),
        (false, true) => (scratch(), out),
        (false, false) => (out, scratch()),
    }
}

/// A dense 2D grid stored row-major (`idx = y * nx + x`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D<T> {
    nx: usize,
    ny: usize,
    data: Vec<T>,
}

impl<T: Real> Grid2D<T> {
    /// Creates a zero-filled `nx × ny` grid.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when either dimension is zero.
    pub fn zeros(nx: usize, ny: usize) -> Result<Self> {
        Self::filled(nx, ny, T::ZERO)
    }

    /// Creates an `nx × ny` grid with every cell set to `v`.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when either dimension is zero.
    pub fn filled(nx: usize, ny: usize, v: T) -> Result<Self> {
        if nx == 0 || ny == 0 {
            return Err(StencilError::InvalidGrid {
                what: format!("dimensions must be nonzero, got {nx}x{ny}"),
            });
        }
        Ok(Self {
            nx,
            ny,
            data: vec![v; nx * ny],
        })
    }

    /// Creates a grid whose cell `(x, y)` holds `f(x, y)`.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when either dimension is zero.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> T) -> Result<Self> {
        let mut g = Self::zeros(nx, ny)?;
        for y in 0..ny {
            for x in 0..nx {
                g.data[y * nx + x] = f(x, y);
            }
        }
        Ok(g)
    }

    /// Wraps an existing flat buffer as an `nx × ny` grid without copying —
    /// the zero-allocation constructor buffer pools use to recycle storage.
    /// Cell contents are taken as-is (possibly stale); callers that need a
    /// defined state must overwrite every cell.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when either dimension is zero
    /// or `data.len() != nx * ny`.
    pub fn from_vec(nx: usize, ny: usize, data: Vec<T>) -> Result<Self> {
        if nx == 0 || ny == 0 || data.len() != nx * ny {
            return Err(StencilError::InvalidGrid {
                what: format!(
                    "buffer of {} cells cannot back a {nx}x{ny} grid",
                    data.len()
                ),
            });
        }
        Ok(Self { nx, ny, data })
    }

    /// Consumes the grid, handing its flat storage back (capacity intact)
    /// so a pool can recycle it.
    pub fn into_raw(self) -> Vec<T> {
        self.data
    }

    /// Overwrites every cell from `other` without reallocating.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            (self.nx, self.ny),
            (other.nx, other.ny),
            "copy_from requires identical shapes"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Width (unit-stride dimension).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Height.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the grid holds no cells (never true for a constructed grid).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(x, y)`. Debug-asserts bounds.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(
            x < self.nx && y < self.ny,
            "({x},{y}) out of {}x{}",
            self.nx,
            self.ny
        );
        y * self.nx + x
    }

    /// Cell value at `(x, y)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.data[self.idx(x, y)]
    }

    /// Sets the cell at `(x, y)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Cell value with both coordinates clamped onto the grid — the paper's
    /// boundary condition ("out-of-bound neighbors fall back on the cell that
    /// is on the border").
    #[inline(always)]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.nx as isize - 1) as usize;
        let cy = y.clamp(0, self.ny as isize - 1) as usize;
        self.data[cy * self.nx + cx]
    }

    /// Immutable view of the backing storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of row `y`.
    #[inline(always)]
    pub fn row(&self, y: usize) -> &[T] {
        let s = y * self.nx;
        &self.data[s..s + self.nx]
    }

    /// Mutable view of row `y`.
    #[inline(always)]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let s = y * self.nx;
        &mut self.data[s..s + self.nx]
    }

    /// Fills `out` with `out.len()` cells of row `y` starting at (possibly
    /// negative) column `x0`, clamping both coordinates onto the grid — the
    /// block-wide equivalent of [`Self::get_clamped`], done with one bulk
    /// copy for the interior instead of a per-cell gather.
    #[inline]
    pub fn read_row_clamped(&self, y: isize, x0: isize, out: &mut [T]) {
        gather_row_clamped(self.row(y.clamp(0, self.ny as isize - 1) as usize), x0, out);
    }

    /// Splits the grid into disjoint mutable *column blocks*: block `b`
    /// holds, for every row `y`, the sub-slice of columns
    /// `bounds[b]..bounds[b + 1]`. The blocks borrow disjoint parts of the
    /// backing storage, so they can be written from different threads
    /// concurrently — this is what lets independent spatial blocks of the
    /// overlapped-blocking schedule commit their results in parallel.
    ///
    /// # Panics
    /// Panics unless `bounds` is a strictly increasing partition
    /// `0 = b_0 < … < b_k = nx` of the x axis.
    pub fn column_blocks(&mut self, bounds: &[usize]) -> Vec<Vec<&mut [T]>> {
        check_bounds(bounds, self.nx, "column");
        let nb = bounds.len() - 1;
        let mut blocks: Vec<Vec<&mut [T]>> = (0..nb).map(|_| Vec::with_capacity(self.ny)).collect();
        for row in self.data.chunks_mut(self.nx) {
            let mut rest = row;
            for (b, w) in bounds.windows(2).enumerate() {
                let (seg, tail) = rest.split_at_mut(w[1] - w[0]);
                blocks[b].push(seg);
                rest = tail;
            }
        }
        blocks
    }

    /// Swaps the contents of two equally-shaped grids (used for
    /// double-buffered time stepping).
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny), "shape mismatch");
        std::mem::swap(&mut self.data, &mut other.data);
    }
}

/// A dense 3D grid stored row-major (`idx = (z * ny + y) * nx + x`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3D<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<T>,
}

impl<T: Real> Grid3D<T> {
    /// Creates a zero-filled `nx × ny × nz` grid.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when any dimension is zero.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Result<Self> {
        Self::filled(nx, ny, nz, T::ZERO)
    }

    /// Creates a grid with every cell set to `v`.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when any dimension is zero.
    pub fn filled(nx: usize, ny: usize, nz: usize, v: T) -> Result<Self> {
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(StencilError::InvalidGrid {
                what: format!("dimensions must be nonzero, got {nx}x{ny}x{nz}"),
            });
        }
        Ok(Self {
            nx,
            ny,
            nz,
            data: vec![v; nx * ny * nz],
        })
    }

    /// Creates a grid whose cell `(x, y, z)` holds `f(x, y, z)`.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when any dimension is zero.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Result<Self> {
        let mut g = Self::zeros(nx, ny, nz)?;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    g.data[(z * ny + y) * nx + x] = f(x, y, z);
                }
            }
        }
        Ok(g)
    }

    /// Wraps an existing flat buffer as an `nx × ny × nz` grid without
    /// copying (see [`Grid2D::from_vec`]). Cell contents are taken as-is.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidGrid`] when any dimension is zero or
    /// `data.len() != nx * ny * nz`.
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<T>) -> Result<Self> {
        if nx == 0 || ny == 0 || nz == 0 || data.len() != nx * ny * nz {
            return Err(StencilError::InvalidGrid {
                what: format!(
                    "buffer of {} cells cannot back a {nx}x{ny}x{nz} grid",
                    data.len()
                ),
            });
        }
        Ok(Self { nx, ny, nz, data })
    }

    /// Consumes the grid, handing its flat storage back (capacity intact)
    /// so a pool can recycle it.
    pub fn into_raw(self) -> Vec<T> {
        self.data
    }

    /// Overwrites every cell from `other` without reallocating.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            (self.nx, self.ny, self.nz),
            (other.nx, other.ny, other.nz),
            "copy_from requires identical shapes"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Width (unit-stride, vectorized dimension).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Height (second blocked dimension of 2.5D blocking).
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Depth (streamed dimension of 2.5D blocking).
    #[inline(always)]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total number of cells.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the grid holds no cells (never true for a constructed grid).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(x, y, z)`. Debug-asserts bounds.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(
            x < self.nx && y < self.ny && z < self.nz,
            "({x},{y},{z}) out of {}x{}x{}",
            self.nx,
            self.ny,
            self.nz
        );
        (z * self.ny + y) * self.nx + x
    }

    /// Cell value at `(x, y, z)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.idx(x, y, z)]
    }

    /// Sets the cell at `(x, y, z)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Cell value with all coordinates clamped onto the grid (paper boundary
    /// condition).
    #[inline(always)]
    pub fn get_clamped(&self, x: isize, y: isize, z: isize) -> T {
        let cx = x.clamp(0, self.nx as isize - 1) as usize;
        let cy = y.clamp(0, self.ny as isize - 1) as usize;
        let cz = z.clamp(0, self.nz as isize - 1) as usize;
        self.data[(cz * self.ny + cy) * self.nx + cx]
    }

    /// Immutable view of the backing storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of the `z`-plane as a flat `nx × ny` slice.
    #[inline(always)]
    pub fn plane(&self, z: usize) -> &[T] {
        let s = z * self.ny * self.nx;
        &self.data[s..s + self.ny * self.nx]
    }

    /// Mutable view of the `z`-plane as a flat `nx × ny` slice.
    #[inline(always)]
    pub fn plane_mut(&mut self, z: usize) -> &mut [T] {
        let s = z * self.ny * self.nx;
        &mut self.data[s..s + self.ny * self.nx]
    }

    /// Fills `out` (row-major `width × height`) with the cells of plane `z`
    /// in the window `[x0, x0 + width) × [y0, y0 + height)`, clamping all
    /// coordinates onto the grid. The bulk-copy analogue of per-cell
    /// [`Self::get_clamped`] for reading one block plane.
    ///
    /// # Panics
    /// Panics when `out.len() != width * height`.
    pub fn read_plane_clamped(&self, z: isize, x0: isize, y0: isize, width: usize, out: &mut [T]) {
        assert_eq!(out.len() % width, 0, "plane buffer not a multiple of width");
        let cz = z.clamp(0, self.nz as isize - 1) as usize;
        let plane = self.plane(cz);
        for (i, orow) in out.chunks_mut(width).enumerate() {
            let gy = (y0 + i as isize).clamp(0, self.ny as isize - 1) as usize;
            gather_row_clamped(&plane[gy * self.nx..(gy + 1) * self.nx], x0, orow);
        }
    }

    /// Splits the grid into disjoint mutable *tile blocks*: block
    /// `(bx, by)` (returned at index `by * (x_bounds.len() - 1) + bx`) holds
    /// one sub-slice per `(z, y)` row of its tile, covering columns
    /// `x_bounds[bx]..x_bounds[bx + 1]` of rows
    /// `y_bounds[by]..y_bounds[by + 1]`, for all `z`, in `(z, y)` order.
    /// The blocks borrow disjoint storage and can be written concurrently.
    ///
    /// # Panics
    /// Panics unless `x_bounds`/`y_bounds` are strictly increasing
    /// partitions of the x and y axes.
    pub fn tile_blocks(&mut self, x_bounds: &[usize], y_bounds: &[usize]) -> Vec<Vec<&mut [T]>> {
        check_bounds(x_bounds, self.nx, "column");
        check_bounds(y_bounds, self.ny, "row");
        let nbx = x_bounds.len() - 1;
        let nby = y_bounds.len() - 1;
        // Map each y to its y-block index.
        let mut row_block = vec![0usize; self.ny];
        for (by, w) in y_bounds.windows(2).enumerate() {
            row_block[w[0]..w[1]].iter_mut().for_each(|b| *b = by);
        }
        let mut blocks: Vec<Vec<&mut [T]>> = (0..nbx * nby).map(|_| Vec::new()).collect();
        for (gy, row) in self.data.chunks_mut(self.nx).enumerate() {
            let by = row_block[gy % self.ny];
            let mut rest = row;
            for (bx, w) in x_bounds.windows(2).enumerate() {
                let (seg, tail) = rest.split_at_mut(w[1] - w[0]);
                blocks[by * nbx + bx].push(seg);
                rest = tail;
            }
        }
        blocks
    }

    /// Swaps the contents of two equally-shaped grids.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(
            (self.nx, self.ny, self.nz),
            (other.nx, other.ny, other.nz),
            "shape mismatch"
        );
        std::mem::swap(&mut self.data, &mut other.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_buffers_read_input_first_and_write_out_last() {
        // Label the three buffers and follow the data through n sweeps.
        for n in 1..=5usize {
            let (input, mut out, mut scratch) = ('i', 'o', 's');
            let mut prev = 'i';
            for i in 0..n {
                let (src, dst) = sweep_buffers(i, n, &input, &mut out, Some(&mut scratch));
                assert_eq!(*src, prev, "sweep {i} of {n} reads the last write");
                assert_ne!(*src, *dst);
                prev = *dst;
            }
            assert_eq!(prev, 'o', "the last of {n} sweeps writes out");
        }
        let (input, mut out) = (0u8, 1u8);
        assert_eq!(sweep_buffers(0, 1, &input, &mut out, None), (&0, &mut 1));
    }

    #[test]
    #[should_panic(expected = "needs a scratch grid")]
    fn sweep_buffers_need_scratch_for_two_sweeps() {
        let (input, mut out) = (0u8, 1u8);
        let _ = sweep_buffers(0, 2, &input, &mut out, None);
    }

    #[test]
    fn zeros_and_shape_2d() {
        let g = Grid2D::<f32>::zeros(4, 3).unwrap();
        assert_eq!((g.nx(), g.ny(), g.len()), (4, 3, 12));
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(Grid2D::<f32>::zeros(0, 3).is_err());
        assert!(Grid2D::<f32>::zeros(3, 0).is_err());
        assert!(Grid3D::<f64>::zeros(1, 0, 1).is_err());
    }

    #[test]
    fn from_fn_layout_2d() {
        let g = Grid2D::from_fn(3, 2, |x, y| (10 * y + x) as f32).unwrap();
        // Row-major: y=0 row first.
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(g.get(2, 1), 12.0);
        assert_eq!(g.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_fn_layout_3d() {
        let g = Grid3D::from_fn(2, 2, 2, |x, y, z| (100 * z + 10 * y + x) as f64).unwrap();
        assert_eq!(
            g.as_slice(),
            &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
        assert_eq!(g.get(1, 1, 1), 111.0);
        assert_eq!(g.plane(1), &[100.0, 101.0, 110.0, 111.0]);
    }

    #[test]
    fn clamped_access_2d() {
        let g = Grid2D::from_fn(3, 3, |x, y| (10 * y + x) as f32).unwrap();
        assert_eq!(g.get_clamped(-2, 0), g.get(0, 0));
        assert_eq!(g.get_clamped(5, 1), g.get(2, 1));
        assert_eq!(g.get_clamped(1, -1), g.get(1, 0));
        assert_eq!(g.get_clamped(1, 9), g.get(1, 2));
        assert_eq!(g.get_clamped(1, 1), g.get(1, 1));
    }

    #[test]
    fn clamped_access_3d_corners() {
        let g = Grid3D::from_fn(2, 2, 2, |x, y, z| (100 * z + 10 * y + x) as f32).unwrap();
        assert_eq!(g.get_clamped(-1, -1, -1), g.get(0, 0, 0));
        assert_eq!(g.get_clamped(7, 7, 7), g.get(1, 1, 1));
    }

    #[test]
    fn set_and_get() {
        let mut g = Grid2D::<f32>::zeros(4, 4).unwrap();
        g.set(2, 3, 7.5);
        assert_eq!(g.get(2, 3), 7.5);
        assert_eq!(g.as_slice()[3 * 4 + 2], 7.5);
    }

    #[test]
    fn swap_exchanges_data() {
        let mut a = Grid2D::<f32>::filled(2, 2, 1.0).unwrap();
        let mut b = Grid2D::<f32>::filled(2, 2, 2.0).unwrap();
        a.swap(&mut b);
        assert!(a.as_slice().iter().all(|&v| v == 2.0));
        assert!(b.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn swap_shape_mismatch_panics() {
        let mut a = Grid2D::<f32>::zeros(2, 2).unwrap();
        let mut b = Grid2D::<f32>::zeros(2, 3).unwrap();
        a.swap(&mut b);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut g = Grid2D::<f64>::zeros(3, 2).unwrap();
        g.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(2, 1), 3.0);
        assert_eq!(g.get(0, 0), 0.0);
    }

    #[test]
    fn read_row_clamped_matches_get_clamped() {
        let g = Grid2D::from_fn(5, 4, |x, y| (10 * y + x) as f32).unwrap();
        for y in -2..6isize {
            for x0 in -7..8isize {
                let mut out = vec![0.0f32; 6];
                g.read_row_clamped(y, x0, &mut out);
                for (j, &v) in out.iter().enumerate() {
                    assert_eq!(v, g.get_clamped(x0 + j as isize, y), "y {y} x0 {x0} j {j}");
                }
            }
        }
    }

    #[test]
    fn read_row_clamped_fully_off_grid() {
        let g = Grid2D::from_fn(3, 1, |x, _| x as f32).unwrap();
        let mut out = vec![9.0f32; 2];
        g.read_row_clamped(0, -5, &mut out);
        assert_eq!(out, [0.0, 0.0]);
        g.read_row_clamped(0, 7, &mut out);
        assert_eq!(out, [2.0, 2.0]);
    }

    #[test]
    fn column_blocks_partition_and_write_through() {
        let mut g = Grid2D::<f32>::zeros(7, 3).unwrap();
        {
            let mut blocks = g.column_blocks(&[0, 3, 7]);
            assert_eq!(blocks.len(), 2);
            assert_eq!(blocks[0].len(), 3);
            assert_eq!(blocks[0][0].len(), 3);
            assert_eq!(blocks[1][2].len(), 4);
            for (b, strip) in blocks.iter_mut().enumerate() {
                for (y, seg) in strip.iter_mut().enumerate() {
                    seg.fill((10 * b + y) as f32);
                }
            }
        }
        assert_eq!(g.get(2, 1), 1.0);
        assert_eq!(g.get(3, 1), 11.0);
        assert_eq!(g.get(6, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn column_blocks_bad_bounds_panic() {
        let mut g = Grid2D::<f32>::zeros(4, 2).unwrap();
        let _ = g.column_blocks(&[0, 2, 2, 4]);
    }

    #[test]
    fn read_plane_clamped_matches_get_clamped() {
        let g = Grid3D::from_fn(4, 3, 2, |x, y, z| (100 * z + 10 * y + x) as f32).unwrap();
        let (width, height) = (6usize, 5usize);
        for z in -1..3isize {
            let mut out = vec![0.0f32; width * height];
            g.read_plane_clamped(z, -1, -1, width, &mut out);
            for i in 0..height {
                for j in 0..width {
                    assert_eq!(
                        out[i * width + j],
                        g.get_clamped(j as isize - 1, i as isize - 1, z),
                        "z {z} i {i} j {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_blocks_partition_and_write_through() {
        let mut g = Grid3D::<f32>::zeros(5, 4, 2).unwrap();
        {
            let mut blocks = g.tile_blocks(&[0, 2, 5], &[0, 3, 4]);
            assert_eq!(blocks.len(), 4);
            // Block (bx=1, by=0): columns 2..5 of rows 0..3, both planes.
            let strip = &mut blocks[1];
            assert_eq!(strip.len(), 2 * 3);
            for seg in strip.iter_mut() {
                assert_eq!(seg.len(), 3);
                seg.fill(7.0);
            }
        }
        for z in 0..2 {
            for y in 0..4 {
                for x in 0..5 {
                    let expect = if x >= 2 && y < 3 { 7.0 } else { 0.0 };
                    assert_eq!(g.get(x, y, z), expect, "({x},{y},{z})");
                }
            }
        }
    }
}
