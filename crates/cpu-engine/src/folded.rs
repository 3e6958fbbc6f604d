//! Vector folding — the technique behind YASK (Yount \[13\]).
//!
//! Instead of laying SIMD vectors out as `1 × N` runs along x, YASK stores
//! small multi-dimensional *folds* (e.g. `4 × 4` cells) contiguously. A
//! high-order star stencil then touches far fewer distinct vector blocks per
//! fold update, cutting loads on wide-vector machines. This module provides
//!
//! * [`distinct_blocks_touched`] — the analytical count that motivates the
//!   technique (Yount's Table 1 argument), testable without hardware;
//! * [`FoldedGrid2D`] — a fold-major storage layout;
//! * [`folded_run_2d`] — a stencil engine over that layout, **bit-exact**
//!   with the oracle (folding permutes memory, never arithmetic).

use stencil_core::{Grid2D, Real, Stencil2D};

/// Number of distinct `fold_x × fold_y` blocks a radius-`rad` 2D star
/// stencil touches when updating one whole fold.
///
/// # Panics
/// Panics when any argument is zero.
pub fn distinct_blocks_touched(rad: usize, fold_x: usize, fold_y: usize) -> usize {
    assert!(rad > 0 && fold_x > 0 && fold_y > 0);
    let mut blocks = std::collections::BTreeSet::new();
    let (fx, fy) = (fold_x as isize, fold_y as isize);
    for j in 0..fy {
        for i in 0..fx {
            let mut visit = |x: isize, y: isize| {
                blocks.insert((x.div_euclid(fx), y.div_euclid(fy)));
            };
            visit(i, j);
            for d in 1..=rad as isize {
                visit(i - d, j);
                visit(i + d, j);
                visit(i, j - d);
                visit(i, j + d);
            }
        }
    }
    blocks.len()
}

/// A 2D grid stored fold-major: the grid is padded to whole `FOLD_X × FOLD_Y`
/// tiles and each tile's 16 cells are contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedGrid2D<T> {
    nx: usize,
    ny: usize,
    tiles_x: usize,
    tiles_y: usize,
    data: Vec<T>,
}

/// Fold width (cells along x per tile).
pub const FOLD_X: usize = 4;
/// Fold height (cells along y per tile).
pub const FOLD_Y: usize = 4;

impl<T: Real> FoldedGrid2D<T> {
    /// Converts a row-major grid into fold-major layout; padding cells
    /// replicate the border (clamp), so folded reads never need bounds
    /// branches inside a tile.
    pub fn from_grid(g: &Grid2D<T>) -> Self {
        let (nx, ny) = (g.nx(), g.ny());
        let tiles_x = nx.div_ceil(FOLD_X);
        let tiles_y = ny.div_ceil(FOLD_Y);
        let mut data = vec![T::ZERO; tiles_x * tiles_y * FOLD_X * FOLD_Y];
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                for fy in 0..FOLD_Y {
                    for fx in 0..FOLD_X {
                        let x = (tx * FOLD_X + fx).min(nx - 1);
                        let y = (ty * FOLD_Y + fy).min(ny - 1);
                        let i = ((ty * tiles_x + tx) * FOLD_Y + fy) * FOLD_X + fx;
                        data[i] = g.get(x, y);
                    }
                }
            }
        }
        Self {
            nx,
            ny,
            tiles_x,
            tiles_y,
            data,
        }
    }

    /// Converts back to row-major.
    pub fn to_grid(&self) -> Grid2D<T> {
        Grid2D::from_fn(self.nx, self.ny, |x, y| self.get(x, y)).expect("valid dims")
    }

    /// Logical width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Logical height.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Reads logical cell `(x, y)`.
    ///
    /// # Panics
    /// Debug-asserts bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.nx && y < self.ny);
        self.data[self.fold_index(x, y)]
    }

    /// Reads with coordinates clamped onto the grid (boundary condition).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let x = x.clamp(0, self.nx as isize - 1) as usize;
        let y = y.clamp(0, self.ny as isize - 1) as usize;
        self.data[self.fold_index(x, y)]
    }

    /// Writes logical cell `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.nx && y < self.ny);
        let i = self.fold_index(x, y);
        self.data[i] = v;
    }

    #[inline]
    fn fold_index(&self, x: usize, y: usize) -> usize {
        let (tx, fx) = (x / FOLD_X, x % FOLD_X);
        let (ty, fy) = (y / FOLD_Y, y % FOLD_Y);
        ((ty * self.tiles_x + tx) * FOLD_Y + fy) * FOLD_X + fx
    }
}

/// Runs `iters` steps over the folded layout, iterating fold-by-fold (the
/// YASK loop order). Bit-exact with the oracle: each cell still evaluates
/// Eq. (1) in the canonical order.
pub fn folded_run_2d<T: Real>(st: &Stencil2D<T>, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    let mut cur = FoldedGrid2D::from_grid(grid);
    let mut next = cur.clone();
    for _ in 0..iters {
        for ty in 0..cur.tiles_y {
            for tx in 0..cur.tiles_x {
                for fy in 0..FOLD_Y {
                    let y = ty * FOLD_Y + fy;
                    if y >= cur.ny {
                        continue;
                    }
                    for fx in 0..FOLD_X {
                        let x = tx * FOLD_X + fx;
                        if x >= cur.nx {
                            continue;
                        }
                        let (xi, yi) = (x as isize, y as isize);
                        let mut acc = st.center() * cur.get(x, y);
                        for (k, a) in st.arms().iter().enumerate() {
                            let d = (k + 1) as isize;
                            acc += a.west * cur.get_clamped(xi - d, yi);
                            acc += a.east * cur.get_clamped(xi + d, yi);
                            acc += a.south * cur.get_clamped(xi, yi - d);
                            acc += a.north * cur.get_clamped(xi, yi + d);
                        }
                        next.set(x, y, acc);
                    }
                }
            }
        }
        // Repair the clamp padding so the next step's tile-local reads of
        // padded cells stay consistent with the border.
        std::mem::swap(&mut cur, &mut next);
        repair_padding(&mut cur);
    }
    cur.to_grid()
}

/// Re-replicates border values into the padding cells of partial tiles.
fn repair_padding<T: Real>(g: &mut FoldedGrid2D<T>) {
    let (nx, ny) = (g.nx, g.ny);
    for ty in 0..g.tiles_y {
        for tx in 0..g.tiles_x {
            for fy in 0..FOLD_Y {
                for fx in 0..FOLD_X {
                    let x = tx * FOLD_X + fx;
                    let y = ty * FOLD_Y + fy;
                    if x >= nx || y >= ny {
                        let v = g.get(x.min(nx - 1), y.min(ny - 1));
                        let i = ((ty * g.tiles_x + tx) * FOLD_Y + fy) * FOLD_X + fx;
                        g.data[i] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    #[test]
    fn folding_reduces_blocks_touched_at_high_order() {
        // Yount's core claim: for a 16-lane vector, a 4x4 fold touches fewer
        // distinct memory blocks than a 16x1 vector for radius >= 2.
        for rad in 2..=8 {
            let folded = distinct_blocks_touched(rad, 4, 4);
            let flat = distinct_blocks_touched(rad, 16, 1);
            assert!(folded < flat, "rad {rad}: {folded} vs {flat}");
        }
    }

    #[test]
    fn radius_one_folding_is_a_wash_or_better() {
        let folded = distinct_blocks_touched(1, 4, 4);
        let flat = distinct_blocks_touched(1, 16, 1);
        assert!(folded <= flat, "{folded} vs {flat}");
    }

    #[test]
    fn blocks_touched_monotone_in_radius() {
        let mut prev = 0;
        for rad in 1..=6 {
            let b = distinct_blocks_touched(rad, 4, 4);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn layout_roundtrip() {
        let g = Grid2D::from_fn(19, 13, |x, y| (x * 100 + y) as f32).unwrap();
        let f = FoldedGrid2D::from_grid(&g);
        assert_eq!(f.to_grid(), g);
        assert_eq!(f.get(18, 12), g.get(18, 12));
        assert_eq!(f.get_clamped(-5, 40), g.get(0, 12));
    }

    #[test]
    fn folded_engine_matches_oracle_bit_exactly() {
        for rad in 1..=4 {
            let st = Stencil2D::<f32>::random(rad, 60 + rad as u64).unwrap();
            // Deliberately non-multiple-of-4 dims to exercise padding.
            let g = Grid2D::from_fn(37, 27, |x, y| ((x * 7 + y * 13) % 31) as f32).unwrap();
            let got = folded_run_2d(&st, &g, 5);
            let want = exec::run_2d(&st, &g, 5);
            assert_eq!(got, want, "rad {rad}");
        }
    }

    #[test]
    fn folded_engine_matches_oracle_on_square_grid() {
        let st = Stencil2D::<f32>::random(2, 88).unwrap();
        let g = Grid2D::from_fn(40, 40, |x, y| ((x + y * y) % 23) as f32).unwrap();
        assert_eq!(folded_run_2d(&st, &g, 3), exec::run_2d(&st, &g, 3));
    }
}

/// Number of distinct `fx × fy × fz` blocks a radius-`rad` 3D star stencil
/// touches when updating one whole fold.
///
/// # Panics
/// Panics when any argument is zero.
pub fn distinct_blocks_touched_3d(
    rad: usize,
    fold_x: usize,
    fold_y: usize,
    fold_z: usize,
) -> usize {
    assert!(rad > 0 && fold_x > 0 && fold_y > 0 && fold_z > 0);
    let mut blocks = std::collections::BTreeSet::new();
    let (fx, fy, fz) = (fold_x as isize, fold_y as isize, fold_z as isize);
    for k in 0..fz {
        for j in 0..fy {
            for i in 0..fx {
                let mut visit = |x: isize, y: isize, z: isize| {
                    blocks.insert((x.div_euclid(fx), y.div_euclid(fy), z.div_euclid(fz)));
                };
                visit(i, j, k);
                for d in 1..=rad as isize {
                    visit(i - d, j, k);
                    visit(i + d, j, k);
                    visit(i, j - d, k);
                    visit(i, j + d, k);
                    visit(i, j, k - d);
                    visit(i, j, k + d);
                }
            }
        }
    }
    blocks.len()
}

/// A 3D grid stored fold-major with a `4 × 2 × 2` fold (16 cells — one
/// 64-byte line of `f32`, YASK's AVX-512 shape).
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedGrid3D<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    tiles_x: usize,
    tiles_y: usize,
    tiles_z: usize,
    data: Vec<T>,
}

/// 3D fold extents.
pub const FOLD3_X: usize = 4;
/// 3D fold extents.
pub const FOLD3_Y: usize = 2;
/// 3D fold extents.
pub const FOLD3_Z: usize = 2;

impl<T: Real> FoldedGrid3D<T> {
    /// Converts a row-major 3D grid into fold-major layout (border-replicated
    /// padding in partial tiles).
    pub fn from_grid(g: &stencil_core::Grid3D<T>) -> Self {
        let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
        let (tx, ty, tz) = (
            nx.div_ceil(FOLD3_X),
            ny.div_ceil(FOLD3_Y),
            nz.div_ceil(FOLD3_Z),
        );
        let mut data = vec![T::ZERO; tx * ty * tz * FOLD3_X * FOLD3_Y * FOLD3_Z];
        let me = Self {
            nx,
            ny,
            nz,
            tiles_x: tx,
            tiles_y: ty,
            tiles_z: tz,
            data: Vec::new(),
        };
        for z in 0..tz * FOLD3_Z {
            for y in 0..ty * FOLD3_Y {
                for x in 0..tx * FOLD3_X {
                    let i = me.fold_index(x, y, z);
                    data[i] = g.get(x.min(nx - 1), y.min(ny - 1), z.min(nz - 1));
                }
            }
        }
        Self { data, ..me }
    }

    /// Converts back to row-major.
    pub fn to_grid(&self) -> stencil_core::Grid3D<T> {
        stencil_core::Grid3D::from_fn(self.nx, self.ny, self.nz, |x, y, z| {
            self.data[self.fold_index(x, y, z)]
        })
        .expect("valid dims")
    }

    /// Reads with coordinates clamped onto the grid.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize, z: isize) -> T {
        let x = x.clamp(0, self.nx as isize - 1) as usize;
        let y = y.clamp(0, self.ny as isize - 1) as usize;
        let z = z.clamp(0, self.nz as isize - 1) as usize;
        self.data[self.fold_index(x, y, z)]
    }

    #[inline]
    fn fold_index(&self, x: usize, y: usize, z: usize) -> usize {
        let (tx, fx) = (x / FOLD3_X, x % FOLD3_X);
        let (ty, fy) = (y / FOLD3_Y, y % FOLD3_Y);
        let (tz, fz) = (z / FOLD3_Z, z % FOLD3_Z);
        let tile = (tz * self.tiles_y + ty) * self.tiles_x + tx;
        ((tile * FOLD3_Z + fz) * FOLD3_Y + fy) * FOLD3_X + fx
    }
}

/// Runs `iters` steps over the 3D folded layout; bit-exact with the oracle.
pub fn folded_run_3d<T: Real>(
    st: &stencil_core::Stencil3D<T>,
    grid: &stencil_core::Grid3D<T>,
    iters: usize,
) -> stencil_core::Grid3D<T> {
    let mut cur = FoldedGrid3D::from_grid(grid);
    let mut scratch = grid.clone();
    for _ in 0..iters {
        for z in 0..cur.nz {
            for y in 0..cur.ny {
                for x in 0..cur.nx {
                    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                    let mut acc = st.center() * cur.get_clamped(xi, yi, zi);
                    for (k, a) in st.arms().iter().enumerate() {
                        let d = (k + 1) as isize;
                        acc += a.west * cur.get_clamped(xi - d, yi, zi);
                        acc += a.east * cur.get_clamped(xi + d, yi, zi);
                        acc += a.south * cur.get_clamped(xi, yi - d, zi);
                        acc += a.north * cur.get_clamped(xi, yi + d, zi);
                        acc += a.below * cur.get_clamped(xi, yi, zi - d);
                        acc += a.above * cur.get_clamped(xi, yi, zi + d);
                    }
                    scratch.set(x, y, z, acc);
                }
            }
        }
        cur = FoldedGrid3D::from_grid(&scratch);
    }
    cur.to_grid()
}

#[cfg(test)]
mod tests_3d {
    use super::*;
    use stencil_core::{exec, Grid3D, Stencil3D};

    #[test]
    fn folding_3d_reduces_blocks_touched() {
        // A 4x2x2 fold beats a 16x1x1 flat vector for 3D star stencils at
        // radius >= 2 and ties at radius 1 (Yount's Table 1 pattern).
        assert_eq!(
            distinct_blocks_touched_3d(1, 4, 2, 2),
            distinct_blocks_touched_3d(1, 16, 1, 1)
        );
        for rad in 2..=6 {
            let folded = distinct_blocks_touched_3d(rad, 4, 2, 2);
            let flat = distinct_blocks_touched_3d(rad, 16, 1, 1);
            assert!(folded < flat, "rad {rad}: {folded} vs {flat}");
        }
    }

    #[test]
    fn layout_roundtrip_3d() {
        let g = Grid3D::from_fn(9, 7, 5, |x, y, z| (100 * z + 10 * y + x) as f32).unwrap();
        let f = FoldedGrid3D::from_grid(&g);
        assert_eq!(f.to_grid(), g);
        assert_eq!(f.get_clamped(-3, 9, 2), g.get_clamped(-3, 9, 2));
    }

    #[test]
    fn folded_3d_engine_matches_oracle() {
        for rad in 1..=2 {
            let st = Stencil3D::<f32>::random(rad, 300 + rad as u64).unwrap();
            let g = Grid3D::from_fn(13, 11, 9, |x, y, z| ((x * 3 + y * 5 + z * 7) % 17) as f32)
                .unwrap();
            assert_eq!(
                folded_run_3d(&st, &g, 3),
                exec::run_3d(&st, &g, 3),
                "rad {rad}"
            );
        }
    }
}
