//! Runtime kernel specializer: lowers a [`KernelDesc`] into the vectorized
//! row kernel every engine runs, without a textual JIT.
//!
//! The paper's processing element is one parameterised datapath: `parvec`
//! lanes over the fully unrolled taps of the stencil. This module is its
//! CPU analogue and the only vectorized row kernel in the workspace: star
//! stencils are lowered with [`KernelDesc::from_star_2d`] /
//! [`KernelDesc::from_star_3d`] and run through it like any other desc. The
//! row loop is monomorphized per lane width `W ∈ {1, 2, 4, 8}` over a
//! portable-SIMD value type ([`Lanes`]) and selected through a fn pointer,
//! so "compilation" is pure data preparation (tap planning + table lookup):
//! offline-safe, no codegen, a few microseconds per desc, and cacheable by
//! [`KernelDesc::stable_hash`].
//!
//! # Execution model
//!
//! A kernel updates one output row from a *window*: `src[rad + d]` is the
//! row (2D) or plane (3D) a tap at `dy = d` (2D) or `dz = d` (3D) reads, and
//! in 3D `yoff[rad + dy]` is the offset of the row a `dy` tap reads inside
//! its plane (2D windows pass `yoff = [0]`). The caller resolves the
//! boundary condition while building the window, once per row, so every
//! row — border rows included — runs the vectorized loop
//! ([`CompiledKernel::run_row`]) over its x-interior. Only the cells whose
//! x taps leave the row take [`CompiledKernel::eval_cell`], with one
//! resolved column index per x offset. The `step_row` helpers build these
//! windows for grid-resident execution; the streaming PEs of `fpga-sim`
//! build them from their shift registers.
//!
//! The row loop is register-blocked: a strip of `STRIP` (4) `W`-lane
//! accumulators stays in registers while the taps stream past it, so each
//! tap's metadata is read once per strip. A span's last strip overlaps the
//! one before it and recomputes identical cells; spans shorter than a strip
//! take `W`-wide steps, then scalar cells.
//!
//! # Bit-exactness
//!
//! Per cell, every path — strip, single vector, scalar cell, border cell —
//! evaluates the identical expression in desc-tap order: first term a
//! multiply, then one separate multiply + add per tap. A hardware fused
//! multiply-add would round once instead of twice, so the kernels never
//! call an `fma` intrinsic and Rust never contracts float expressions on
//! its own. Lanes are cells and nothing crosses lanes, so the compiled
//! kernels are bit-identical to the frozen interpreter
//! ([`crate::kernel_ir::reference_run_2d`]) for *every* desc, and to
//! `exec`/`serial_ref` for star/clamp descs.

use crate::blocking::Dim;
use crate::error::StencilError;
use crate::grid::{Grid2D, Grid3D};
use crate::kernel_ir::{BoundaryCond, KernelClass, KernelDesc, MAX_KERNEL_RADIUS};
use crate::real::Real;
use crate::stencil::{Stencil2D, Stencil3D};

/// Rows (2D) or planes (3D) in a kernel's source window: `2·rad + 1` at the
/// largest supported radius.
pub const MAX_WINDOW: usize = 2 * MAX_KERNEL_RADIUS + 1;

/// `W`-lane accumulators the row loop keeps in registers per strip.
const STRIP: usize = 4;

/// A register of `W` cells processed in lockstep — a portable stand-in for
/// one SIMD vector, written so LLVM autovectorizes the per-lane loops.
///
/// All operations are element-wise; nothing ever crosses lanes, which is
/// what preserves the canonical per-cell operation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<T, const W: usize>([T; W]);

impl<T: Real, const W: usize> Lanes<T, W> {
    /// Broadcasts one value into every lane.
    #[inline(always)]
    pub fn splat(v: T) -> Self {
        Self([v; W])
    }

    /// Loads the first `W` cells of `src`.
    ///
    /// # Panics
    /// Panics when `src` holds fewer than `W` cells.
    #[inline(always)]
    pub fn load(src: &[T]) -> Self {
        let arr: &[T; W] = src[..W].try_into().expect("load needs W cells");
        Self(*arr)
    }

    /// Stores all lanes into the first `W` cells of `dst`.
    ///
    /// # Panics
    /// Panics when `dst` holds fewer than `W` cells.
    #[inline(always)]
    pub fn store(self, dst: &mut [T]) {
        let arr: &mut [T; W] = (&mut dst[..W]).try_into().expect("store needs W cells");
        *arr = self.0;
    }

    /// `coeff · lane` for every lane — the first term of a cell update.
    #[inline(always)]
    pub fn mul_coeff(self, coeff: T) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v = coeff * *v;
        }
        Self(out)
    }

    /// `lane += coeff · tap` for every lane — one accumulation step,
    /// deliberately a separate multiply then add (see module docs).
    #[inline(always)]
    pub fn add_scaled(&mut self, coeff: T, taps: Self) {
        for (acc, tap) in self.0.iter_mut().zip(taps.0) {
            *acc += coeff * tap;
        }
    }

    /// The lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [T; W] {
        self.0
    }
}

/// A tap with its coefficient converted to execution precision and its
/// window slots precomputed.
#[derive(Debug, Clone, Copy)]
struct Planned<T> {
    /// Window slot of the source: `rad + dy` (2D) or `rad + dz` (3D).
    src: usize,
    /// Row-offset slot: `rad + dy` (3D) or 0 (2D).
    row: usize,
    /// Slot in a border cell's column table: `rad + dx`.
    col: usize,
    dx: isize,
    coeff: T,
}

type RowFn<T> = fn(&[Planned<T>], &[&[T]], &[usize], &mut [T], usize, usize);

/// `N` consecutive `W`-lane vectors of cells starting at `x`, one
/// accumulator register each, with the taps streamed past them in desc
/// order. `block::<T, D, 1, 1>` is the scalar cell update.
#[inline(always)]
fn block<T: Real, const D: usize, const W: usize, const N: usize>(
    taps: &[Planned<T>],
    src: &[&[T]],
    yoff: &[usize],
    dst: &mut [T],
    x: usize,
) {
    let cells = |t: &Planned<T>| {
        let row = if D == 2 { 0 } else { yoff[t.row] };
        let at = (row + x).wrapping_add_signed(t.dx);
        &src[t.src][at..at + N * W]
    };
    let (first, rest) = taps.split_first().expect("center tap");
    let c = cells(first);
    let mut acc: [Lanes<T, W>; N] =
        std::array::from_fn(|s| Lanes::load(&c[s * W..]).mul_coeff(first.coeff));
    for t in rest {
        let c = cells(t);
        for (s, a) in acc.iter_mut().enumerate() {
            a.add_scaled(t.coeff, Lanes::load(&c[s * W..]));
        }
    }
    let d = &mut dst[x..x + N * W];
    for (s, a) in acc.into_iter().enumerate() {
        a.store(&mut d[s * W..]);
    }
}

/// The row loop monomorphized at lane width `W`: strips of `STRIP`
/// vectors (the last one overlapping its predecessor), or, for spans
/// shorter than a strip, single vectors and then scalar cells.
fn row_fn<T: Real, const D: usize, const W: usize>(
    taps: &[Planned<T>],
    src: &[&[T]],
    yoff: &[usize],
    dst: &mut [T],
    x0: usize,
    x1: usize,
) {
    let strip = STRIP * W;
    let mut x = x0;
    if x1 - x0 >= strip {
        while x < x1 {
            let xs = x.min(x1 - strip);
            block::<T, D, W, STRIP>(taps, src, yoff, dst, xs);
            x = xs + strip;
        }
        return;
    }
    while x + W <= x1 {
        block::<T, D, W, 1>(taps, src, yoff, dst, x);
        x += W;
    }
    for x in x..x1 {
        block::<T, D, 1, 1>(taps, src, yoff, dst, x);
    }
}

/// The lane width a kernel runs at: the widest implemented width (8, 4, 2
/// or 1) not above the requested one.
fn lane_width(requested: usize) -> usize {
    [8, 4, 2].into_iter().find(|&w| w <= requested).unwrap_or(1)
}

/// A kernel lowered from a [`KernelDesc`] at a fixed lane width; `D` is its
/// dimensionality (see [`CompiledKernel2D`] and [`CompiledKernel3D`]).
#[derive(Debug, Clone)]
pub struct CompiledKernel<T, const D: usize> {
    desc: KernelDesc,
    rad: usize,
    taps: Vec<Planned<T>>,
    row_fn: RowFn<T>,
    lanes: usize,
}

/// A 2D kernel lowered from a [`KernelDesc`] ([`compile_2d`]).
pub type CompiledKernel2D<T> = CompiledKernel<T, 2>;

/// A 3D kernel lowered from a [`KernelDesc`] ([`compile_3d`]). Its window
/// is `2·rad + 1` whole planes plus per-row offsets, which admits corner
/// taps (`dy ≠ 0` and `dz ≠ 0`).
pub type CompiledKernel3D<T> = CompiledKernel<T, 3>;

fn lower<T: Real, const D: usize>(
    desc: &KernelDesc,
    lanes: usize,
) -> Result<CompiledKernel<T, D>, StencilError> {
    desc.validate()?;
    let (dim, reason) = match D {
        2 => (Dim::D2, "compile_2d needs a 2D kernel desc"),
        _ => (Dim::D3, "compile_3d needs a 3D kernel desc"),
    };
    if desc.dim != dim {
        return Err(StencilError::InvalidConfig {
            reason: reason.into(),
        });
    }
    let rad = desc.radius();
    let slot = |d: i32| (rad as i32 + d) as usize;
    let taps = desc
        .taps
        .iter()
        .map(|t| Planned {
            src: slot(if D == 2 { t.dy } else { t.dz }),
            row: if D == 2 { 0 } else { slot(t.dy) },
            col: slot(t.dx),
            dx: t.dx as isize,
            coeff: T::from_f64(t.coeff),
        })
        .collect();
    let lanes = lane_width(lanes);
    let row_fn = match lanes {
        8 => row_fn::<T, D, 8> as RowFn<T>,
        4 => row_fn::<T, D, 4>,
        2 => row_fn::<T, D, 2>,
        _ => row_fn::<T, D, 1>,
    };
    Ok(CompiledKernel {
        desc: desc.clone(),
        rad,
        taps,
        row_fn,
        lanes,
    })
}

/// Lowers a 2D desc at the widest implemented lane width not above `lanes`
/// (8, 4, 2 or 1: 16 runs at 8, 3 at 2). This is data preparation, not
/// codegen — a few microseconds, cacheable by [`KernelDesc::stable_hash`].
///
/// # Errors
/// Returns [`StencilError`] when the desc is invalid or not 2D.
pub fn compile_2d<T: Real>(
    desc: &KernelDesc,
    lanes: usize,
) -> Result<CompiledKernel2D<T>, StencilError> {
    lower(desc, lanes)
}

/// Lowers a 3D desc (see [`compile_2d`] for the lane rule).
///
/// # Errors
/// Returns [`StencilError`] when the desc is invalid or not 3D.
pub fn compile_3d<T: Real>(
    desc: &KernelDesc,
    lanes: usize,
) -> Result<CompiledKernel3D<T>, StencilError> {
    lower(desc, lanes)
}

/// Lowers a star stencil to its clamp-boundary desc
/// ([`KernelDesc::from_star_2d`]) and compiles it at `lanes` — the kernel
/// every engine runs for the paper's stencils.
///
/// # Panics
/// Panics when the stencil does not lower to a valid desc: a radius above
/// [`MAX_KERNEL_RADIUS`] or a non-finite coefficient.
pub fn compile_star_2d<T: Real>(st: &Stencil2D<T>, lanes: usize) -> CompiledKernel2D<T> {
    compile_2d(&KernelDesc::from_star_2d(st, BoundaryCond::Clamp), lanes)
        .expect("star stencil lowers to a valid clamp desc")
}

/// Lowers a 3D star stencil to its clamp-boundary desc and compiles it (see
/// [`compile_star_2d`]).
///
/// # Panics
/// Panics when the stencil does not lower to a valid desc.
pub fn compile_star_3d<T: Real>(st: &Stencil3D<T>, lanes: usize) -> CompiledKernel3D<T> {
    compile_3d(&KernelDesc::from_star_3d(st, BoundaryCond::Clamp), lanes)
        .expect("star stencil lowers to a valid clamp desc")
}

impl<T: Real, const D: usize> CompiledKernel<T, D> {
    /// The desc this kernel was lowered from.
    pub fn desc(&self) -> &KernelDesc {
        &self.desc
    }

    /// Kernel radius.
    pub fn radius(&self) -> usize {
        self.rad
    }

    /// Lane width the kernel runs at (1 = scalar).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Structural class of the underlying desc.
    pub fn class(&self) -> KernelClass {
        self.desc.class()
    }

    /// Updates cells `x0..x1` of one output row from its window (see the
    /// module docs): `src` holds `2·rad + 1` rows or planes, `yoff` the
    /// row offsets (`[0]` in 2D, `2·rad + 1` of them in 3D). Every x tap
    /// must stay inside its row: `x0 ≥ rad` and `x1 + rad` at most the row's
    /// end.
    ///
    /// # Panics
    /// Panics when the window or span preconditions are violated.
    #[inline]
    pub fn run_row(&self, src: &[&[T]], yoff: &[usize], dst: &mut [T], x0: usize, x1: usize) {
        if x0 >= x1 {
            return;
        }
        assert_eq!(src.len(), 2 * self.rad + 1, "window height");
        assert!(x0 >= self.rad, "x0 inside the left halo");
        assert!(x1 <= dst.len(), "dst too short");
        (self.row_fn)(&self.taps, src, yoff, dst, x0, x1);
    }

    /// Evaluates one cell whose x taps may leave its row — the border
    /// path. `xi[rad + dx]` is the resolved column a `dx` tap reads; the
    /// window is as for [`Self::run_row`]. Identical expression and order
    /// as the vectorized path.
    #[inline]
    pub fn eval_cell(&self, src: &[&[T]], yoff: &[usize], xi: &[usize]) -> T {
        let read = |t: &Planned<T>| src[t.src][yoff[t.row] + xi[t.col]];
        let (first, rest) = self.taps.split_first().expect("center tap");
        let mut acc = first.coeff * read(first);
        for t in rest {
            acc += t.coeff * read(t);
        }
        acc
    }

    /// Computes one full output row from its window: the vectorized
    /// x-interior, then the border cells with columns resolved through the
    /// desc's boundary condition.
    fn step_window(&self, src: &[&[T]], yoff: &[usize], dst: &mut [T]) {
        let (nx, rad) = (dst.len(), self.rad);
        let bc = self.desc.boundary;
        let lo = rad.min(nx);
        let hi = nx.saturating_sub(rad).max(lo);
        self.run_row(src, yoff, dst, lo, hi);
        let mut xi = [0usize; MAX_WINDOW];
        for x in (0..lo).chain(hi..nx) {
            for (k, v) in xi[..2 * rad + 1].iter_mut().enumerate() {
                *v = bc.resolve(x as i64 + k as i64 - rad as i64, nx as i64);
            }
            dst[x] = self.eval_cell(src, yoff, &xi[..2 * rad + 1]);
        }
    }
}

impl<T: Real> CompiledKernel<T, 2> {
    /// Computes output row `y` of a grid-resident step, rows resolved
    /// through the desc's boundary condition. The unit the parallel engines
    /// fan out over (`dst_row` rows of a scratch grid are disjoint).
    ///
    /// # Panics
    /// Panics when `dst_row` is not `src.nx()` long or `y` is out of range.
    pub fn step_row(&self, src: &Grid2D<T>, y: usize, dst_row: &mut [T]) {
        let (nx, ny) = (src.nx(), src.ny());
        assert_eq!(dst_row.len(), nx, "dst row width");
        assert!(y < ny, "row out of range");
        let (rad, bc) = (self.rad, self.desc.boundary);
        let mut rows: [&[T]; MAX_WINDOW] = [src.row(0); MAX_WINDOW];
        for (k, slot) in rows[..2 * rad + 1].iter_mut().enumerate() {
            *slot = src.row(bc.resolve(y as i64 + k as i64 - rad as i64, ny as i64));
        }
        self.step_window(&rows[..2 * rad + 1], &[0], dst_row);
    }

    /// One whole grid step ([`Self::step_row`] over every row).
    ///
    /// # Panics
    /// Panics when `src` and `dst` differ in shape.
    pub fn step_grid(&self, src: &Grid2D<T>, dst: &mut Grid2D<T>) {
        assert_eq!((src.nx(), src.ny()), (dst.nx(), dst.ny()), "shape mismatch");
        for y in 0..src.ny() {
            self.step_row(src, y, dst.row_mut(y));
        }
    }

    /// Runs `iters` grid steps serially (ping-pong buffers).
    pub fn run(&self, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
        let mut src = grid.clone();
        let mut dst = grid.clone();
        for _ in 0..iters {
            self.step_grid(&src, &mut dst);
            src.swap(&mut dst);
        }
        src
    }
}

impl<T: Real> CompiledKernel<T, 3> {
    /// Computes output row `(y, z)` of a grid-resident step, planes and
    /// rows resolved through the desc's boundary condition.
    ///
    /// # Panics
    /// Panics when `dst_row` is not `src.nx()` long or `(y, z)` is out of
    /// range.
    pub fn step_row(&self, src: &Grid3D<T>, y: usize, z: usize, dst_row: &mut [T]) {
        let (nx, ny, nz) = (src.nx(), src.ny(), src.nz());
        assert_eq!(dst_row.len(), nx, "dst row width");
        assert!(y < ny && z < nz, "row out of range");
        let (rad, bc) = (self.rad, self.desc.boundary);
        let mut planes: [&[T]; MAX_WINDOW] = [src.plane(0); MAX_WINDOW];
        let mut yoff = [0usize; MAX_WINDOW];
        for k in 0..2 * rad + 1 {
            let d = k as i64 - rad as i64;
            planes[k] = src.plane(bc.resolve(z as i64 + d, nz as i64));
            yoff[k] = bc.resolve(y as i64 + d, ny as i64) * nx;
        }
        self.step_window(&planes[..2 * rad + 1], &yoff[..2 * rad + 1], dst_row);
    }

    /// One whole grid step ([`Self::step_row`] over every row of every
    /// plane).
    ///
    /// # Panics
    /// Panics when `src` and `dst` differ in shape.
    pub fn step_grid(&self, src: &Grid3D<T>, dst: &mut Grid3D<T>) {
        assert_eq!(
            (src.nx(), src.ny(), src.nz()),
            (dst.nx(), dst.ny(), dst.nz()),
            "shape mismatch"
        );
        let nx = src.nx();
        for z in 0..src.nz() {
            for y in 0..src.ny() {
                let row = &mut dst.plane_mut(z)[y * nx..(y + 1) * nx];
                self.step_row(src, y, z, row);
            }
        }
    }

    /// Runs `iters` grid steps serially (ping-pong buffers).
    pub fn run(&self, grid: &Grid3D<T>, iters: usize) -> Grid3D<T> {
        let mut src = grid.clone();
        let mut dst = grid.clone();
        for _ in 0..iters {
            self.step_grid(&src, &mut dst);
            src.swap(&mut dst);
        }
        src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::kernel_ir::{reference_run_2d, reference_run_3d};

    fn grid_2d(nx: usize, ny: usize) -> Grid2D<f32> {
        Grid2D::from_fn(nx, ny, |x, y| ((x * 31 + y * 17) % 103) as f32 - 51.0).unwrap()
    }

    fn grid_3d(nx: usize, ny: usize, nz: usize) -> Grid3D<f32> {
        Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x + 3 * y + 7 * z) % 53) as f32 - 26.0
        })
        .unwrap()
    }

    #[test]
    fn every_lane_width_matches_reference_2d() {
        for bc in BoundaryCond::ALL {
            for rad in [1usize, 2, 3] {
                let desc = KernelDesc::box_2d(rad, 11 + rad as u64, bc).unwrap();
                let grid = grid_2d(37, 9);
                let expect = reference_run_2d::<f32>(&desc, &grid, 3);
                for lanes in [1usize, 2, 4, 8] {
                    let k = compile_2d::<f32>(&desc, lanes).unwrap();
                    assert_eq!(k.lanes(), lanes);
                    assert_eq!(k.run(&grid, 3), expect, "{bc} rad {rad} lanes {lanes}");
                }
            }
        }
    }

    #[test]
    fn every_lane_width_matches_reference_3d() {
        for bc in BoundaryCond::ALL {
            let desc = KernelDesc::box_3d(2, 5, bc).unwrap();
            let grid = grid_3d(13, 9, 7);
            let expect = reference_run_3d::<f32>(&desc, &grid, 2);
            for lanes in [1usize, 2, 4, 8] {
                let k = compile_3d::<f32>(&desc, lanes).unwrap();
                assert_eq!(k.run(&grid, 2), expect, "{bc} lanes {lanes}");
            }
        }
    }

    #[test]
    fn star_clamp_matches_serial_oracle() {
        for rad in 1..=4 {
            let seed = 60 + rad as u64;
            let st = Stencil2D::<f32>::random(rad, seed).unwrap();
            let desc = KernelDesc::star_2d(rad, seed, BoundaryCond::Clamp).unwrap();
            let k = compile_2d::<f32>(&desc, 8).unwrap();
            let grid = grid_2d(41, 12);
            assert_eq!(k.run(&grid, 4), exec::run_2d(&st, &grid, 4), "rad {rad}");
        }
        let st = Stencil3D::<f32>::random(2, 71).unwrap();
        let desc = KernelDesc::star_3d(2, 71, BoundaryCond::Clamp).unwrap();
        let k = compile_3d::<f32>(&desc, 8).unwrap();
        let grid = grid_3d(11, 10, 6);
        assert_eq!(k.run(&grid, 3), exec::run_3d(&st, &grid, 3));
    }

    #[test]
    fn run_row_spans_of_every_length_match_reference() {
        // Spans shorter than one strip (single vectors, scalar tails), whole
        // strips, and ragged spans whose last strip overlaps its
        // predecessor, at every lane width.
        let rad = 3;
        let desc = KernelDesc::asymmetric_2d(rad, 19, BoundaryCond::Clamp).unwrap();
        let grid = grid_2d(90, 2 * rad + 1);
        let expect = reference_run_2d::<f32>(&desc, &grid, 1);
        let rows: Vec<&[f32]> = (0..2 * rad + 1).map(|y| grid.row(y)).collect();
        for lanes in [1usize, 2, 4, 8] {
            let k = compile_2d::<f32>(&desc, lanes).unwrap();
            for x0 in [rad, rad + 5] {
                for len in 0..=(90 - 2 * rad - 5) {
                    let mut got = vec![f32::NAN; 90];
                    k.run_row(&rows, &[0], &mut got, x0, x0 + len);
                    let span = x0..x0 + len;
                    assert_eq!(got[span.clone()], expect.row(rad)[span], "lanes {lanes}");
                    assert!(got[..x0].iter().all(|v| v.is_nan()), "wrote left of x0");
                    assert!(got[x0 + len..].iter().all(|v| v.is_nan()), "wrote past x1");
                }
            }
        }
    }

    #[test]
    fn degenerate_narrow_grids() {
        // Grids narrower than the radius: the whole row is border cells.
        for bc in BoundaryCond::ALL {
            let desc = KernelDesc::box_2d(3, 9, bc).unwrap();
            let k = compile_2d::<f32>(&desc, 8).unwrap();
            for (nx, ny) in [(1, 1), (2, 9), (5, 2), (7, 3)] {
                let grid = grid_2d(nx, ny);
                assert_eq!(
                    k.run(&grid, 2),
                    reference_run_2d::<f32>(&desc, &grid, 2),
                    "{bc} {nx}x{ny}"
                );
            }
            let desc3 = KernelDesc::asymmetric_3d(2, 9, bc).unwrap();
            let k3 = compile_3d::<f32>(&desc3, 4).unwrap();
            for (nx, ny, nz) in [(1, 1, 1), (3, 2, 5), (9, 1, 2)] {
                let grid = grid_3d(nx, ny, nz);
                assert_eq!(
                    k3.run(&grid, 2),
                    reference_run_3d::<f32>(&desc3, &grid, 2),
                    "{bc} {nx}x{ny}x{nz}"
                );
            }
        }
    }

    #[test]
    fn wrong_dim_and_invalid_descs_rejected() {
        let d2 = KernelDesc::box_2d(1, 1, BoundaryCond::Clamp).unwrap();
        let d3 = KernelDesc::box_3d(1, 1, BoundaryCond::Clamp).unwrap();
        assert!(compile_3d::<f32>(&d2, 8).is_err());
        assert!(compile_2d::<f32>(&d3, 8).is_err());
        let bad = KernelDesc {
            dim: Dim::D2,
            taps: vec![],
            boundary: BoundaryCond::Clamp,
        };
        assert!(compile_2d::<f32>(&bad, 8).is_err());
    }

    #[test]
    fn lane_rule_takes_the_widest_implemented_width() {
        let d = KernelDesc::box_2d(1, 1, BoundaryCond::Clamp).unwrap();
        let d3 = KernelDesc::box_3d(1, 1, BoundaryCond::Clamp).unwrap();
        for (requested, runs) in [
            (16, 8),
            (9, 8),
            (8, 8),
            (5, 4),
            (3, 2),
            (2, 2),
            (1, 1),
            (0, 1),
        ] {
            assert_eq!(compile_2d::<f32>(&d, requested).unwrap().lanes(), runs);
            assert_eq!(compile_3d::<f32>(&d3, requested).unwrap().lanes(), runs);
        }
    }

    #[test]
    fn lanes_ops_are_elementwise() {
        let a = Lanes::<f64, 4>::load(&[1.0, 2.0, 3.0, 4.0]);
        let mut acc = a.mul_coeff(0.5);
        assert_eq!(acc.to_array(), [0.5, 1.0, 1.5, 2.0]);
        acc.add_scaled(2.0, Lanes::splat(1.0));
        assert_eq!(acc.to_array(), [2.5, 3.0, 3.5, 4.0]);
        let mut out = [0.0f64; 4];
        acc.store(&mut out);
        assert_eq!(out, [2.5, 3.0, 3.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "x0 inside the left halo")]
    fn taps_left_of_the_row_panic() {
        let desc = KernelDesc::box_2d(2, 1, BoundaryCond::Clamp).unwrap();
        let k = compile_2d::<f32>(&desc, 4).unwrap();
        let row = vec![0.0f32; 8];
        let rows: Vec<&[f32]> = vec![&row; 5];
        let mut dst = vec![0.0f32; 8];
        k.run_row(&rows, &[0], &mut dst, 1, 6);
    }
}
