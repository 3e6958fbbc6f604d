//! Declarative stencil-kernel IR and its frozen reference interpreter.
//!
//! A [`KernelDesc`] describes an arbitrary stencil operator — tap offsets
//! with per-tap coefficients and a boundary condition — independent of any
//! execution strategy. It is the shared contract between three consumers:
//!
//! * the **runtime specializer** ([`crate::specialize`]), which lowers a
//!   desc into a vectorized row kernel from monomorphized building blocks;
//! * the **OpenCL code generator** (`opencl-codegen`), which emits the same
//!   boundary handling into kernel source so emission and execution agree;
//! * the **reference interpreter** ([`reference_step_2d`] /
//!   [`reference_run_2d`] and the 3D twins), the frozen oracle for the
//!   open-ended kernel space. `serial_ref` stays the oracle for the star
//!   subset; this interpreter is the oracle for everything else, and on
//!   star/clamp descs the two agree bit-for-bit.
//!
//! # Bit-exactness contract
//!
//! Every executor of a desc must evaluate, per cell,
//!
//! ```text
//! acc  = taps[0].coeff · v(taps[0])          // a multiply, never 0 + x
//! acc += taps[i].coeff · v(taps[i])          // i = 1.., in desc order
//! ```
//!
//! with a separate multiply and add per term (no FMA) and tap values read
//! through [`BoundaryCond::resolve`]. Starting with a multiply matters:
//! IEEE-754 `0.0 + (-0.0)` is `+0.0`, so an add-to-zero prologue would
//! diverge from this interpreter on negative-zero inputs. Descs are
//! validated center-first ([`KernelDesc::validate`]) so "first term" is
//! always the center tap, matching the star oracle's accumulation order.
//!
//! Do not optimize the interpreter in this module — like `serial_ref`, its
//! value is that it never changes.

use crate::blocking::Dim;
use crate::error::StencilError;
use crate::grid::{Grid2D, Grid3D};
use crate::real::Real;
use crate::stencil::{Stencil2D, Stencil3D};
use crate::util::SplitMix64;
use std::fmt;

/// Largest radius a [`KernelDesc`] may declare (matches the simulator's PE
/// shift-register ceiling).
pub const MAX_KERNEL_RADIUS: usize = 16;

/// Boundary condition applied when a tap falls outside the grid.
///
/// This is the shared IR both the OpenCL emitter and every executor resolve
/// indices through; Clamp is the paper's §III.B condition (and the only one
/// the star oracle implements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BoundaryCond {
    /// Out-of-range indices clamp to the nearest border cell (the paper's
    /// boundary condition; `serial_ref` compatible).
    Clamp,
    /// Indices wrap modulo the grid extent (torus topology).
    Periodic,
    /// Indices reflect off the border without repeating the edge cell
    /// (`-1 -> 0`, `n -> n-1`: the "symmetric" / half-sample convention).
    Reflective,
}

impl BoundaryCond {
    /// All conditions, in wire-format order.
    pub const ALL: [BoundaryCond; 3] = [
        BoundaryCond::Clamp,
        BoundaryCond::Periodic,
        BoundaryCond::Reflective,
    ];

    /// Resolves index `i` on an axis of extent `n > 0` to an in-range index.
    #[inline]
    pub fn resolve(self, i: i64, n: i64) -> usize {
        debug_assert!(n > 0, "empty axis");
        let r = match self {
            BoundaryCond::Clamp => i.clamp(0, n - 1),
            BoundaryCond::Periodic => i.rem_euclid(n),
            BoundaryCond::Reflective => {
                let p = 2 * n;
                let m = i.rem_euclid(p);
                if m < n {
                    m
                } else {
                    p - 1 - m
                }
            }
        };
        r as usize
    }

    /// Wire-format name (`clamp` / `periodic` / `reflective`).
    pub fn name(self) -> &'static str {
        match self {
            BoundaryCond::Clamp => "clamp",
            BoundaryCond::Periodic => "periodic",
            BoundaryCond::Reflective => "reflective",
        }
    }

    /// Parses a wire-format name.
    pub fn parse(s: &str) -> Option<BoundaryCond> {
        BoundaryCond::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl fmt::Display for BoundaryCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One tap: an offset from the updated cell and its coefficient.
///
/// Coefficients are carried as `f64` in the IR and converted once to the
/// execution precision at compile/interpret time (`T::from_f64`), so a desc
/// built from an `f64` draw and a stencil built from the same draw yield
/// identical `f32` coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapDesc {
    /// x offset.
    pub dx: i32,
    /// y offset.
    pub dy: i32,
    /// z offset (must be 0 for 2D descs).
    pub dz: i32,
    /// Coefficient.
    pub coeff: f64,
}

impl TapDesc {
    /// A tap at `(dx, dy, dz)` with coefficient `coeff`.
    pub fn new(dx: i32, dy: i32, dz: i32, coeff: f64) -> TapDesc {
        TapDesc { dx, dy, dz, coeff }
    }
}

/// Structural class of a kernel, the planner's coarse key component: star
/// descs share measured-rate entries with the legacy star path, box and
/// asymmetric descs get their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelClass {
    /// Center plus axis-aligned taps only (the paper's stencil family).
    Star,
    /// Every tap of the full `(2·rad + 1)^dim` neighborhood is present.
    Box,
    /// Anything else.
    Asymmetric,
}

impl KernelClass {
    /// Wire-format name (`star` / `box` / `asymmetric`).
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Star => "star",
            KernelClass::Box => "box",
            KernelClass::Asymmetric => "asymmetric",
        }
    }

    /// Parses a wire-format name.
    pub fn parse(s: &str) -> Option<KernelClass> {
        [KernelClass::Star, KernelClass::Box, KernelClass::Asymmetric]
            .into_iter()
            .find(|c| c.name() == s)
    }
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative stencil kernel: dimensionality, ordered tap list, boundary
/// condition. The tap order is part of the contract (it fixes the
/// accumulation order), so two descs with the same tap *set* but different
/// order are different kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// 2D or 3D.
    pub dim: Dim,
    /// Taps in accumulation order; `taps[0]` must be the center.
    pub taps: Vec<TapDesc>,
    /// Boundary condition for out-of-range taps.
    pub boundary: BoundaryCond,
}

impl KernelDesc {
    /// Validates the desc: center-first, no duplicate offsets, planar in
    /// 2D, radius in `1..=MAX_KERNEL_RADIUS`, finite coefficients.
    ///
    /// # Errors
    /// Returns [`StencilError`] naming the violated rule.
    pub fn validate(&self) -> Result<(), StencilError> {
        let bad = |reason: String| StencilError::InvalidConfig { reason };
        let first = self
            .taps
            .first()
            .ok_or_else(|| bad("kernel desc has no taps".into()))?;
        if (first.dx, first.dy, first.dz) != (0, 0, 0) {
            return Err(bad("kernel desc taps[0] must be the center tap".into()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.taps {
            if self.dim == Dim::D2 && t.dz != 0 {
                return Err(bad(format!("2D kernel desc has z tap offset {}", t.dz)));
            }
            if !t.coeff.is_finite() {
                return Err(bad(format!(
                    "non-finite coefficient at tap ({},{},{})",
                    t.dx, t.dy, t.dz
                )));
            }
            if !seen.insert((t.dx, t.dy, t.dz)) {
                return Err(bad(format!(
                    "duplicate tap offset ({},{},{})",
                    t.dx, t.dy, t.dz
                )));
            }
        }
        let rad = self.radius();
        if rad == 0 {
            return Err(StencilError::InvalidRadius { radius: 0 });
        }
        if rad > MAX_KERNEL_RADIUS {
            return Err(StencilError::InvalidRadius { radius: rad });
        }
        Ok(())
    }

    /// The kernel radius: the largest tap-offset magnitude on any axis.
    pub fn radius(&self) -> usize {
        self.taps
            .iter()
            .map(|t| {
                t.dx.unsigned_abs()
                    .max(t.dy.unsigned_abs())
                    .max(t.dz.unsigned_abs()) as usize
            })
            .max()
            .unwrap_or(0)
    }

    /// Structural class (see [`KernelClass`]).
    pub fn class(&self) -> KernelClass {
        let star = self.taps.iter().all(|t| {
            let nonzero = (t.dx != 0) as u8 + (t.dy != 0) as u8 + (t.dz != 0) as u8;
            nonzero <= 1
        });
        if star {
            return KernelClass::Star;
        }
        let rad = self.radius() as i64;
        let side = 2 * rad + 1;
        let full = match self.dim {
            Dim::D2 => side * side,
            Dim::D3 => side * side * side,
        };
        if self.taps.len() as i64 == full {
            KernelClass::Box
        } else {
            KernelClass::Asymmetric
        }
    }

    /// The desc of an existing 2D star stencil, taps in the canonical
    /// accumulation order (center, then per distance `d = 1..=rad`:
    /// W, E, S, N) so execution matches `Stencil2D::apply_clamped` exactly.
    pub fn from_star_2d<T: Real>(st: &Stencil2D<T>, boundary: BoundaryCond) -> KernelDesc {
        let mut taps = vec![TapDesc::new(0, 0, 0, st.center().to_f64())];
        for d in 1..=st.radius() {
            let a = st.arm(d);
            let di = d as i32;
            taps.push(TapDesc::new(-di, 0, 0, a.west.to_f64()));
            taps.push(TapDesc::new(di, 0, 0, a.east.to_f64()));
            taps.push(TapDesc::new(0, -di, 0, a.south.to_f64()));
            taps.push(TapDesc::new(0, di, 0, a.north.to_f64()));
        }
        KernelDesc {
            dim: Dim::D2,
            taps,
            boundary,
        }
    }

    /// The desc of an existing 3D star stencil (canonical order: center,
    /// then per distance W, E, S, N, B, A).
    pub fn from_star_3d<T: Real>(st: &Stencil3D<T>, boundary: BoundaryCond) -> KernelDesc {
        let mut taps = vec![TapDesc::new(0, 0, 0, st.center().to_f64())];
        for d in 1..=st.radius() {
            let a = st.arm(d);
            let di = d as i32;
            taps.push(TapDesc::new(-di, 0, 0, a.west.to_f64()));
            taps.push(TapDesc::new(di, 0, 0, a.east.to_f64()));
            taps.push(TapDesc::new(0, -di, 0, a.south.to_f64()));
            taps.push(TapDesc::new(0, di, 0, a.north.to_f64()));
            taps.push(TapDesc::new(0, 0, -di, a.below.to_f64()));
            taps.push(TapDesc::new(0, 0, di, a.above.to_f64()));
        }
        KernelDesc {
            dim: Dim::D3,
            taps,
            boundary,
        }
    }

    /// A seeded random 2D star desc whose `f32` execution matches
    /// `Stencil2D::<f32>::random(rad, seed)` coefficient-for-coefficient
    /// (same `SplitMix64` draw sequence).
    ///
    /// # Errors
    /// Propagates the stencil constructor's radius validation.
    pub fn star_2d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        Ok(Self::from_star_2d(
            &Stencil2D::<f64>::random(rad, seed)?,
            boundary,
        ))
    }

    /// A seeded random 3D star desc (see [`KernelDesc::star_2d`]).
    pub fn star_3d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        Ok(Self::from_star_3d(
            &Stencil3D::<f64>::random(rad, seed)?,
            boundary,
        ))
    }

    /// A seeded random full-box 2D desc: every tap of the
    /// `(2·rad+1)²` neighborhood, center first then row-major, with
    /// coefficients drawn in `[-0.5, 0.5)` scaled by `1/taps` so repeated
    /// application stays bounded.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidRadius`] outside `1..=MAX_KERNEL_RADIUS`.
    pub fn box_2d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        check_radius(rad)?;
        let mut rng = SplitMix64::new(seed);
        let r = rad as i32;
        let side = (2 * rad + 1) as f64;
        let scale = 1.0 / (side * side);
        let mut taps = vec![TapDesc::new(0, 0, 0, (rng.next_f64() - 0.5) * scale)];
        for dy in -r..=r {
            for dx in -r..=r {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                taps.push(TapDesc::new(dx, dy, 0, (rng.next_f64() - 0.5) * scale));
            }
        }
        KernelDesc {
            dim: Dim::D2,
            taps,
            boundary,
        }
        .validated()
    }

    /// A seeded random full-box 3D desc (see [`KernelDesc::box_2d`]).
    pub fn box_3d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        check_radius(rad)?;
        let mut rng = SplitMix64::new(seed);
        let r = rad as i32;
        let side = (2 * rad + 1) as f64;
        let scale = 1.0 / (side * side * side);
        let mut taps = vec![TapDesc::new(0, 0, 0, (rng.next_f64() - 0.5) * scale)];
        for dz in -r..=r {
            for dy in -r..=r {
                for dx in -r..=r {
                    if (dx, dy, dz) == (0, 0, 0) {
                        continue;
                    }
                    taps.push(TapDesc::new(dx, dy, dz, (rng.next_f64() - 0.5) * scale));
                }
            }
        }
        KernelDesc {
            dim: Dim::D3,
            taps,
            boundary,
        }
        .validated()
    }

    /// A seeded random asymmetric 2D desc: the center plus `2·rad + 3`
    /// distinct random offsets inside the radius-`rad` box, at least one of
    /// them off-axis and at least one at full radius (so `radius() == rad`).
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidRadius`] outside `1..=MAX_KERNEL_RADIUS`.
    pub fn asymmetric_2d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        check_radius(rad)?;
        let mut rng = SplitMix64::new(seed);
        let r = rad as i32;
        let scale = 1.0 / (2 * rad + 3) as f64;
        let mut taps = vec![TapDesc::new(0, 0, 0, (rng.next_f64() - 0.5) * scale)];
        // Anchor taps pin the radius and force the asymmetric class.
        let mut offs: Vec<(i32, i32)> = vec![(r, r), (1 - r - r % 2, -r)];
        while offs.len() < 2 * rad + 3 {
            let dx = (rng.next_u64() % (2 * rad as u64 + 1)) as i32 - r;
            let dy = (rng.next_u64() % (2 * rad as u64 + 1)) as i32 - r;
            if (dx, dy) != (0, 0) && !offs.contains(&(dx, dy)) {
                offs.push((dx, dy));
            }
        }
        for (dx, dy) in offs {
            taps.push(TapDesc::new(dx, dy, 0, (rng.next_f64() - 0.5) * scale));
        }
        KernelDesc {
            dim: Dim::D2,
            taps,
            boundary,
        }
        .validated()
    }

    /// A seeded random asymmetric 3D desc (center plus `2·rad + 3` distinct
    /// offsets in the radius-`rad` cube; see [`KernelDesc::asymmetric_2d`]).
    pub fn asymmetric_3d(
        rad: usize,
        seed: u64,
        boundary: BoundaryCond,
    ) -> Result<KernelDesc, StencilError> {
        check_radius(rad)?;
        let mut rng = SplitMix64::new(seed);
        let r = rad as i32;
        let scale = 1.0 / (2 * rad + 3) as f64;
        let mut taps = vec![TapDesc::new(0, 0, 0, (rng.next_f64() - 0.5) * scale)];
        let mut offs: Vec<(i32, i32, i32)> = vec![(r, r, -r), (1 - r - r % 2, -r, 0)];
        while offs.len() < 2 * rad + 3 {
            let m = 2 * rad as u64 + 1;
            let dx = (rng.next_u64() % m) as i32 - r;
            let dy = (rng.next_u64() % m) as i32 - r;
            let dz = (rng.next_u64() % m) as i32 - r;
            if (dx, dy, dz) != (0, 0, 0) && !offs.contains(&(dx, dy, dz)) {
                offs.push((dx, dy, dz));
            }
        }
        for (dx, dy, dz) in offs {
            taps.push(TapDesc::new(dx, dy, dz, (rng.next_f64() - 0.5) * scale));
        }
        KernelDesc {
            dim: Dim::D3,
            taps,
            boundary,
        }
        .validated()
    }

    fn validated(self) -> Result<KernelDesc, StencilError> {
        self.validate()?;
        Ok(self)
    }
}

fn check_radius(rad: usize) -> Result<(), StencilError> {
    if rad == 0 || rad > MAX_KERNEL_RADIUS {
        Err(StencilError::InvalidRadius { radius: rad })
    } else {
        Ok(())
    }
}

/// One interpreter step: `dst[x,y] = Σ coeff·src[resolve(x+dx), resolve(y+dy)]`
/// in desc order, first term a multiply. Frozen — the generic oracle.
///
/// # Panics
/// Panics when `src` and `dst` differ in shape or `desc` is not a valid 2D
/// desc.
pub fn reference_step_2d<T: Real>(desc: &KernelDesc, src: &Grid2D<T>, dst: &mut Grid2D<T>) {
    assert_eq!(desc.dim, Dim::D2, "2D step needs a 2D desc");
    assert!(desc.validate().is_ok(), "invalid desc");
    assert_eq!((src.nx(), src.ny()), (dst.nx(), dst.ny()), "shape mismatch");
    let (nx, ny) = (src.nx() as i64, src.ny() as i64);
    let bc = desc.boundary;
    for y in 0..src.ny() {
        for x in 0..src.nx() {
            let mut acc = T::ZERO;
            for (i, t) in desc.taps.iter().enumerate() {
                let xx = bc.resolve(x as i64 + t.dx as i64, nx);
                let yy = bc.resolve(y as i64 + t.dy as i64, ny);
                let term = T::from_f64(t.coeff) * src.get(xx, yy);
                acc = if i == 0 { term } else { acc + term };
            }
            dst.set(x, y, acc);
        }
    }
}

/// Runs the 2D interpreter for `iters` steps (ping-pong buffers).
///
/// # Panics
/// Panics when `desc` is not a valid 2D desc.
pub fn reference_run_2d<T: Real>(desc: &KernelDesc, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    let mut src = grid.clone();
    let mut dst = grid.clone();
    for _ in 0..iters {
        reference_step_2d(desc, &src, &mut dst);
        src.swap(&mut dst);
    }
    src
}

/// One 3D interpreter step (see [`reference_step_2d`]).
///
/// # Panics
/// Panics when `src` and `dst` differ in shape or `desc` is not a valid 3D
/// desc.
pub fn reference_step_3d<T: Real>(desc: &KernelDesc, src: &Grid3D<T>, dst: &mut Grid3D<T>) {
    assert_eq!(desc.dim, Dim::D3, "3D step needs a 3D desc");
    assert!(desc.validate().is_ok(), "invalid desc");
    assert_eq!(
        (src.nx(), src.ny(), src.nz()),
        (dst.nx(), dst.ny(), dst.nz()),
        "shape mismatch"
    );
    let (nx, ny, nz) = (src.nx() as i64, src.ny() as i64, src.nz() as i64);
    let bc = desc.boundary;
    for z in 0..src.nz() {
        for y in 0..src.ny() {
            for x in 0..src.nx() {
                let mut acc = T::ZERO;
                for (i, t) in desc.taps.iter().enumerate() {
                    let xx = bc.resolve(x as i64 + t.dx as i64, nx);
                    let yy = bc.resolve(y as i64 + t.dy as i64, ny);
                    let zz = bc.resolve(z as i64 + t.dz as i64, nz);
                    let term = T::from_f64(t.coeff) * src.get(xx, yy, zz);
                    acc = if i == 0 { term } else { acc + term };
                }
                dst.set(x, y, z, acc);
            }
        }
    }
}

/// Runs the 3D interpreter for `iters` steps (ping-pong buffers).
///
/// # Panics
/// Panics when `desc` is not a valid 3D desc.
pub fn reference_run_3d<T: Real>(desc: &KernelDesc, grid: &Grid3D<T>, iters: usize) -> Grid3D<T> {
    let mut src = grid.clone();
    let mut dst = grid.clone();
    for _ in 0..iters {
        reference_step_3d(desc, &src, &mut dst);
        src.swap(&mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;

    #[test]
    fn boundary_resolve_formulas() {
        let n = 4;
        for i in 0..n {
            for bc in BoundaryCond::ALL {
                assert_eq!(bc.resolve(i, n), i as usize, "{bc} interior identity");
            }
        }
        assert_eq!(BoundaryCond::Clamp.resolve(-2, n), 0);
        assert_eq!(BoundaryCond::Clamp.resolve(9, n), 3);
        assert_eq!(BoundaryCond::Periodic.resolve(-1, n), 3);
        assert_eq!(BoundaryCond::Periodic.resolve(4, n), 0);
        assert_eq!(BoundaryCond::Periodic.resolve(-5, n), 3);
        assert_eq!(BoundaryCond::Reflective.resolve(-1, n), 0);
        assert_eq!(BoundaryCond::Reflective.resolve(-2, n), 1);
        assert_eq!(BoundaryCond::Reflective.resolve(4, n), 3);
        assert_eq!(BoundaryCond::Reflective.resolve(5, n), 2);
        // Reflection is an involution over one full period either side.
        for i in -8..12 {
            let r = BoundaryCond::Reflective.resolve(i, n);
            assert!(r < n as usize);
        }
        // n = 1: every condition collapses to index 0.
        for bc in BoundaryCond::ALL {
            for i in -3..4 {
                assert_eq!(bc.resolve(i, 1), 0, "{bc} at {i}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for bc in BoundaryCond::ALL {
            assert_eq!(BoundaryCond::parse(bc.name()), Some(bc));
        }
        for c in [KernelClass::Star, KernelClass::Box, KernelClass::Asymmetric] {
            assert_eq!(KernelClass::parse(c.name()), Some(c));
        }
        assert_eq!(BoundaryCond::parse("nope"), None);
    }

    #[test]
    fn classes_and_radii() {
        let star = KernelDesc::star_2d(3, 1, BoundaryCond::Clamp).unwrap();
        assert_eq!(star.class(), KernelClass::Star);
        assert_eq!(star.radius(), 3);
        assert_eq!(star.taps.len(), 13);

        let boxk = KernelDesc::box_2d(2, 1, BoundaryCond::Periodic).unwrap();
        assert_eq!(boxk.class(), KernelClass::Box);
        assert_eq!(boxk.radius(), 2);
        assert_eq!(boxk.taps.len(), 25);

        let asym = KernelDesc::asymmetric_2d(2, 1, BoundaryCond::Reflective).unwrap();
        assert_eq!(asym.class(), KernelClass::Asymmetric);
        assert_eq!(asym.radius(), 2);

        let boxk3 = KernelDesc::box_3d(1, 7, BoundaryCond::Clamp).unwrap();
        assert_eq!(boxk3.class(), KernelClass::Box);
        assert_eq!(boxk3.taps.len(), 27);
        let asym3 = KernelDesc::asymmetric_3d(3, 7, BoundaryCond::Periodic).unwrap();
        assert_eq!(asym3.class(), KernelClass::Asymmetric);
        assert_eq!(asym3.radius(), 3);
        for d in [&star, &boxk, &asym, &boxk3, &asym3] {
            d.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_malformed_descs() {
        let center = TapDesc::new(0, 0, 0, 1.0);
        let no_taps = KernelDesc {
            dim: Dim::D2,
            taps: vec![],
            boundary: BoundaryCond::Clamp,
        };
        assert!(no_taps.validate().is_err());
        let off_center = KernelDesc {
            dim: Dim::D2,
            taps: vec![TapDesc::new(1, 0, 0, 1.0), center],
            boundary: BoundaryCond::Clamp,
        };
        assert!(off_center.validate().is_err());
        let dup = KernelDesc {
            dim: Dim::D2,
            taps: vec![
                center,
                TapDesc::new(1, 0, 0, 1.0),
                TapDesc::new(1, 0, 0, 2.0),
            ],
            boundary: BoundaryCond::Clamp,
        };
        assert!(dup.validate().is_err());
        let planar = KernelDesc {
            dim: Dim::D2,
            taps: vec![center, TapDesc::new(0, 0, 1, 1.0)],
            boundary: BoundaryCond::Clamp,
        };
        assert!(planar.validate().is_err());
        let nan = KernelDesc {
            dim: Dim::D2,
            taps: vec![center, TapDesc::new(1, 0, 0, f64::NAN)],
            boundary: BoundaryCond::Clamp,
        };
        assert!(nan.validate().is_err());
        let center_only = KernelDesc {
            dim: Dim::D2,
            taps: vec![center],
            boundary: BoundaryCond::Clamp,
        };
        assert!(center_only.validate().is_err(), "radius 0 rejected");
        assert!(KernelDesc::box_2d(0, 1, BoundaryCond::Clamp).is_err());
        assert!(KernelDesc::box_2d(MAX_KERNEL_RADIUS + 1, 1, BoundaryCond::Clamp).is_err());
    }

    #[test]
    fn star_clamp_interpreter_matches_star_oracle_2d() {
        for rad in 1..=4 {
            let seed = 40 + rad as u64;
            let st = Stencil2D::<f32>::random(rad, seed).unwrap();
            let desc = KernelDesc::star_2d(rad, seed, BoundaryCond::Clamp).unwrap();
            let grid = Grid2D::from_fn(19, 11, |x, y| ((x * 31 + y * 17) % 103) as f32).unwrap();
            let got = reference_run_2d::<f32>(&desc, &grid, 3);
            let expect = exec::run_2d(&st, &grid, 3);
            assert_eq!(got, expect, "rad {rad}");
        }
    }

    #[test]
    fn star_clamp_interpreter_matches_star_oracle_3d() {
        for rad in 1..=3 {
            let seed = 50 + rad as u64;
            let st = Stencil3D::<f32>::random(rad, seed).unwrap();
            let desc = KernelDesc::star_3d(rad, seed, BoundaryCond::Clamp).unwrap();
            let grid =
                Grid3D::from_fn(9, 8, 7, |x, y, z| ((x + 3 * y + 7 * z) % 53) as f32).unwrap();
            let got = reference_run_3d::<f32>(&desc, &grid, 2);
            let expect = exec::run_3d(&st, &grid, 2);
            assert_eq!(got, expect, "rad {rad}");
        }
    }

    #[test]
    fn periodic_differs_from_clamp_on_borders() {
        let desc_c = KernelDesc::box_2d(1, 3, BoundaryCond::Clamp).unwrap();
        let mut desc_p = desc_c.clone();
        desc_p.boundary = BoundaryCond::Periodic;
        let grid = Grid2D::from_fn(8, 6, |x, y| (x * 13 + y * 7) as f32).unwrap();
        let c = reference_run_2d::<f32>(&desc_c, &grid, 1);
        let p = reference_run_2d::<f32>(&desc_p, &grid, 1);
        assert_ne!(c, p, "boundary must matter on a non-constant grid");
        // Interior cells are identical: the boundary condition only touches
        // out-of-range taps.
        for y in 1..5 {
            for x in 1..7 {
                assert_eq!(c.get(x, y), p.get(x, y), "interior ({x},{y})");
            }
        }
    }
}
