//! Floating-point abstraction used by every executor in the workspace.
//!
//! The paper evaluates single-precision kernels only, but the design is
//! precision-agnostic: the OpenCL kernel is parameterised on the cell type just
//! like it is parameterised on the stencil radius. We therefore expose a small
//! [`Real`] trait implemented for `f32` and `f64` so grids, stencils and
//! executors can be written once.
//!
//! The trait is deliberately tiny — only what stencil arithmetic needs — so
//! that implementing it for a custom fixed-point type (a realistic FPGA
//! scenario) stays easy.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Scalar cell type for grids and stencil coefficients.
///
/// Implementations must behave like IEEE-754 binary floats with respect to
/// the operations below; the bit-exactness guarantees of the executors (see
/// crate docs) rely on `+` and `*` being deterministic for a fixed operand
/// order.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64` (used for coefficient construction).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used for reporting and tolerant compares).
    fn to_f64(self) -> f64;
    /// Lossy conversion from `usize` (used by synthetic workload generators).
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Absolute value.
    fn abs(self) -> Self;
    /// `true` when the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// Machine epsilon of the format.
    fn epsilon() -> Self;
    /// Largest finite value of the format.
    fn max_value() -> Self;
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }
            #[inline(always)]
            fn max_value() -> Self {
                <$t>::MAX
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_literals() {
        assert_eq!(<f32 as Real>::ZERO, 0.0f32);
        assert_eq!(<f64 as Real>::ONE, 1.0f64);
    }

    #[test]
    fn from_to_f64_roundtrip_for_small_values() {
        for v in [-2.5f64, 0.0, 1.0, 1024.0] {
            assert_eq!(<f32 as Real>::from_f64(v).to_f64(), v);
            assert_eq!(<f64 as Real>::from_f64(v).to_f64(), v);
        }
    }

    #[test]
    fn from_usize_is_exact_for_small_integers() {
        assert_eq!(<f32 as Real>::from_usize(42), 42.0);
        assert_eq!(<f64 as Real>::from_usize(1 << 20), (1u64 << 20) as f64);
    }

    #[test]
    fn abs_and_finite() {
        assert_eq!(Real::abs(-3.0f32), 3.0);
        assert!(Real::is_finite(1.0f64));
        assert!(!Real::is_finite(f64::NAN));
    }
}
