//! # stencil-core
//!
//! Foundation crate for the reproduction of *"High-Performance High-Order
//! Stencil Computation on FPGAs Using OpenCL"* (Zohouri, Podobas, Matsuoka —
//! 2018): dense grids, star-shaped stencils with unshared coefficients,
//! reference (oracle) executors, and the spatial/temporal block geometry of
//! the paper's Eqs. (2) and (4)–(7).
//!
//! ## Bit-exactness contract
//!
//! The paper "disallow\[s\] reordering of floating-point operations". We encode
//! that as a crate-wide contract: every executor in the workspace evaluates
//! Eq. (1) in the *canonical order* defined in [`stencil`] — center term
//! first, then per distance `i = 1..=rad` the directions W, E, S, N (, B, A),
//! each as one `acc += coeff * value`. Engines honouring the contract produce
//! **bit-identical** results, which is how the FPGA simulator and CPU engines
//! are validated against [`exec`]'s oracle.
//!
//! ## Quick example
//!
//! ```
//! use stencil_core::{Grid2D, Stencil2D, exec};
//!
//! let grid = Grid2D::<f32>::from_fn(64, 64, |x, y| (x + y) as f32).unwrap();
//! let stencil = Stencil2D::diffusion(3).unwrap(); // radius-3 star
//! let out = exec::run_2d(&stencil, &grid, 10);    // 10 time steps
//! assert_eq!(out.nx(), 64);
//! assert_eq!(stencil.flops_per_cell(), 25);       // Table I, 2D rad 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod blocking;
pub mod characteristics;
pub mod error;
pub mod exec;
pub mod grid;
pub mod kernel_ir;
pub mod real;
pub mod specialize;
pub mod stats;
pub mod stencil;
pub mod util;
pub mod wave;

pub use blocking::{BlockConfig, BlockSpan, Dim};
pub use characteristics::StencilCharacteristics;
pub use error::{Result, StencilError};
pub use grid::{sweep_buffers, Grid2D, Grid3D};
pub use kernel_ir::{BoundaryCond, KernelClass, KernelDesc, TapDesc};
pub use real::Real;
pub use specialize::{
    compile_2d, compile_3d, compile_star_2d, compile_star_3d, CompiledKernel, CompiledKernel2D,
    CompiledKernel3D, Lanes,
};
pub use stats::FieldStats;
pub use stencil::{Arm2, Arm3, Direction, Stencil2D, Stencil3D};
pub use wave::WaveKernel;
