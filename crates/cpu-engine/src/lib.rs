//! # cpu-engine
//!
//! CPU stencil engines standing in for the paper's YASK baseline on Xeon /
//! Xeon Phi: a naive sweep, a cache-tiled sweep, a rayon-parallel engine
//! (all bit-exact with the `stencil-core` oracle), temporal wave-front
//! blocking (to reproduce §V.B's "temporal blocking is ineffective on
//! cache-based architectures"), and throughput measurement helpers.
//!
//! ```
//! use cpu_engine::engines;
//! use stencil_core::{exec, Grid2D, Stencil2D};
//!
//! let st = Stencil2D::<f32>::diffusion(3).unwrap();
//! let grid = Grid2D::from_fn(64, 64, |x, y| (x * y) as f32).unwrap();
//! // The parallel engine is bit-exact with the sequential oracle.
//! assert_eq!(
//!     engines::parallel_2d(&st, &grid, 4),
//!     exec::run_2d(&st, &grid, 4),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engines;
pub mod folded;
pub mod measure;
pub mod padded;
pub mod wavefront;

pub use engines::{
    naive_2d, naive_3d, parallel_2d, parallel_2d_kernel, parallel_2d_kernel_into, parallel_3d,
    parallel_3d_kernel, parallel_3d_kernel_into, tiled_2d, tiled_3d, Tile,
};
pub use folded::{
    distinct_blocks_touched, distinct_blocks_touched_3d, folded_run_2d, folded_run_3d,
    FoldedGrid2D, FoldedGrid3D,
};
pub use padded::{padded_run_2d, PaddedGrid2D};
pub use wavefront::{wavefront_2d, wavefront_3d};
