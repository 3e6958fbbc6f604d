//! # cpu-engine
//!
//! CPU stencil engines standing in for the paper's YASK baseline on Xeon /
//! Xeon Phi: a naive sweep, a 3D cache-tiled sweep, a rayon-parallel engine
//! and a vector-folded engine (all bit-exact with the `stencil-core`
//! oracle), and throughput measurement helpers. Every engine here is a
//! flat sweep: one time step per pass over the grid. Temporal blocking
//! (§V.B's experiment) runs on `fpga_sim::functional`, whose overlapped
//! blocks and `partime`-deep chain of fused steps are the schedule YASK
//! offers on CPUs as wave-front tiling; the `cpu_temporal_blocking` example
//! compares it with [`engines::parallel_2d`].
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

pub use engines::{
    naive_2d, naive_3d, parallel_2d, parallel_2d_kernel, parallel_2d_kernel_into, parallel_3d,
    parallel_3d_kernel, parallel_3d_kernel_into, tiled_3d, Tile,
};
pub use folded::{
    distinct_blocks_touched, distinct_blocks_touched_3d, folded_run_2d, folded_run_3d,
    FoldedGrid2D, FoldedGrid3D,
};
