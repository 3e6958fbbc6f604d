//! # high-order-stencil
//!
//! A production-quality Rust reproduction of **"High-Performance High-Order
//! Stencil Computation on FPGAs Using OpenCL"** (Zohouri, Podobas, Matsuoka —
//! 2018): the complete system described by the paper, rebuilt as a workspace
//! of composable crates, with the FPGA hardware and toolchain replaced by
//! validated simulation substrates (see `DESIGN.md`).
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`stencil_core`] | grids, star stencils, oracle executors, block geometry (Eqs. 2, 4–7) |
//! | [`ddr_model`] | DDR4 channel/bank/burst timing substrate |
//! | [`fpga_sim`] | the accelerator: functional (bit-exact) + cycle-level simulators, area/fmax/power models |
//! | [`perf_model`] | the paper's performance model, §V.A auto-tuner, roofline, extrapolation |
//! | [`opencl_codegen`] | the parameterised OpenCL kernel generator (incl. boundary-condition codegen) |
//! | [`cpu_engine`] | the YASK-style CPU baselines (naive/3D-tiled/parallel/folded flat sweeps) |
//! | [`stencil_runtime`] | job-serving layer: bounded queue, backend shards, deadlines, shadow verification, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use high_order_stencil::prelude::*;
//!
//! // A radius-3 2D diffusion problem.
//! let stencil = Stencil2D::<f32>::diffusion(3).unwrap();
//! let grid = Grid2D::from_fn(128, 128, |x, y| ((x + y) % 7) as f32).unwrap();
//!
//! // Tune a configuration for the paper's FPGA, synthesize, and run.
//! let device = FpgaDevice::arria10_gx1150();
//! let config = BlockConfig::new_2d(3, 64, 4, 4).unwrap();
//! let acc = Accelerator::synthesize(device, config, 5).unwrap();
//! let (result, report) = acc.run_2d(&stencil, &grid, 8);
//!
//! // The accelerator's output is bit-exact with the reference executor.
//! assert_eq!(result, stencil_core::exec::run_2d(&stencil, &grid, 8));
//! assert!(report.gflop_per_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub use cpu_engine;
pub use ddr_model;
pub use fpga_sim;
pub use opencl_codegen;
pub use perf_model;
pub use stencil_core;
pub use stencil_runtime;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use cpu_engine::{engines, Tile};
    pub use fpga_sim::{Accelerator, FpgaDevice, GridDims, TimingReport};
    pub use perf_model::{devices, tuner, BandwidthEfficiency};
    pub use stencil_core::{exec, BlockConfig, Dim, Grid2D, Grid3D, Real, Stencil2D, Stencil3D};
    pub use stencil_runtime::{JobSpec, Runtime, RuntimeConfig};
}
