//! # opencl-codegen
//!
//! Generator for the paper's parameterised OpenCL stencil kernels. The
//! paper's artifact is an OpenCL code base where "apart from performance
//! knobs (block size, vector size, and degree of temporal parallelism),
//! stencil radius is also parameterized", plus a code generator that emits
//! the boundary-condition handling (§III.B). This crate reproduces that
//! tooling: given a validated [`stencil_core::BlockConfig`] it emits the
//! complete `.cl` translation unit (read kernel, `PAR_TIME` autorun compute
//! kernels with Eq. 7 shift registers, write kernel) and the `aoc` command
//! line that would compile it.
//!
//! There is no FPGA toolchain in this environment to consume the output; the
//! generated source is validated structurally (tap counts, canonical
//! operation order, brace balance, knob coverage) and serves as the bridge
//! between this reproduction and the authors' real flow.
//!
//! ```
//! use opencl_codegen::kernel;
//! use stencil_core::BlockConfig;
//!
//! let cfg = BlockConfig::new_2d(3, 4096, 4, 28).unwrap(); // paper 2D rad-3
//! let k = kernel::generate(&cfg);
//! assert!(k.source.contains("#pragma OPENCL EXTENSION cl_intel_channels"));
//! assert!(k.aoc_command("r3").contains("-DRAD=3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod boundary;
pub mod host;
pub mod kernel;

pub use host::{plan, LaunchPlan};
pub use kernel::{generate, KernelSource};
