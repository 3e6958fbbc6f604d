//! # fpga-sim
//!
//! A simulator of the OpenCL FPGA stencil accelerator of *"High-Performance
//! High-Order Stencil Computation on FPGAs Using OpenCL"* (Zohouri et al.,
//! 2018): read kernel → chain of `partime` autorun PEs with shift registers
//! → write kernel (Fig. 2), with overlapped spatial/temporal blocking.
//!
//! Since no FPGA toolchain or hardware is available in this environment, the
//! crate substitutes each stage of the paper's flow with a model validated
//! against the published numbers (see DESIGN.md §2):
//!
//! | paper flow stage | here |
//! |---|---|
//! | kernel execution | [`functional`] (lockstep) — **bit-exact** vs the `stencil-core` oracle |
//! | kernel timing    | [`timing`] — cycle-level replay of the block schedule against the [`ddr_model`] DDR4 substrate |
//! | Quartus fitter   | [`area`] — exact DSP arithmetic + calibrated BRAM model |
//! | timing closure   | [`fmax`] — dim/radius model with deterministic seed sweep |
//! | power sensor     | [`power`] |
//! | the whole flow   | [`accelerator::Accelerator`] |
//!
//! ```
//! use fpga_sim::{Accelerator, FpgaDevice};
//! use stencil_core::{BlockConfig, Grid2D, Stencil2D};
//!
//! let acc = Accelerator::synthesize(
//!     FpgaDevice::arria10_gx1150(),
//!     BlockConfig::new_2d(2, 64, 4, 2).unwrap(),
//!     5, // placement seeds to sweep
//! ).unwrap();
//! let stencil = Stencil2D::<f32>::diffusion(2).unwrap();
//! let grid = Grid2D::from_fn(80, 40, |x, y| (x + y) as f32).unwrap();
//! let (out, report) = acc.run_2d(&stencil, &grid, 4);
//! assert_eq!(out.nx(), 80);
//! assert!(report.gflop_per_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod accelerator;
pub mod area;
pub mod chain;
pub mod cluster;
pub mod counters;
pub mod device;
pub mod event;
pub mod fmax;
pub mod functional;
pub mod pe;
pub mod power;
pub mod schedule;
pub mod serial_ref;
pub mod shift_register;
pub mod timing;
pub mod transfer;
pub mod unblocked;

pub use accelerator::Accelerator;
pub use area::AreaEstimate;
pub use cluster::{ChannelStats, ClusterNode, ClusterReport, ClusterSpec};
pub use counters::SimCounters;
pub use device::FpgaDevice;
pub use fmax::FmaxModel;
pub use functional::{
    replica_spans, run_2d_replicated_cancellable_into, run_3d_replicated_cancellable_into,
};
pub use schedule::{CollapsedSchedule, LoopPoint};
pub use serial_ref::{run_2d_serial, run_3d_serial};
pub use shift_register::ShiftRegister;
pub use timing::{GridDims, TimingOptions, TimingReport};
pub use transfer::HostLink;
