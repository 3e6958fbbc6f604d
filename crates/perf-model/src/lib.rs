//! # perf-model
//!
//! The analytical layer of the reproduction: the paper's performance model
//! ([`model`]), the §V.A configuration auto-tuner ([`tuner`]), roofline
//! accounting ([`roofline`]), the GPU bandwidth extrapolation ([`extrapolate`]),
//! projection of CPU/many-core results onto the paper's devices
//! ([`hostmodel`]), the Table II device catalog ([`devices`]) — and, for
//! scoring, the paper's published numbers transcribed in [`paper`].
//!
//! ```
//! use perf_model::{tuner, devices};
//! use fpga_sim::FpgaDevice;
//! use stencil_core::Dim;
//!
//! // Ask the tuner for the best radius-3 2D configuration on the Arria 10 —
//! // it reproduces the paper's published choice (bsize 4096, parvec 4,
//! // partime 28).
//! let best = &tuner::tune(&FpgaDevice::arria10_gx1150(), Dim::D2, 3, 1)[0];
//! assert_eq!(best.config.partime, 28);
//! assert!(devices::ARRIA10.flop_byte_ratio() > 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod devices;
pub mod extrapolate;
pub mod hostmodel;
pub mod model;
pub mod paper;
pub mod roofline;
pub mod tuner;

pub use devices::{Device, DeviceKind};
pub use hostmodel::{BandwidthEfficiency, Projected};
pub use model::Estimate;
pub use tuner::Candidate;
