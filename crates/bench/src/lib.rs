//! # stencil-bench
//!
//! The benchmark harness: end-to-end reproduction pipelines for every table
//! and figure of the paper ([`repro`] for Table III, [`compare`] for Tables
//! IV/V and Figures 3/4), plus rendering helpers. The `tables` binary is the
//! user-facing entry point:
//!
//! ```text
//! cargo run --release -p stencil-bench --bin tables -- all
//! cargo run --release -p stencil-bench --bin tables -- table3 --json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod compare;
pub mod matrix;
pub mod render;
pub mod repro;
pub mod score;
pub mod study;

pub use compare::{fig3, fig4, related, series, table4, table5, CompareRow, Series};
pub use matrix::validate_matrix_json;
pub use repro::{reproduce_all, reproduce_row, Repro3Row, Scale};
pub use score::{score_table3, RowScore, ScoredMetric};
pub use study::{high_order, what_if, HighOrderRow, WhatIfRow};
