//! # ddr-model
//!
//! A compact DDR4 memory-channel timing model, built as the external-memory
//! substrate for the FPGA stencil-accelerator simulator (`fpga-sim`).
//!
//! The paper attributes the dominant pipeline-efficiency loss of its 3D
//! kernels to "the larger vectorized accesses … being split by the memory
//! controller at run time" (§VI.A). This crate models exactly the mechanisms
//! behind that sentence:
//!
//! * one 64-byte burst line per controller cycle at peak,
//! * requests spanning multiple lines are split and pay per line,
//! * sequential same-direction requests coalesce into open bursts,
//! * row activations and read/write turnarounds expose extra cycles.
//!
//! The model is deliberately *not* a full DRAM simulator (no command-level
//! scheduling, no refresh): the effects above are the ones that shape the
//! paper's numbers, and everything here is O(rows-touched) per request.
//! A replay still services every request of one pass, so its host time
//! grows with the grid: at the paper's full size a 2D Table III schedule
//! (about 16000² cells) takes 0.9–2.3 s on a 2-vCPU Xeon, while the 3D
//! schedules, which `fpga-sim` replays one plane per alignment phase, take
//! milliseconds — about 6–7 s for all eight rows.
//!
//! ```
//! use ddr_model::{Channel, DdrTimings, Request};
//!
//! let mut ch = Channel::new(DdrTimings::ddr4_2133());
//! // An aligned 64-byte read: one line plus a row activation (4 cycles).
//! assert_eq!(ch.service(&Request::read(0, 64)), 5);
//! // An unaligned 64-byte read in the same open row: split across two lines.
//! assert_eq!(ch.service(&Request::read(6400 + 16, 64)), 2);
//! assert_eq!(ch.stats().split_requests, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod channel;
pub mod request;
pub mod stats;
pub mod timing;

pub use channel::Channel;
pub use request::{AccessKind, Request};
pub use stats::ChannelStats;
pub use timing::DdrTimings;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Bus efficiency never exceeds 1: a byte can only be useful once.
        #[test]
        fn efficiency_at_most_one(
            reqs in prop::collection::vec((0u64..1 << 20, 1u64..512, any::<bool>()), 1..200)
        ) {
            let mut ch = Channel::new(DdrTimings::ddr4_2133());
            for (addr, bytes, is_read) in reqs {
                let kind = if is_read { AccessKind::Read } else { AccessKind::Write };
                ch.service(&Request { addr, bytes, kind });
            }
            let s = ch.stats();
            prop_assert!(s.bus_efficiency(64) <= 1.0 + 1e-12);
            prop_assert!(s.transferred_bytes(64) >= s.useful_bytes);
        }

        /// Cycles are at least the number of lines the data needs, and at
        /// most lines + all penalties.
        #[test]
        fn cycles_bounded(
            reqs in prop::collection::vec((0u64..1 << 22, 1u64..256), 1..100)
        ) {
            let t = DdrTimings::ddr4_2133();
            let mut ch = Channel::new(t);
            let mut total = 0u64;
            for (addr, bytes) in &reqs {
                total += ch.service(&Request::read(*addr, *bytes));
            }
            let s = *ch.stats();
            prop_assert_eq!(s.busy_cycles, total);
            let min_lines = s.useful_bytes.div_ceil(t.burst_bytes());
            prop_assert!(s.lines_charged >= min_lines.saturating_sub(s.requests),
                "coalescing can merge at most one line per request");
            let penalties = s.row_misses * t.row_miss_penalty as u64
                + s.turnarounds * t.turnaround_penalty as u64;
            prop_assert_eq!(s.busy_cycles, s.lines_charged + penalties);
        }

        /// An aligned full-line stream achieves >= 95% of peak (only row
        /// activations are exposed).
        #[test]
        fn aligned_stream_near_peak(n in 512u64..4096) {
            let mut ch = Channel::new(DdrTimings::ddr4_2133());
            let cycles: u64 = (0..n).map(|i| ch.service(&Request::read(i * 64, 64))).sum();
            prop_assert!(cycles >= n);
            prop_assert!((cycles as f64) < n as f64 * 1.05);
        }
    }
}
