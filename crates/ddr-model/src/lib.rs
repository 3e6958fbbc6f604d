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
//! use ddr_model::{Controller, Request};
//!
//! let mut mem = Controller::nallatech_385a();
//! // An aligned 64-byte read: one cycle (plus one row activation).
//! let c1 = mem.service(0, &Request::read(0, 64));
//! // An unaligned 64-byte read: split across two lines.
//! let c2 = mem.service(0, &Request::read(6400 + 16, 64));
//! assert!(c2 > 0 && c1 > 0);
//! assert_eq!(mem.total_stats().split_requests, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod channel;
pub mod controller;
pub mod request;
pub mod stats;
pub mod timing;
pub mod trace;

pub use channel::Channel;
pub use controller::{BufferMapping, Controller, MemoryProfile};
pub use request::{AccessKind, Request};
pub use stats::ChannelStats;
pub use timing::DdrTimings;
pub use trace::{AlignmentHistogram, RequestTrace};

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
            let mut ch = Channel::new(DdrTimings::ddr4_2133());
            let mut total = 0u64;
            for (addr, bytes) in &reqs {
                total += ch.service(&Request::read(*addr, *bytes));
            }
            let s = *ch.stats();
            prop_assert_eq!(s.busy_cycles, total);
            let t = *ch.timings();
            let min_lines = s.useful_bytes.div_ceil(t.burst_bytes());
            prop_assert!(s.lines_charged >= min_lines.saturating_sub(s.requests),
                "coalescing can merge at most one line per request");
            let penalties = s.row_misses * t.row_miss_penalty as u64
                + s.turnarounds * t.turnaround_penalty as u64;
            prop_assert_eq!(s.busy_cycles, s.lines_charged + penalties);
        }

        /// Servicing a stream request-by-request equals `service_stream`.
        #[test]
        fn stream_equals_loop(
            start in 0u64..4096,
            req_bytes in 1u64..128,
            stride in 1u64..512,
            count in 1u64..64,
        ) {
            let t = DdrTimings::ddr4_2133();
            let mut a = Channel::new(t);
            let mut b = Channel::new(t);
            let ca = a.service_stream(start, req_bytes, stride, count, AccessKind::Read);
            let mut cb = 0;
            for i in 0..count {
                cb += b.service(&Request::read(start + i * stride, req_bytes));
            }
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(a.stats(), b.stats());
        }

        /// An aligned full-line stream achieves >= 95% of peak (only row
        /// activations are exposed).
        #[test]
        fn aligned_stream_near_peak(n in 512u64..4096) {
            let mut ch = Channel::new(DdrTimings::ddr4_2133());
            let cycles = ch.service_stream(0, 64, 64, n, AccessKind::Read);
            prop_assert!(cycles >= n);
            prop_assert!((cycles as f64) < n as f64 * 1.05);
        }
    }
}
