//! DDR timing parameter sets.
//!
//! The model operates in the *controller clock* domain: with an `8n` prefetch
//! DDR4 device, the memory controller runs at `data_rate / 8` and moves one
//! full burst (`bus_bytes × burst_len` bytes, 64 B for a 64-bit DIMM) per
//! controller cycle at peak. This is exactly the granularity at which the
//! Intel FPGA external memory interface presents DDR to the kernel, and the
//! granularity at which the paper's "wide vectorized accesses get split by
//! the memory controller" effect occurs.

use serde::{Deserialize, Serialize};

/// Timing and geometry of one DDR channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdrTimings {
    /// Data rate in mega-transfers per second (e.g. 2133 for DDR4-2133).
    pub data_rate_mts: u32,
    /// Data-bus width in bytes (8 for a 64-bit channel).
    pub bus_bytes: u32,
    /// Burst length in transfers (8 for DDR4 BL8).
    pub burst_len: u32,
    /// Row-activation penalty in controller cycles charged when a request
    /// opens a row different from the bank's open row. This folds
    /// `tRP + tRCD − overlap` into one number; real controllers hide part of
    /// the latency with bank-level parallelism, so this is the *exposed*
    /// penalty.
    pub row_miss_penalty: u32,
    /// Bus-turnaround penalty in controller cycles charged when consecutive
    /// requests on a channel switch direction (read↔write), folding
    /// `tWTR`/`tRTW`.
    pub turnaround_penalty: u32,
    /// Bytes per DRAM row (page) per bank.
    pub row_bytes: u64,
    /// Number of banks per channel (bank-group × bank for DDR4).
    pub banks: u32,
}

impl DdrTimings {
    /// DDR4-2133 with a 64-bit bus — one bank of the Nallatech 385A board
    /// ("two banks of DDR4 memory operating at 2133 MHz").
    pub fn ddr4_2133() -> Self {
        Self {
            data_rate_mts: 2133,
            bus_bytes: 8,
            burst_len: 8,
            // tRCD = tRP ≈ 14 ns ≈ 3.7 controller cycles each; assume the
            // controller hides roughly half through bank interleaving.
            row_miss_penalty: 4,
            turnaround_penalty: 4,
            row_bytes: 8192,
            banks: 16,
        }
    }

    /// DDR4-2400 (used for the Stratix 10 GX what-if in the conclusion).
    pub fn ddr4_2400() -> Self {
        Self {
            data_rate_mts: 2400,
            ..Self::ddr4_2133()
        }
    }

    /// One HBM2 pseudo-channel (64-bit at 2.0 GT/s, BL4 ⇒ 32-byte bursts) —
    /// the Stratix 10 MX memory of the paper's concluding what-if. A full MX
    /// device exposes 32 of these for ~512 GB/s aggregate.
    pub fn hbm2_pseudo_channel() -> Self {
        Self {
            data_rate_mts: 2000,
            bus_bytes: 8,
            burst_len: 4,
            row_miss_penalty: 3,
            turnaround_penalty: 2,
            row_bytes: 2048,
            banks: 32,
        }
    }

    /// Bytes moved per controller cycle at peak: one full burst.
    #[inline]
    pub fn burst_bytes(&self) -> u64 {
        (self.bus_bytes * self.burst_len) as u64
    }

    /// Controller clock in MHz (`data_rate / burst_len`).
    #[inline]
    pub fn controller_mhz(&self) -> f64 {
        self.data_rate_mts as f64 / self.burst_len as f64
    }

    /// Theoretical peak bandwidth of the channel in GB/s (decimal GB).
    #[inline]
    pub fn peak_gbps(&self) -> f64 {
        self.data_rate_mts as f64 * self.bus_bytes as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2133_geometry() {
        let t = DdrTimings::ddr4_2133();
        assert_eq!(t.burst_bytes(), 64);
        assert!((t.controller_mhz() - 266.625).abs() < 1e-9);
        // 2133 MT/s * 8 B = 17.064 GB/s per bank; two banks = 34.128 ~ the
        // paper's 34.1 GB/s.
        assert!((t.peak_gbps() - 17.064).abs() < 1e-9);
        assert!((2.0 * t.peak_gbps() - 34.128).abs() < 1e-9);
    }

    #[test]
    fn ddr4_2400_is_faster() {
        assert!(DdrTimings::ddr4_2400().peak_gbps() > DdrTimings::ddr4_2133().peak_gbps());
    }

    #[test]
    fn hbm2_pseudo_channel_geometry() {
        let t = DdrTimings::hbm2_pseudo_channel();
        // 16 GB/s per pseudo-channel; 32 of them ≈ 512 GB/s.
        assert!((t.peak_gbps() - 16.0).abs() < 1e-9);
        assert_eq!(t.burst_bytes(), 32);
        assert!((t.controller_mhz() - 500.0).abs() < 1e-9);
    }
}
