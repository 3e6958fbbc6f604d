//! Aggregate counters for channels and controllers.

use serde::{Deserialize, Serialize};

/// Counters accumulated while servicing requests on one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Requests serviced.
    pub requests: u64,
    /// Requests that spanned more than one burst line (were split).
    pub split_requests: u64,
    /// Burst lines actually transferred (after sequential coalescing).
    pub lines_charged: u64,
    /// Row-activation penalties charged.
    pub row_misses: u64,
    /// Read↔write turnaround penalties charged.
    pub turnarounds: u64,
    /// Bytes the requester asked for.
    pub useful_bytes: u64,
    /// Busy controller cycles (lines + penalties).
    pub busy_cycles: u64,
}

impl ChannelStats {
    /// Bytes moved over the bus: one full burst per charged line.
    pub fn transferred_bytes(&self, burst_bytes: u64) -> u64 {
        self.lines_charged * burst_bytes
    }

    /// Bus efficiency: useful bytes / transferred bytes (≤ 1 unless
    /// coalescing lets one line serve several requests... it cannot exceed 1
    /// because a byte is only useful once).
    pub fn bus_efficiency(&self, burst_bytes: u64) -> f64 {
        let t = self.transferred_bytes(burst_bytes);
        if t == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / t as f64
    }

    /// Effective bandwidth in GB/s for the busy period, given the controller
    /// clock: useful bytes delivered per busy time.
    pub fn effective_gbps(&self, controller_mhz: f64) -> f64 {
        if self.busy_cycles == 0 {
            return 0.0;
        }
        let seconds = self.busy_cycles as f64 / (controller_mhz * 1e6);
        self.useful_bytes as f64 / seconds / 1e9
    }

    /// The counts accumulated since `earlier`, an earlier copy of the same
    /// counters.
    ///
    /// # Panics
    /// Panics (in debug builds) when a field of `earlier` exceeds `self`'s.
    pub fn since(&self, earlier: &ChannelStats) -> ChannelStats {
        ChannelStats {
            requests: self.requests - earlier.requests,
            split_requests: self.split_requests - earlier.split_requests,
            lines_charged: self.lines_charged - earlier.lines_charged,
            row_misses: self.row_misses - earlier.row_misses,
            turnarounds: self.turnarounds - earlier.turnarounds,
            useful_bytes: self.useful_bytes - earlier.useful_bytes,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.requests += other.requests;
        self.split_requests += other.split_requests;
        self.lines_charged += other.lines_charged;
        self.row_misses += other.row_misses;
        self.turnarounds += other.turnarounds;
        self.useful_bytes += other.useful_bytes;
        self.busy_cycles += other.busy_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_of_perfect_stream() {
        let s = ChannelStats {
            requests: 10,
            lines_charged: 10,
            useful_bytes: 640,
            busy_cycles: 10,
            ..Default::default()
        };
        assert!((s.bus_efficiency(64) - 1.0).abs() < 1e-12);
        assert_eq!(s.transferred_bytes(64), 640);
    }

    #[test]
    fn efficiency_of_split_stream_is_half() {
        // Every 64 B request split into two lines.
        let s = ChannelStats {
            requests: 10,
            split_requests: 10,
            lines_charged: 20,
            useful_bytes: 640,
            busy_cycles: 20,
            ..Default::default()
        };
        assert!((s.bus_efficiency(64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_bandwidth() {
        // 64 useful bytes per cycle at 266.625 MHz = 17.064 GB/s.
        let s = ChannelStats {
            useful_bytes: 64_000,
            busy_cycles: 1000,
            ..Default::default()
        };
        assert!((s.effective_gbps(266.625) - 17.064).abs() < 1e-9);
    }

    #[test]
    fn since_undoes_merge() {
        let a = ChannelStats {
            requests: 3,
            split_requests: 1,
            lines_charged: 4,
            row_misses: 2,
            turnarounds: 1,
            useful_bytes: 192,
            busy_cycles: 9,
        };
        let mut b = a;
        b.merge(&a);
        b.merge(&a);
        let mut twice = a;
        twice.merge(&a);
        assert_eq!(b.since(&a), twice);
        assert_eq!(a.since(&a), ChannelStats::default());
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = ChannelStats::default();
        assert_eq!(s.effective_gbps(266.0), 0.0);
        assert!((s.bus_efficiency(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let a = ChannelStats {
            requests: 1,
            split_requests: 1,
            lines_charged: 2,
            row_misses: 1,
            turnarounds: 1,
            useful_bytes: 64,
            busy_cycles: 7,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.requests, 2);
        assert_eq!(b.busy_cycles, 14);
    }
}
