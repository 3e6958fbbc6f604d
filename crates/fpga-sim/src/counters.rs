//! Lightweight throughput instrumentation for the simulator data paths.
//!
//! [`SimCounters`] is accumulated per spatial block inside the parallel
//! dispatch (each block tallies into a private instance, merged under a
//! mutex once per block — never per row, so the instrumentation cost is
//! invisible next to the stencil arithmetic) and surfaced by
//! `stencil_bench` as one JSON line per run.
//!
//! Counter semantics follow the paper's accounting for overlapped blocking:
//! a block *reads* its full `read_len()` region but only *commits* its
//! `comp_len()` core, so `halo_cells` is exactly the redundant computation
//! the overlapped schedule pays (§III.B) and `cells_updated` is the useful
//! work — `nx · ny · iters` over a whole run, regardless of blocking.

use serde::Serialize;

/// Work and traffic counters for one simulator run (or one block partial).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimCounters {
    /// Useful cell updates committed to the destination grid, summed over
    /// all passes (equals `nx · ny · iters` for a full run).
    pub cells_updated: u64,
    /// Redundant halo cell updates computed but discarded by overlapped
    /// blocking (the paper's recomputation overhead).
    pub halo_cells: u64,
    /// Rows (2D) or planes (3D) fed into PE chains.
    pub rows_fed: u64,
    /// Bytes moved through the simulated read + write kernels.
    pub bytes_moved: u64,
    /// Chain passes executed (`ceil(iters / partime)`).
    pub passes: u64,
    /// Spatial blocks processed, summed over passes.
    pub blocks: u64,
    /// Lane width the compiled kernel ran with: the design's `parvec`, or
    /// the widest implemented width below it (1 = scalar). A run-level
    /// property, not merged.
    pub lane_width: u64,
    /// Wall time of each chain pass, in seconds (one entry per pass).
    pub pass_seconds: Vec<f64>,
    /// Total wall time of the run, in seconds.
    pub elapsed_seconds: f64,
}

impl SimCounters {
    /// Adds another tally's *count* fields into `self`. Timing fields
    /// (`pass_seconds`, `elapsed_seconds`) and the run-level `lane_width`
    /// are not merged: block partials carry no timing — wall time is
    /// measured once at the pass/run level, where it is well defined — and
    /// every block of a run shares one lane width.
    pub fn merge(&mut self, other: &SimCounters) {
        self.cells_updated += other.cells_updated;
        self.halo_cells += other.halo_cells;
        self.rows_fed += other.rows_fed;
        self.bytes_moved += other.bytes_moved;
        self.passes += other.passes;
        self.blocks += other.blocks;
    }

    /// Useful throughput in cells per second (0 when no time was recorded).
    pub fn cells_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.cells_updated as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// Fraction of all computed cell updates that were redundant halo work.
    pub fn halo_fraction(&self) -> f64 {
        let total = self.cells_updated + self.halo_cells;
        if total > 0 {
            self.halo_cells as f64 / total as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_keeps_timing() {
        let mut a = SimCounters {
            cells_updated: 10,
            halo_cells: 2,
            rows_fed: 5,
            bytes_moved: 100,
            passes: 1,
            blocks: 2,
            lane_width: 4,
            pass_seconds: vec![0.5],
            elapsed_seconds: 0.5,
        };
        let b = SimCounters {
            cells_updated: 7,
            halo_cells: 1,
            rows_fed: 3,
            bytes_moved: 50,
            passes: 0,
            blocks: 1,
            lane_width: 8,
            pass_seconds: vec![9.0],
            elapsed_seconds: 9.0,
        };
        a.merge(&b);
        assert_eq!(a.cells_updated, 17);
        assert_eq!(a.halo_cells, 3);
        assert_eq!(a.rows_fed, 8);
        assert_eq!(a.bytes_moved, 150);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.lane_width, 4, "lane width is run-level, not merged");
        assert_eq!(a.pass_seconds, vec![0.5]);
        assert_eq!(a.elapsed_seconds, 0.5);
    }

    #[test]
    fn derived_rates() {
        let c = SimCounters {
            cells_updated: 100,
            halo_cells: 25,
            elapsed_seconds: 2.0,
            ..Default::default()
        };
        assert_eq!(c.cells_per_second(), 50.0);
        assert_eq!(c.halo_fraction(), 0.2);
        assert_eq!(SimCounters::default().cells_per_second(), 0.0);
        assert_eq!(SimCounters::default().halo_fraction(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let c = SimCounters {
            cells_updated: 1,
            pass_seconds: vec![0.25],
            ..Default::default()
        };
        let s = serde_json::to_string(&c).unwrap();
        assert!(s.contains("\"cells_updated\":1"), "{s}");
        assert!(s.contains("\"pass_seconds\":[0.25]"), "{s}");
    }
}
