//! The prior-work architecture: temporal blocking *without* spatial
//! blocking (§II, refs. \[14\]–\[17\]).
//!
//! Those designs buffer entire grid rows (2D) or planes (3D) on chip, so
//! there is no halo and no redundant computation — speedup is linear in the
//! chain depth — but the input row/plane size is capped by on-chip memory,
//! "even more limiting for high-order stencils, due to higher on-chip memory
//! requirement". This module sizes that cap so the paper's §II argument is
//! quantitative: [`max_width_2d`] / [`max_plane_3d`] give the largest input
//! the BRAM budget admits for a given radius and chain depth (`tables
//! priorwork` prints them).

use crate::device::FpgaDevice;

/// Largest grid width a 2D unblocked design supports on `device` for the
/// given radius and chain depth (same physical-BRAM model as the blocked
/// design: replication factor and channel FIFOs included).
pub fn max_width_2d(device: &FpgaDevice, rad: usize, partime: usize, parvec: usize) -> usize {
    // Physical bits ≈ partime · sr_cells · 32 · repl + fifo, where the
    // whole row is the block (sr_cells = 2·rad·nx + parvec); solve for nx.
    let repl = 1.9; // 2D replication factor (see `area`)
    let fifo = (partime * parvec * 32 * 256) as f64;
    let budget = device.m20k_bits as f64 - fifo;
    if budget <= 0.0 {
        return 0;
    }
    let cells = budget / (partime as f64 * 32.0 * repl);
    let nx = (cells - parvec as f64) / (2.0 * rad as f64);
    if nx < 1.0 {
        0
    } else {
        (nx as usize) / parvec * parvec
    }
}

/// Largest plane (`nx × ny`, square) a 3D unblocked design supports.
pub fn max_plane_3d(device: &FpgaDevice, rad: usize, partime: usize, parvec: usize) -> usize {
    let repl = 2.0 - 1.0 / rad as f64;
    let fifo = (partime * parvec * 32 * 256) as f64;
    let budget = device.m20k_bits as f64 - fifo;
    if budget <= 0.0 {
        return 0;
    }
    let cells = budget / (partime as f64 * 32.0 * repl);
    let plane = (cells - parvec as f64) / (2.0 * rad as f64);
    if plane < 1.0 {
        0
    } else {
        (plane.sqrt()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arria() -> FpgaDevice {
        FpgaDevice::arria10_gx1150()
    }

    #[test]
    fn width_limit_shrinks_with_radius() {
        // §II: the input restriction "will become even more limiting for
        // high-order stencils".
        let d = arria();
        let mut prev = usize::MAX;
        for rad in 1..=4 {
            let w = max_width_2d(&d, rad, 8, 4);
            assert!(w < prev, "rad {rad}: {w}");
            prev = w;
        }
    }

    #[test]
    fn width_limit_shrinks_with_chain_depth() {
        let d = arria();
        assert!(max_width_2d(&d, 1, 16, 4) < max_width_2d(&d, 1, 4, 4));
    }

    #[test]
    fn paper_grids_do_not_fit_the_unblocked_design() {
        // The paper's 2D inputs (~16000 wide) with a competitive chain depth
        // exceed what row-buffering admits at radius 2+ — exactly why the
        // paper adds spatial blocking.
        let d = arria();
        for rad in 2..=4 {
            let limit = max_width_2d(&d, rad, 42 / rad, 4);
            assert!(
                limit < 15680,
                "rad {rad}: unblocked limit {limit} would fit the paper's grids"
            );
        }
    }

    #[test]
    fn three_d_planes_are_tiny() {
        // 3D plane buffering: even radius 1 with a modest chain caps the
        // plane near ~256² (the paper's blocked design's plane per block!),
        // so unblocked 3D cannot host the paper's 696×728 planes.
        let d = arria();
        let side = max_plane_3d(&d, 1, 12, 16);
        assert!(side < 696, "side {side}");
    }
}
