//! The analytical performance model (from the authors' FPGA'18 paper \[8\]).
//!
//! The estimate is the minimum of a *pipeline* term and a *memory* term:
//!
//! * **Pipeline**: the chain commits `parvec × partime` cell updates per
//!   kernel cycle, derated by the overlapped-blocking redundancy (only
//!   `csize/bsize` of each block's cross-section is committed):
//!
//!   `cells/s = fmax · parvec · partime · Π csize_d / bsize_d`
//!
//! * **Memory**: each pass moves `redundancy + 1` grid copies (halo-inflated
//!   reads plus writes) while committing `partime` updates per cell, bounded
//!   by the board bandwidth (scaled by `fmax/fmem` when the kernel clock
//!   falls below the memory-controller clock, §VI.A):
//!
//!   `cells/s = BW_eff · partime / (4 · (redundancy + 1))`
//!
//! The paper reports estimates in GB/s of *effective throughput*
//! (`GCell/s × 8`), normalized to the achieved fmax; so do we. The measured
//! value (from `fpga-sim`'s timing executor) divided by this estimate is the
//! paper's "model accuracy" column — ~85 % for 2D, ~55-60 % for 3D, the gap
//! being the memory-controller splitting the timing simulator reproduces
//! mechanistically.

use fpga_sim::FpgaDevice;
use serde::{Deserialize, Serialize};
use stencil_core::BlockConfig;

/// Output of the analytical model for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Kernel clock assumed, MHz.
    pub fmax_mhz: f64,
    /// Pipeline-term bound, GCell/s.
    pub pipeline_gcells: f64,
    /// Memory-term bound, GCell/s.
    pub memory_gcells: f64,
    /// The model's estimate: min of the two, GCell/s.
    pub gcells: f64,
    /// Estimate in GFLOP/s.
    pub gflops: f64,
    /// Estimate in effective GB/s (the paper's unit for Table III).
    pub gbs: f64,
    /// Which term bound the estimate.
    pub memory_bound: bool,
}

/// Evaluates the model for `config` on `device` at kernel clock `fmax_mhz`.
pub fn estimate(device: &FpgaDevice, config: &BlockConfig, fmax_mhz: f64) -> Estimate {
    assert!(fmax_mhz > 0.0, "fmax must be positive");
    config.validate().expect("invalid configuration");

    let commit_ratio = 1.0 / config.redundancy();
    let pipeline = fmax_mhz * 1e6 * (config.parvec * config.partime) as f64 * commit_ratio / 1e9;

    let fmem = device.mem_controller_mhz();
    let bw = device.peak_mem_gbps() * (fmax_mhz / fmem).min(1.0);
    let bytes_per_update = 4.0 * (config.redundancy() + 1.0) / config.partime as f64;
    let memory = bw / bytes_per_update;

    let gcells = pipeline.min(memory);
    let flops = config.dim.flops_per_cell(config.rad) as f64;
    Estimate {
        fmax_mhz,
        pipeline_gcells: pipeline,
        memory_gcells: memory,
        gcells,
        gflops: gcells * flops,
        gbs: gcells * 8.0,
        memory_bound: memory < pipeline,
    }
}

/// Evaluates the model for `replicas` spatially replicated copies of
/// `config`, each a chain over its own grid partition (the SASA-style
/// hybrid design point; see PAPERS.md).
///
/// The pipeline term scales with `replicas` — every replica commits
/// `parvec × partime` updates per cycle. The memory term is derived from
/// the board's channel structure: each replica streams through its own
/// `⌊channels / replicas⌋` channels (at least one), so the aggregate
/// bandwidth is `replicas × channels-per-replica × per-channel GB/s`,
/// capped at the board total — replica counts that do not divide the
/// channel count strand the remainder channels, and replicas beyond the
/// channel count share rather than add bandwidth. With `replicas == 1`
/// this is exactly [`estimate`].
///
/// # Panics
/// Panics when `replicas == 0`, `fmax_mhz <= 0`, or `config` is invalid.
pub fn estimate_hybrid(
    device: &FpgaDevice,
    config: &BlockConfig,
    fmax_mhz: f64,
    replicas: usize,
) -> Estimate {
    assert!(replicas > 0, "need at least one replica");
    assert!(fmax_mhz > 0.0, "fmax must be positive");
    config.validate().expect("invalid configuration");

    let commit_ratio = 1.0 / config.redundancy();
    let pipeline =
        fmax_mhz * 1e6 * (config.parvec * config.partime * replicas) as f64 * commit_ratio / 1e9;

    let fmem = device.mem_controller_mhz();
    let derate = (fmax_mhz / fmem).min(1.0);
    let per_channel = device.peak_mem_gbps() / device.mem_channels as f64;
    let channels_per_replica = (device.mem_channels / replicas).max(1);
    let bw = (replicas as f64 * channels_per_replica as f64 * per_channel)
        .min(device.peak_mem_gbps())
        * derate;
    let bytes_per_update = 4.0 * (config.redundancy() + 1.0) / config.partime as f64;
    let memory = bw / bytes_per_update;

    let gcells = pipeline.min(memory);
    let flops = config.dim.flops_per_cell(config.rad) as f64;
    Estimate {
        fmax_mhz,
        pipeline_gcells: pipeline,
        memory_gcells: memory,
        gcells,
        gflops: gcells * flops,
        gbs: gcells * 8.0,
        memory_bound: memory < pipeline,
    }
}

/// Inverse model: the external bandwidth (GB/s) a configuration needs to
/// sustain `target_gcells` without the memory term binding — the
/// conclusion's "further accelerating such stencils will only be possible
/// with faster external memory", quantified.
pub fn required_bandwidth_gbps(config: &BlockConfig, target_gcells: f64) -> f64 {
    assert!(target_gcells > 0.0);
    config.validate().expect("invalid configuration");
    target_gcells * 4.0 * (config.redundancy() + 1.0) / config.partime as f64
}

/// Roofline of a stencil *without* temporal blocking on any device:
/// `min(peak_gflops, peak_gbps × intensity)` in GFLOP/s (§IV.B, \[23\]).
pub fn roofline_gflops(peak_gflops: f64, peak_gbps: f64, flop_byte: f64) -> f64 {
    peak_gflops.min(peak_gbps * flop_byte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use stencil_core::Dim;

    fn arria() -> FpgaDevice {
        FpgaDevice::arria10_gx1150()
    }

    #[test]
    fn estimates_match_table3_within_20_percent() {
        // The exact formula of [8] is not published; ours reproduces the
        // paper's estimated-performance column within 20 % on every row and
        // within 5 % for 2D.
        for r in paper::table3() {
            let cfg = match r.dim {
                Dim::D2 => BlockConfig::new_2d(r.rad, r.bsize.0, r.parvec, r.partime).unwrap(),
                Dim::D3 => {
                    BlockConfig::new_3d(r.rad, r.bsize.0, r.bsize.1, r.parvec, r.partime).unwrap()
                }
            };
            let e = estimate(&arria(), &cfg, r.fmax_mhz);
            let rel = (e.gbs - r.estimated_gbs).abs() / r.estimated_gbs;
            let tol = if r.dim == Dim::D2 { 0.05 } else { 0.20 };
            assert!(
                rel < tol,
                "{:?} rad {}: model {:.1} vs paper {:.1} ({:.1}%)",
                r.dim,
                r.rad,
                e.gbs,
                r.estimated_gbs,
                rel * 100.0
            );
        }
    }

    #[test]
    fn two_d_configs_are_pipeline_bound() {
        // 2D blocks have tiny redundancy and high partime: memory is never
        // the binding term at the paper's configurations.
        for r in paper::table3().into_iter().filter(|r| r.dim == Dim::D2) {
            let cfg = BlockConfig::new_2d(r.rad, r.bsize.0, r.parvec, r.partime).unwrap();
            let e = estimate(&arria(), &cfg, r.fmax_mhz);
            assert!(!e.memory_bound, "{r:?}");
        }
    }

    #[test]
    fn estimate_scales_linearly_with_fmax_when_pipeline_bound() {
        let cfg = BlockConfig::new_2d(1, 4096, 8, 36).unwrap();
        let a = estimate(&arria(), &cfg, 150.0);
        let b = estimate(&arria(), &cfg, 300.0);
        assert!(!a.memory_bound && !b.memory_bound);
        assert!((b.gcells / a.gcells - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_term_caps_wide_shallow_chains() {
        // Wide vectors with a shallow chain stream far more data per commit
        // than the board can move: the memory term wins.
        let cfg = BlockConfig::new_3d(1, 256, 256, 16, 4).unwrap();
        let e = estimate(&arria(), &cfg, 300.0);
        assert!(e.memory_bound, "{e:?}");
        assert!(e.gcells < e.pipeline_gcells);
    }

    #[test]
    fn low_fmax_derates_bandwidth() {
        // Below the 266 MHz controller clock the memory term shrinks
        // proportionally (§VI.A).
        let cfg = BlockConfig::new_3d(1, 64, 64, 2, 24).unwrap();
        let a = estimate(&arria(), &cfg, 266.0);
        let b = estimate(&arria(), &cfg, 133.0);
        assert!((a.memory_gcells / b.memory_gcells - 2.0).abs() < 0.01);
    }

    #[test]
    fn inverse_model_roundtrips() {
        // At the memory-bound point the two directions agree.
        let cfg = BlockConfig::new_3d(1, 256, 256, 16, 4).unwrap();
        let d = arria();
        let e = estimate(&d, &cfg, 300.0);
        assert!(e.memory_bound);
        let need = required_bandwidth_gbps(&cfg, e.gcells);
        assert!(
            (need - d.peak_mem_gbps()).abs() / d.peak_mem_gbps() < 0.01,
            "{need}"
        );
    }

    #[test]
    fn high_order_3d_needs_faster_memory() {
        // Conclusion: to push a radius-6 3D stencil (chain depth capped at
        // 2 by DSP/BRAM) to the first-order result (~29 GCell/s), the board
        // would need ~4x its 34.1 GB/s DDR4 (135.8 GB/s) — HBM-class bandwidth.
        let cfg = BlockConfig::new_3d(6, 256, 128, 16, 2).unwrap();
        let need = required_bandwidth_gbps(&cfg, 28.8);
        assert!(need > 3.9 * 34.1, "{need}");
    }

    #[test]
    fn single_replica_hybrid_is_exactly_the_base_model() {
        let configs = [
            BlockConfig::new_2d(2, 4096, 4, 42).unwrap(),
            BlockConfig::new_3d(1, 256, 256, 16, 12).unwrap(),
        ];
        for d in [arria(), FpgaDevice::stratix10_mx2100()] {
            for cfg in &configs {
                assert_eq!(estimate_hybrid(&d, cfg, 300.0, 1), estimate(&d, cfg, 300.0));
            }
        }
    }

    #[test]
    fn ddr_memory_caps_replicated_shallow_chains() {
        // 3D rad 1 on the paper's board: two shallow replicas stream twice
        // the traffic per committed update of the deep chain; the 34.1 GB/s
        // DDR interface caps them below the deep-temporal Table III design.
        let d = arria();
        let shallow = BlockConfig::new_3d(1, 256, 128, 16, 4).unwrap();
        let deep = BlockConfig::new_3d(1, 256, 256, 16, 12).unwrap();
        let h = estimate_hybrid(&d, &shallow, 287.0, 2);
        assert!(h.memory_bound, "{h:?}");
        assert!(h.gcells < estimate(&d, &deep, 287.0).gcells);
    }

    #[test]
    fn hbm_flips_the_winner_to_replicated_spatial() {
        // Same design pair on the HBM device: 491 GB/s of effective
        // bandwidth un-caps the shallow replicas; eight of them (within the
        // MX DSP budget) beat any single deep chain by >1.5x — the SASA
        // design-point flip.
        let d = FpgaDevice::stratix10_mx2100();
        let shallow = BlockConfig::new_3d(1, 256, 128, 16, 4).unwrap();
        let h = estimate_hybrid(&d, &shallow, 480.0, 8);
        assert!(!h.memory_bound, "{h:?}");
        let par_total = d.dsps as usize / stencil_core::Dim::D3.dsps_per_cell(1);
        assert!(8 * shallow.par_used() <= par_total);
        for partime in [12, 20, 32] {
            let deep = BlockConfig::new_3d(1, 256, 256, 16, partime).unwrap();
            assert!(deep.par_used() <= par_total);
            let e = estimate(&d, &deep, 480.0);
            assert!(
                h.gcells > 1.5 * e.gcells,
                "partime {partime}: hybrid {:.1} vs deep {:.1}",
                h.gcells,
                e.gcells
            );
        }
    }

    #[test]
    fn stranded_channels_penalize_awkward_replica_counts() {
        // 3 replicas on a 32-channel board drive 3 x 10 channels; the model
        // must charge the two stranded channels rather than pretend full
        // bandwidth.
        let d = FpgaDevice::stratix10_mx2100();
        let cfg = BlockConfig::new_3d(1, 256, 128, 16, 4).unwrap();
        let three = estimate_hybrid(&d, &cfg, 480.0, 3);
        let four = estimate_hybrid(&d, &cfg, 480.0, 4);
        assert!((three.memory_gcells / four.memory_gcells - 30.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn roofline_matches_paper_examples() {
        // Xeon 2D rad 1: roofline = min(700, 76.8 × 1.125) = 86.4 GFLOP/s;
        // the paper's 45.3 GFLOP/s is 0.52 of it (Table IV).
        let roof = roofline_gflops(700.0, 76.8, 1.125);
        assert!((roof - 86.4).abs() < 1e-9);
        assert!((45.306 / roof - 0.52).abs() < 0.01);
    }
}
