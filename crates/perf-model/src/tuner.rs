//! Configuration auto-tuner — the paper's §V.A flow.
//!
//! The flow enumerates every legal combination of the performance knobs
//! (`bsize`, `parvec`, `partime`) for a stencil on a device, scores each with
//! the analytical model at the fmax the fmax-model predicts, and returns the
//! top-k. The paper then places-and-routes "the top few (usually two)"; here
//! the equivalent of place-and-route is `fpga_sim::Accelerator::synthesize`.
//!
//! Constraints enforced (all from §V.A):
//! * `parvec` even and dividing `bsize_x`;
//! * `(partime · rad) mod 4 = 0` (Eq. 6);
//! * `parvec · partime ≤ partotal` (Eqs. 4–5, the DSP budget);
//! * the physical BRAM estimate fits the device (the constraint that forces
//!   the paper's 3D high-order blocks down to 256×128).

use crate::model::{estimate, estimate_hybrid, Estimate};
use fpga_sim::{AreaEstimate, FmaxModel, FpgaDevice};
use serde::{Deserialize, Serialize};
use stencil_core::{BlockConfig, Dim};

/// Candidate block sizes swept for 2D kernels. §V.A fixes 4096 "based on our
/// previous experience \[8\]" — larger line buffers degraded fmax on this
/// device — so the sweep stops there.
pub const BSIZES_2D: [usize; 3] = [1024, 2048, 4096];

/// Candidate block sizes swept for 3D kernels (§V.A: "a combination of
/// 256×256, 256×128 or 128×128"; non-square support was added for
/// high-order tuning).
pub const BSIZES_3D: [(usize, usize); 4] = [(256, 256), (256, 128), (128, 128), (512, 256)];

/// Vector widths considered (ports to memory are powers of two ≥ 2).
pub const PARVECS: [usize; 5] = [2, 4, 8, 16, 32];

/// A scored configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The configuration (of a single chain; replicated `replicas` times).
    pub config: BlockConfig,
    /// Predicted kernel clock (seed-swept), MHz.
    pub fmax_mhz: f64,
    /// Model estimate at that clock.
    pub estimate: Estimate,
    /// Resource estimate (of a single chain; scales linearly in `replicas`).
    pub dsps: u64,
    /// Physical BRAM bits.
    pub bram_bits: u64,
    /// Spatially replicated chain count (the hybrid axis). 1 is the classic
    /// single deep-temporal chain; R > 1 means R copies of `config` over
    /// halo-overlapped grid partitions, each owning a share of the memory
    /// channels. Only enumerated on many-channel (HBM-class) devices.
    pub replicas: usize,
    /// Ranking score: estimated GCell/s derated by the datapath-width
    /// robustness term (see [`robustness_derate`]).
    pub score: f64,
}

/// Timing-closure robustness derate used for ranking only.
///
/// The paper's flow place-and-routes "the top few" model candidates and
/// keeps whichever actually closes timing best. The recurring outcome
/// (§VI.A: wide per-PE datapaths with "a few hundred" DSPs per PE routed
/// poorly) is that, when two candidates score within the fmax lottery of one
/// another, the one with the *narrower* per-PE datapath wins — e.g. the
/// published 2D radius-4 choice of `parvec 4 × partime 22` over the
/// nominally ~2 % faster `parvec 8 × partime 11`. We fold that into the
/// ranking as a quadratic derate on the per-PE DSP width, capped at 15 %:
///
/// `score = est · (1 − min(0.15, 3·10⁻⁶ · (parvec · dsps_per_cell)²))`
pub fn robustness_derate(config: &BlockConfig) -> f64 {
    let per_pe_dsps = (config.parvec * config.dim.dsps_per_cell(config.rad)) as f64;
    1.0 - (3e-6 * per_pe_dsps * per_pe_dsps).min(0.15)
}

/// Enumerates, filters and scores every legal configuration; returns the
/// top-`k` by estimated GCell/s (descending).
pub fn tune(device: &FpgaDevice, dim: Dim, rad: usize, k: usize) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = enumerate(device, dim, rad)
        .into_iter()
        .map(|config| {
            let fmax_mhz = FmaxModel::for_device(device).sweep(&config, 10);
            let est = estimate(device, &config, fmax_mhz);
            let area = AreaEstimate::for_config(device, &config);
            let score = est.gcells * robustness_derate(&config);
            Candidate {
                config,
                fmax_mhz,
                estimate: est,
                dsps: area.dsps,
                bram_bits: area.bram_bits_physical,
                replicas: 1,
                score,
            }
        })
        .collect();
    out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
    out.truncate(k);
    out
}

/// Lane widths considered when ranking configurations for a *serving*
/// shape. The compiled row kernel runs at most 8 lanes
/// (`stencil_core::compile_2d` maps wider requests to 8); wider ports only
/// pay off on the FPGA datapath, so the serving sweep stops at 8.
pub const SHAPE_PARVECS: [usize; 3] = [2, 4, 8];

/// Candidate block sizes for one blocked dimension of a serving-shape
/// sweep: powers of two from 32 up to the grid extent's ceiling power of
/// two, capped at the paper's 4096 line-buffer limit. Unlike the deploy
/// sweep ([`BSIZES_2D`]/[`BSIZES_3D`]) this adapts to the job: a 96-wide
/// grid should never be tiled with a 4096-cell block.
pub fn shape_bsizes(extent: usize) -> Vec<usize> {
    let cap = extent.max(1).next_power_of_two().clamp(32, 4096);
    let mut out = Vec::new();
    let mut b = 32usize;
    while b <= cap {
        out.push(b);
        b *= 2;
    }
    out
}

/// Fraction of the model's aligned-grid commit ratio that survives on an
/// *actual* `nx (× ny)` grid: committed cells over read cells across the
/// real [`BlockConfig::spans`] decomposition, normalized by the aligned
/// ratio `Π csize_d / bsize_d` the model already charges. A block whose
/// compute region dwarfs the grid reads a full halo to commit a sliver,
/// so its fit drops well below 1; an exactly-tiling block scores ~1.
pub fn shape_fit(config: &BlockConfig, nx: usize, ny: usize) -> f64 {
    let eff = |n: usize, csize: usize| -> f64 {
        let read: usize = BlockConfig::spans(n, csize, config.halo())
            .iter()
            .map(|s| s.read_len())
            .sum();
        n as f64 / read as f64
    };
    match config.dim {
        Dim::D2 => {
            let aligned = config.csize_x() as f64 / config.bsize_x as f64;
            eff(nx, config.csize_x()) / aligned
        }
        Dim::D3 => {
            let aligned = (config.csize_x() * config.csize_y()) as f64
                / (config.bsize_x * config.bsize_y) as f64;
            eff(nx, config.csize_x()) * eff(ny, config.csize_y()) / aligned
        }
    }
}

/// Replica counts enumerated for a device: always 1 (the classic single
/// deep-temporal chain); on many-channel (HBM-class, ≥ 8 channels) devices
/// additionally every power of two up to the channel count. Narrow-interface
/// DDR boards keep the single-chain enumeration byte-for-byte, so the
/// published Table III winners are unaffected by the hybrid axis.
pub fn replica_counts(device: &FpgaDevice) -> Vec<usize> {
    let mut out = vec![1];
    if device.mem_channels >= 8 {
        let mut r = 2;
        while r <= device.mem_channels {
            out.push(r);
            r *= 2;
        }
    }
    out
}

/// Ranks every legal configuration for an *actual job shape* — the serving
/// runtime's planner entry point. Same model and constraints as [`tune`]
/// (Eqs. 2, 5, 6 via [`BlockConfig::validate`], the DSP and BRAM budgets),
/// but the block-size sweep adapts to the grid ([`shape_bsizes`]), lane
/// widths stay in the CPU-executable range ([`SHAPE_PARVECS`]), and the
/// score is derated by [`shape_fit`] so configurations whose halo overhead
/// is disproportionate on this grid rank below snugger-fitting ones.
/// Returns the top-`k` by derated score (descending). `ny` is ignored for
/// 2D shapes.
pub fn shape_candidates(
    device: &FpgaDevice,
    dim: Dim,
    rad: usize,
    nx: usize,
    ny: usize,
    k: usize,
) -> Vec<Candidate> {
    let partotal = dim.par_total(device.dsps as usize, rad);
    let step = 4 / gcd(rad, 4);
    let fmax_model = FmaxModel::for_device(device);
    let blocks: Vec<(usize, usize)> = match dim {
        Dim::D2 => shape_bsizes(nx).into_iter().map(|b| (b, 0)).collect(),
        Dim::D3 => {
            let bys = shape_bsizes(ny);
            shape_bsizes(nx)
                .into_iter()
                .flat_map(|bx| bys.iter().map(move |&by| (bx, by)))
                .collect()
        }
    };
    let mut out = Vec::new();
    for (bx, by) in blocks {
        for &parvec in &SHAPE_PARVECS {
            if bx % parvec != 0 {
                continue;
            }
            let max_partime = partotal / parvec;
            let mut partime = step;
            while partime <= max_partime {
                let cfg = match dim {
                    Dim::D2 => BlockConfig::new_2d(rad, bx, parvec, partime),
                    Dim::D3 => BlockConfig::new_3d(rad, bx, by, parvec, partime),
                };
                match cfg {
                    Ok(cfg) => {
                        let area = AreaEstimate::for_config(device, &cfg);
                        if cfg.fits_dsps(device.dsps as usize) && area.fits(device) {
                            let fmax_mhz = fmax_model.sweep(&cfg, 4);
                            for replicas in replica_counts(device) {
                                // R copies of the chain must share the DSP
                                // budget and the physical BRAM of one device.
                                if replicas * cfg.par_used() > partotal
                                    || replicas as u64 * area.dsps > device.dsps
                                    || replicas as u64 * area.bram_bits_physical > device.m20k_bits
                                {
                                    break;
                                }
                                // Eq. 2 applied to the spatial partition: a
                                // replica owns an x-slice of core width nx/R
                                // but reads nx/R + 2·halo, so partition
                                // redundancy is 1 + 2·halo·R/nx. Cap it at
                                // 1.5 (slice >= 4·halo) — narrower slices
                                // spend more bandwidth on their neighbours'
                                // columns than the extra chain earns. Counts
                                // ascend, so no larger R survives either.
                                if replicas > 1 && nx / replicas < 4 * cfg.halo().max(1) {
                                    break;
                                }
                                let est = estimate_hybrid(device, &cfg, fmax_mhz, replicas);
                                // Each replica sees only its own partition of
                                // the grid, so the halo-overhead fit is taken
                                // against the per-replica extent.
                                let fit = shape_fit(&cfg, (nx / replicas).max(1), ny);
                                let score = est.gcells * robustness_derate(&cfg) * fit;
                                out.push(Candidate {
                                    config: cfg,
                                    fmax_mhz,
                                    estimate: est,
                                    dsps: area.dsps,
                                    bram_bits: area.bram_bits_physical,
                                    replicas,
                                    score,
                                });
                            }
                        }
                        partime += step;
                    }
                    // Larger partime only grows the halo further; once the
                    // compute block collapses (Eq. 2) no later partime on
                    // this (bx, by, parvec) can be legal.
                    Err(_) => break,
                }
            }
        }
    }
    out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
    out.truncate(k);
    out
}

/// All legal configurations for `dim`/`rad` on `device` (unscored).
pub fn enumerate(device: &FpgaDevice, dim: Dim, rad: usize) -> Vec<BlockConfig> {
    let partotal = dim.par_total(device.dsps as usize, rad);
    let mut out = Vec::new();
    let blocks: Vec<(usize, usize)> = match dim {
        Dim::D2 => BSIZES_2D.iter().map(|&b| (b, 0)).collect(),
        Dim::D3 => BSIZES_3D.to_vec(),
    };
    // Eq. 6: partime·rad ≡ 0 (mod 4) ⇒ partime is a multiple of 4/gcd(rad,4).
    let step = 4 / gcd(rad, 4);
    for (bx, by) in blocks {
        for &parvec in &PARVECS {
            if bx % parvec != 0 {
                continue;
            }
            let max_partime = partotal / parvec;
            let mut partime = step;
            while partime <= max_partime {
                let cfg = match dim {
                    Dim::D2 => BlockConfig::new_2d(rad, bx, parvec, partime),
                    Dim::D3 => BlockConfig::new_3d(rad, bx, by, parvec, partime),
                };
                if let Ok(cfg) = cfg {
                    let area = AreaEstimate::for_config(device, &cfg);
                    if cfg.fits_dsps(device.dsps as usize) && area.fits(device) {
                        out.push(cfg);
                    }
                }
                partime += step;
            }
        }
    }
    out
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arria() -> FpgaDevice {
        FpgaDevice::arria10_gx1150()
    }

    #[test]
    fn reproduces_every_table3_configuration() {
        // The headline tuner test: the top candidate for each of the eight
        // (dim, rad) pairs is exactly the configuration the paper deployed.
        let expect_2d = [
            (1, 4096, 8, 36),
            (2, 4096, 4, 42),
            (3, 4096, 4, 28),
            (4, 4096, 4, 22),
        ];
        for (rad, bsize, parvec, partime) in expect_2d {
            let best = &tune(&arria(), Dim::D2, rad, 1)[0].config;
            assert_eq!(
                (best.bsize_x, best.parvec, best.partime),
                (bsize, parvec, partime),
                "2D rad {rad}: got {best:?}"
            );
        }
        let expect_3d = [
            (1, 256, 256, 16, 12),
            (2, 256, 128, 16, 6),
            (3, 256, 128, 16, 4),
            (4, 256, 128, 16, 3),
        ];
        for (rad, bx, by, parvec, partime) in expect_3d {
            let best = &tune(&arria(), Dim::D3, rad, 1)[0].config;
            assert_eq!(
                (best.bsize_x, best.bsize_y, best.parvec, best.partime),
                (bx, by, parvec, partime),
                "3D rad {rad}: got {best:?}"
            );
        }
    }

    #[test]
    fn three_d_partime_divides_by_radius() {
        // §V.A intuition confirmed in §VI.A for 3D: "the best configuration
        // for the high-order 3D stencils could be obtained by dividing the
        // partime value used for the first-order stencil by the radius".
        let p1 = tune(&arria(), Dim::D3, 1, 1)[0].config.partime;
        for rad in 2..=4 {
            let p = tune(&arria(), Dim::D3, rad, 1)[0].config.partime;
            assert_eq!(p, p1 / rad, "rad {rad}");
        }
    }

    #[test]
    fn candidates_respect_dsp_budget() {
        for dim in [Dim::D2, Dim::D3] {
            for rad in 1..=4 {
                for c in tune(&arria(), dim, rad, 10) {
                    assert!(c.dsps <= 1518, "{c:?}");
                    assert!(c.config.validate().is_ok());
                }
            }
        }
    }

    #[test]
    fn candidates_sorted_descending() {
        let cands = tune(&arria(), Dim::D2, 2, 10);
        assert!(cands.len() >= 2);
        for w in cands.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn bram_constraint_forces_small_3d_blocks_at_high_order() {
        // 256×256 with the rad-2 winning parvec/partime must NOT fit; that is
        // exactly why the paper dropped to 256×128.
        let d = arria();
        let big = BlockConfig::new_3d(2, 256, 256, 16, 6).unwrap();
        assert!(!AreaEstimate::for_config(&d, &big).fits(&d));
        let small = BlockConfig::new_3d(2, 256, 128, 16, 6).unwrap();
        assert!(AreaEstimate::for_config(&d, &small).fits(&d));
    }

    #[test]
    fn enumerate_nonempty_even_for_high_radius() {
        // §VI.A: radius 5-6 3D stencils are limited to ~two parallel blocks.
        let cands = enumerate(&arria(), Dim::D3, 6);
        assert!(!cands.is_empty());
        let max_partime = cands.iter().map(|c| c.partime).max().unwrap();
        assert!(
            max_partime <= 4,
            "3D rad 6 should allow very little temporal parallelism, got {max_partime}"
        );
    }

    #[test]
    fn shape_bsizes_adapt_to_extent() {
        assert_eq!(shape_bsizes(96), vec![32, 64, 128]);
        assert_eq!(shape_bsizes(1), vec![32]);
        assert_eq!(shape_bsizes(5000).last(), Some(&4096), "paper's cap");
    }

    #[test]
    fn shape_candidates_are_valid_sorted_and_snug() {
        let d = arria();
        for rad in 1..=4 {
            let cands = shape_candidates(&d, Dim::D2, rad, 96, 0, 8);
            assert!(!cands.is_empty(), "rad {rad}");
            for w in cands.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
            for c in &cands {
                assert!(c.config.validate().is_ok(), "{c:?}");
                assert!(c.config.parvec <= 8, "serving lane cap: {c:?}");
                assert!(
                    c.config.bsize_x <= 128,
                    "96-wide grid must not pick a deploy-sized block: {c:?}"
                );
            }
        }
        let cands = shape_candidates(&d, Dim::D3, 2, 30, 24, 8);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.config.validate().is_ok()));
    }

    #[test]
    fn shape_fit_penalizes_oversized_blocks() {
        // On a 96-wide grid, a 4096-block config wastes nearly all of its
        // reads; a 128-block config with the same halo wastes far less.
        let big = BlockConfig::new_2d(1, 4096, 8, 8).unwrap();
        let snug = BlockConfig::new_2d(1, 128, 8, 8).unwrap();
        let fit_big = shape_fit(&big, 96, 0);
        let fit_snug = shape_fit(&snug, 96, 0);
        assert!(fit_big < fit_snug, "{fit_big} vs {fit_snug}");
        // An exactly-tiling grid scores ~1.
        let aligned = shape_fit(&snug, snug.csize_x() * 4, 0);
        assert!((aligned - 1.0).abs() < 1e-9, "{aligned}");
    }

    #[test]
    fn replica_axis_only_opens_on_many_channel_devices() {
        assert_eq!(replica_counts(&arria()), vec![1]);
        let mx = FpgaDevice::stratix10_mx2100();
        assert_eq!(replica_counts(&mx), vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn ddr_shape_candidates_stay_single_chain() {
        // On the 2-channel board the hybrid axis never opens: enumeration is
        // byte-identical to the pre-hybrid tuner.
        for dim in [Dim::D2, Dim::D3] {
            for c in shape_candidates(&arria(), dim, 1, 512, 256, 16) {
                assert_eq!(c.replicas, 1, "{c:?}");
            }
        }
    }

    #[test]
    fn hbm_shape_candidates_rank_replicated_chains_first() {
        // The SASA flip: with 32 pseudo-channels the top-ranked candidate
        // replicates shallow chains spatially, while the DDR board's winner
        // for the same shape is a single deeper temporal chain.
        let mx = FpgaDevice::stratix10_mx2100();
        let cands = shape_candidates(&mx, Dim::D3, 1, 512, 256, 16);
        let best = &cands[0];
        assert!(best.replicas > 1, "HBM winner should replicate: {best:?}");
        for c in &cands {
            assert!(c.config.validate().is_ok(), "{c:?}");
            assert!(c.replicas as u64 * c.dsps <= mx.dsps, "{c:?}");
            assert!(c.replicas as u64 * c.bram_bits <= mx.m20k_bits, "{c:?}");
            assert!(
                c.replicas * c.config.par_used() <= Dim::D3.par_total(mx.dsps as usize, 1),
                "{c:?}"
            );
        }
        let ddr_best = &shape_candidates(&arria(), Dim::D3, 1, 512, 256, 16)[0];
        assert_eq!(ddr_best.replicas, 1);
        assert!(
            ddr_best.config.partime > best.config.partime,
            "DDR should go deeper in time than each HBM replica: ddr partime {} vs hbm {}",
            ddr_best.config.partime,
            best.config.partime
        );
    }

    #[test]
    fn dsp_utilization_of_winners_is_high() {
        // Table III: winners use 80-100% of partotal.
        let d = arria();
        for dim in [Dim::D2, Dim::D3] {
            for rad in 1..=4 {
                let c = &tune(&d, dim, rad, 1)[0];
                let total = dim.par_total(1518, rad);
                let used = c.config.par_used();
                assert!(
                    used as f64 >= 0.75 * total as f64,
                    "{dim:?} rad {rad}: {used}/{total}"
                );
            }
        }
    }
}
