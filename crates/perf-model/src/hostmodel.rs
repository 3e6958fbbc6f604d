//! Projection of CPU / many-core / GPU stencil performance onto the paper's
//! devices.
//!
//! The paper's own data shows that YASK on Xeon and Xeon Phi is purely
//! bandwidth-bound with a *radius-independent* bandwidth efficiency
//! (Tables IV/V: ratio ≈ 0.52 on Xeon, ≈ 0.44–0.50 on Phi across all
//! orders), and Tang et al.'s GPU code is bandwidth-bound with an efficiency
//! that decays with radius. That makes performance on a device we do not own
//! projectable from two numbers: the device's peak bandwidth (Table II) and
//! a bandwidth efficiency, taken from the paper's published results
//! (`BandwidthEfficiency::paper_*`). Nothing here measures the host.

use crate::devices::Device;
use crate::roofline;
use serde::{Deserialize, Serialize};
use stencil_core::Dim;

/// Fraction of TDP a fully-loaded Xeon draws in the paper's MSR measurements
/// (Table IV: 45.306 GFLOP/s ÷ 0.521 GFLOP/s/W ≈ 87 W of 105 W).
pub const XEON_POWER_TDP_FRACTION: f64 = 0.84;
/// Same for the Xeon Phi 7210F (≈ 223 W of 235 W).
pub const PHI_POWER_TDP_FRACTION: f64 = 0.95;

/// Bandwidth efficiency of an implementation on a device, per (dim, radius).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthEfficiency {
    /// Efficiency for 2D stencils, radius 1–4 (None when not measured).
    pub d2: Option<[f64; 4]>,
    /// Efficiency for 3D stencils, radius 1–4.
    pub d3: Option<[f64; 4]>,
}

impl BandwidthEfficiency {
    /// YASK on the Xeon E5-2650 v4, from Tables IV/V.
    pub fn paper_yask_xeon() -> Self {
        Self {
            d2: Some([0.52, 0.52, 0.52, 0.52]),
            d3: Some([0.49, 0.48, 0.43, 0.44]),
        }
    }

    /// YASK on the Xeon Phi 7210F, from Tables IV/V.
    pub fn paper_yask_phi() -> Self {
        Self {
            d2: Some([0.50, 0.47, 0.47, 0.46]),
            d3: Some([0.44, 0.44, 0.43, 0.44]),
        }
    }

    /// Tang et al. \[10\] on the GTX 580 (3D only), from Table V.
    pub fn paper_tang_gpu() -> Self {
        Self {
            d2: None,
            d3: Some([0.72, 0.60, 0.46, 0.38]),
        }
    }

    /// Efficiency for a (dim, rad) pair, if known.
    pub fn get(&self, dim: Dim, rad: usize) -> Option<f64> {
        assert!((1..=4).contains(&rad), "radius out of the measured range");
        match dim {
            Dim::D2 => self.d2.map(|t| t[rad - 1]),
            Dim::D3 => self.d3.map(|t| t[rad - 1]),
        }
    }
}

/// A projected (device, dim, rad) result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Projected {
    /// Stencil radius.
    pub rad: usize,
    /// GCell/s.
    pub gcells: f64,
    /// GFLOP/s.
    pub gflops: f64,
    /// Assumed power draw, watts.
    pub watts: f64,
    /// GFLOP/s/W.
    pub gflops_per_watt: f64,
    /// Roofline ratio (= the efficiency that produced the projection).
    pub roofline_ratio: f64,
}

/// Projects an efficiency onto `device` for `dim`/`rad`, using
/// `power_tdp_fraction` of the device TDP as the power estimate.
pub fn project(
    device: &Device,
    dim: Dim,
    rad: usize,
    efficiency: f64,
    power_tdp_fraction: f64,
) -> Projected {
    let gcells = roofline::gcells_at_ratio(efficiency, device);
    let gflops = gcells * dim.flops_per_cell(rad) as f64;
    let watts = device.tdp_watts * power_tdp_fraction;
    Projected {
        rad,
        gcells,
        gflops,
        watts,
        gflops_per_watt: gflops / watts,
        roofline_ratio: efficiency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{XEON, XEON_PHI};
    use crate::paper;

    #[test]
    fn xeon_projection_matches_table4_within_3_percent() {
        let eff = BandwidthEfficiency::paper_yask_xeon();
        for rad in 1..=4 {
            let p = project(
                &XEON,
                Dim::D2,
                rad,
                eff.get(Dim::D2, rad).unwrap(),
                XEON_POWER_TDP_FRACTION,
            );
            let row = paper::table4()
                .into_iter()
                .find(|r| r.device == XEON.name && r.rad == rad)
                .unwrap();
            assert!(
                (p.gcells - row.gcells).abs() / row.gcells < 0.03,
                "rad {rad}: {} vs {}",
                p.gcells,
                row.gcells
            );
            assert!((p.gflops - row.gflops).abs() / row.gflops < 0.03);
        }
    }

    #[test]
    fn phi_projection_matches_table5_within_3_percent() {
        let eff = BandwidthEfficiency::paper_yask_phi();
        for rad in 1..=4 {
            let p = project(
                &XEON_PHI,
                Dim::D3,
                rad,
                eff.get(Dim::D3, rad).unwrap(),
                PHI_POWER_TDP_FRACTION,
            );
            let row = paper::table5()
                .into_iter()
                .find(|r| r.device == XEON_PHI.name && r.rad == rad)
                .unwrap();
            assert!(
                (p.gcells - row.gcells).abs() / row.gcells < 0.03,
                "rad {rad}: {} vs {}",
                p.gcells,
                row.gcells
            );
        }
    }

    #[test]
    fn cpu_gcells_nearly_radius_independent() {
        // Fig. 4's CPU trend: cells/s stays flat as the order grows.
        let eff = BandwidthEfficiency::paper_yask_xeon();
        let g: Vec<f64> = (1..=4)
            .map(|r| project(&XEON, Dim::D2, r, eff.get(Dim::D2, r).unwrap(), 0.84).gcells)
            .collect();
        let (min, max) = (
            g.iter().cloned().fold(f64::MAX, f64::min),
            g.iter().cloned().fold(0.0, f64::max),
        );
        assert!(max / min < 1.05);
    }

    #[test]
    fn gpu_efficiency_decays_with_radius() {
        let eff = BandwidthEfficiency::paper_tang_gpu();
        let vals: Vec<f64> = (1..=4).map(|r| eff.get(Dim::D3, r).unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] > w[1]));
        assert!(eff.get(Dim::D2, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "radius out of the measured range")]
    fn radius_out_of_range_panics() {
        let _ = BandwidthEfficiency::paper_yask_xeon().get(Dim::D2, 5);
    }
}
