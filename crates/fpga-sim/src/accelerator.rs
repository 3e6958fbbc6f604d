//! High-level accelerator API: "synthesize" a configuration (area check,
//! fmax sweep, power estimate), then execute grids on it.
//!
//! This is the simulator's equivalent of the `aoc` offline compile plus the
//! host program: what a user of the paper's artifact would interact with.

use crate::area::AreaEstimate;
use crate::device::FpgaDevice;
use crate::fmax::FmaxModel;
use crate::functional;
use crate::power;
use crate::timing::{self, GridDims, TimingOptions, TimingReport};
use stencil_core::{BlockConfig, Dim, Grid2D, Grid3D, Real, Stencil2D, Stencil3D};
use stencil_core::{Result, StencilError};

/// A "synthesized" accelerator instance: a block configuration placed on a
/// device, with its resource, clock and power estimates resolved.
#[derive(Debug, Clone)]
pub struct Accelerator {
    device: FpgaDevice,
    config: BlockConfig,
    area: AreaEstimate,
    fmax_mhz: f64,
}

impl Accelerator {
    /// Checks the configuration against the device, sweeps `n_seeds`
    /// placement seeds for the best fmax, and returns the instance.
    ///
    /// # Errors
    /// Returns [`StencilError::InvalidConfig`] when the configuration is
    /// malformed or does not fit the device's DSP/BRAM budget.
    pub fn synthesize(device: FpgaDevice, config: BlockConfig, n_seeds: usize) -> Result<Self> {
        config.validate()?;
        if !config.fits_dsps(device.dsps as usize) {
            return Err(StencilError::InvalidConfig {
                reason: format!(
                    "config needs {} DSPs, device has {} (Eq. 5)",
                    config.dsps_used(),
                    device.dsps
                ),
            });
        }
        let area = AreaEstimate::for_config(&device, &config);
        if !area.fits(&device) {
            return Err(StencilError::InvalidConfig {
                reason: format!(
                    "config needs {} BRAM bits, device has {}",
                    area.bram_bits_physical, device.m20k_bits
                ),
            });
        }
        let fmax_mhz = FmaxModel::for_device(&device).sweep(&config, n_seeds.max(1));
        Ok(Self {
            device,
            config,
            area,
            fmax_mhz,
        })
    }

    /// The device this instance targets.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The block configuration.
    pub fn config(&self) -> &BlockConfig {
        &self.config
    }

    /// Resource estimate.
    pub fn area(&self) -> &AreaEstimate {
        &self.area
    }

    /// Achieved kernel clock, MHz.
    pub fn fmax_mhz(&self) -> f64 {
        self.fmax_mhz
    }

    /// Estimated board power at the achieved clock, watts.
    pub fn power_watts(&self) -> f64 {
        power::estimate_watts(&self.device, &self.area, self.fmax_mhz)
    }

    /// Timing-only simulation (no cell data) for a grid of `dims` and
    /// `iters` time steps.
    pub fn estimate_timing(&self, dims: GridDims, iters: usize) -> TimingReport {
        timing::simulate(
            &self.device,
            &self.config,
            dims,
            iters,
            &TimingOptions::at_fmax(self.fmax_mhz),
        )
    }

    /// Executes a 2D problem functionally *and* reports timing.
    ///
    /// # Panics
    /// Panics when the configuration is not 2D or radii disagree.
    pub fn run_2d<T: Real>(
        &self,
        stencil: &Stencil2D<T>,
        grid: &Grid2D<T>,
        iters: usize,
    ) -> (Grid2D<T>, TimingReport) {
        assert_eq!(self.config.dim, Dim::D2);
        let out = functional::run_2d(stencil, grid, &self.config, iters);
        let report = self.estimate_timing(
            GridDims::D2 {
                nx: grid.nx(),
                ny: grid.ny(),
            },
            iters,
        );
        (out, report)
    }

    /// Executes a 3D problem functionally *and* reports timing.
    ///
    /// # Panics
    /// Panics when the configuration is not 3D or radii disagree.
    pub fn run_3d<T: Real>(
        &self,
        stencil: &Stencil3D<T>,
        grid: &Grid3D<T>,
        iters: usize,
    ) -> (Grid3D<T>, TimingReport) {
        assert_eq!(self.config.dim, Dim::D3);
        let out = functional::run_3d(stencil, grid, &self.config, iters);
        let report = self.estimate_timing(
            GridDims::D3 {
                nx: grid.nx(),
                ny: grid.ny(),
                nz: grid.nz(),
            },
            iters,
        );
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    #[test]
    fn synthesize_paper_config() {
        let acc = Accelerator::synthesize(
            FpgaDevice::arria10_gx1150(),
            BlockConfig::new_2d(1, 4096, 8, 36).unwrap(),
            10,
        )
        .unwrap();
        assert!(acc.fmax_mhz() > 300.0);
        assert!(acc.power_watts() > 50.0 && acc.power_watts() < 80.0);
        assert_eq!(acc.area().dsps, 1440);
    }

    #[test]
    fn rejects_dsp_overflow() {
        // parvec*partime*dsps_per_cell > 1518.
        let cfg = BlockConfig::new_2d(1, 4096, 16, 40).unwrap();
        let err = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 1).unwrap_err();
        assert!(err.to_string().contains("DSPs"));
    }

    #[test]
    fn rejects_bram_overflow() {
        let cfg = BlockConfig::new_3d(4, 512, 512, 2, 4).unwrap();
        let err = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 1).unwrap_err();
        assert!(err.to_string().contains("BRAM"));
    }

    #[test]
    fn run_2d_matches_oracle_and_reports() {
        let cfg = BlockConfig::new_2d(2, 64, 4, 2).unwrap();
        let acc = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 3).unwrap();
        let st = Stencil2D::<f32>::random(2, 17).unwrap();
        let grid = Grid2D::from_fn(80, 40, |x, y| ((x + y) % 11) as f32).unwrap();
        let (out, report) = acc.run_2d(&st, &grid, 5);
        assert_eq!(out, exec::run_2d(&st, &grid, 5));
        assert_eq!(report.cell_updates, 80 * 40 * 5);
        assert!(report.gcell_per_s > 0.0);
    }

    #[test]
    fn run_3d_matches_oracle() {
        let cfg = BlockConfig::new_3d(1, 24, 24, 2, 4).unwrap();
        let acc = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 3).unwrap();
        let st = Stencil3D::<f32>::random(1, 99).unwrap();
        let grid = Grid3D::from_fn(20, 18, 9, |x, y, z| ((x * y + z) % 7) as f32).unwrap();
        let (out, _) = acc.run_3d(&st, &grid, 6);
        assert_eq!(out, exec::run_3d(&st, &grid, 6));
    }
}
