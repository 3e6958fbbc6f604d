//! Cycle-level timing simulation of the accelerator.
//!
//! The functional executors answer *what* the accelerator computes; this
//! module answers *how fast*, by replaying the exact block schedule and
//! external-memory request streams of the design against the [`ddr_model`]
//! substrate — without touching any cell data (timing depends only on
//! geometry), so the paper's full-size grids simulate in seconds.
//!
//! ## Cost model (per streamed row of one spatial block)
//!
//! The pipeline moves one `parvec`-cell vector per kernel cycle when nothing
//! stalls. Four things can stall it; the row's cost is the maximum of:
//!
//! 1. **compute occupancy** — `⌈width / parvec⌉` cycles;
//! 2. **read LSU occupancy** — one kernel cycle per 64-byte burst line each
//!    read request touches. A request that is not line-aligned touches two
//!    lines and stalls the pipeline for an extra cycle: this is §VI.A's
//!    "larger vectorized accesses … being split by the memory controller",
//!    the dominant loss for 3D kernels (`parvec = 16` ⇒ 64-byte requests);
//! 3. **write LSU occupancy** — same, for the write kernel;
//! 4. **DRAM service time** — the [`ddr_model::Channel`] cycles for the row's
//!    requests, converted to kernel cycles (`× fmax / fmem`). Reads and
//!    writes live in separate banks (dedicated mapping), as on the paper's
//!    board.
//!
//! On top of that the model charges the chain fill/drain (`partime · rad`
//! extra rows per block), a per-pass kernel-relaunch overhead, and the
//! device's calibrated `control_overhead` (residual multi-nested-loop
//! bookkeeping the paper folds into "pipeline efficiency").

use crate::device::FpgaDevice;
use ddr_model::{AccessKind, Channel, ChannelStats, Request};
use serde::{Deserialize, Serialize};
use stencil_core::{BlockConfig, Dim};

/// Grid extents for a timing run (no cell data is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridDims {
    /// 2D grid.
    D2 {
        /// Width.
        nx: usize,
        /// Height.
        ny: usize,
    },
    /// 3D grid.
    D3 {
        /// Width.
        nx: usize,
        /// Height.
        ny: usize,
        /// Depth (streamed).
        nz: usize,
    },
}

impl GridDims {
    /// Total number of cells.
    pub fn cells(&self) -> u64 {
        match *self {
            GridDims::D2 { nx, ny } => (nx * ny) as u64,
            GridDims::D3 { nx, ny, nz } => (nx * ny * nz) as u64,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> Dim {
        match self {
            GridDims::D2 { .. } => Dim::D2,
            GridDims::D3 { .. } => Dim::D3,
        }
    }
}

/// Knobs of a timing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingOptions {
    /// Kernel clock in MHz (from the fmax model, or the paper's measured
    /// values when re-scoring published configurations).
    pub fmax_mhz: f64,
    /// Sequential burst coalescing in the memory controller (on for the real
    /// board; off for the `memctrl` ablation).
    pub coalescing: bool,
    /// Host-side overhead per kernel pass (relaunch + event handling).
    pub pass_overhead_s: f64,
    /// Override the device's calibrated control overhead (None = use device).
    pub control_overhead: Option<f64>,
}

impl TimingOptions {
    /// Defaults for a given kernel clock.
    pub fn at_fmax(fmax_mhz: f64) -> Self {
        Self {
            fmax_mhz,
            coalescing: true,
            pass_overhead_s: 2e-4,
            control_overhead: None,
        }
    }
}

/// Result of a timing simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Kernel clock used.
    pub fmax_mhz: f64,
    /// Number of passes over the grid (`⌈iters / partime⌉`).
    pub passes: usize,
    /// Total kernel cycles including fill/drain and control overhead.
    pub kernel_cycles: u64,
    /// Wall-clock seconds (cycles / fmax + pass overheads).
    pub seconds: f64,
    /// Committed cell updates (grid cells × requested iterations; redundant
    /// halo computation is *not* counted, matching the paper's Eq. 3).
    pub cell_updates: u64,
    /// Billions of cell updates per second.
    pub gcell_per_s: f64,
    /// GFLOP/s (`gcell × FLOP-per-cell`).
    pub gflop_per_s: f64,
    /// Effective throughput GB/s (`gcell × 8`), the paper's headline metric.
    pub gbyte_per_s: f64,
    /// Cycles the pipeline would need with a perfect memory system.
    pub compute_cycles: u64,
    /// Kernel cycles the read LSU needed (≥ compute when requests split).
    pub read_lsu_cycles: u64,
    /// Kernel cycles the write LSU needed.
    pub write_lsu_cycles: u64,
    /// Rows whose cost was set by DRAM service time rather than the pipeline.
    pub ddr_bound_rows: u64,
    /// Read-channel statistics (one pass, scaled by passes).
    pub read_stats: ChannelStats,
    /// Write-channel statistics.
    pub write_stats: ChannelStats,
    /// Pipeline efficiency: compute cycles / total cycles. This is the
    /// quantity the paper's "model accuracy" column measures.
    pub pipeline_efficiency: f64,
}

impl TimingReport {
    /// A compact multi-line human-readable breakdown (for logs and debug
    /// sessions; the `tables` binary formats its own).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:.3} ms at {:.1} MHz over {} pass(es): {:.3} GCell/s, {:.1} GFLOP/s, {:.1} GB/s effective\n",
            self.seconds * 1e3,
            self.fmax_mhz,
            self.passes,
            self.gcell_per_s,
            self.gflop_per_s,
            self.gbyte_per_s
        ));
        out.push_str(&format!(
            "pipeline efficiency {:.1}% ({} of {} cycles are compute)\n",
            self.pipeline_efficiency * 100.0,
            self.compute_cycles,
            self.kernel_cycles
        ));
        out.push_str(&format!(
            "LSU cycles r/w {}/{}; split requests r/w {}/{}; DDR-bound rows {}\n",
            self.read_lsu_cycles,
            self.write_lsu_cycles,
            self.read_stats.split_requests,
            self.write_stats.split_requests,
            self.ddr_bound_rows
        ));
        out
    }
}

/// Runs the timing simulation.
///
/// # Panics
/// Panics when `config` and `dims` disagree in dimensionality or the config
/// is invalid.
pub fn simulate(
    device: &FpgaDevice,
    config: &BlockConfig,
    dims: GridDims,
    iters: usize,
    opts: &TimingOptions,
) -> TimingReport {
    assert_eq!(
        config.dim,
        dims.dim(),
        "config/grid dimensionality mismatch"
    );
    config.validate().expect("invalid block configuration");
    assert!(opts.fmax_mhz > 0.0, "fmax must be positive");

    let fmem = device.mem_controller_mhz();
    let fmax_over_fmem = opts.fmax_mhz / fmem;
    // Boards with more than two banks stripe each stream across half of
    // them (reads on one half, writes on the other); model the striping as
    // ideal parallelism on the DRAM side.
    let channels_per_stream = (device.mem_channels / 2).max(1) as f64;
    let mut sim = PassSim {
        read_ch: mk_channel(device, opts),
        write_ch: mk_channel(device, opts),
        parvec: config.parvec as u64,
        fmax_over_fmem,
        channels_per_stream,
        tally: Tally::default(),
    };

    // One pass is simulated; every pass is identical in timing (pass-through
    // PEs stream at the same rate), so the result is scaled by the count.
    match dims {
        GridDims::D2 { nx, ny } => sim.pass_2d(config, nx, ny),
        GridDims::D3 { nx, ny, nz } => sim.pass_3d(config, nx, ny, nz),
    }

    let pass = sim.totals();
    let passes = iters.div_ceil(config.partime).max(1);
    let control = opts.control_overhead.unwrap_or(device.control_overhead);
    let pass_cycles = (pass.total_cycles as f64 * (1.0 + control)).round() as u64;
    let kernel_cycles = pass_cycles * passes as u64;
    let seconds =
        kernel_cycles as f64 / (opts.fmax_mhz * 1e6) + passes as f64 * opts.pass_overhead_s;

    let cell_updates = dims.cells() * iters as u64;
    let gcell = cell_updates as f64 / seconds / 1e9;
    let flops = config.dim.flops_per_cell(config.rad) as f64;
    let mut read_stats = pass.read;
    let mut write_stats = pass.write;
    scale_stats(&mut read_stats, passes as u64);
    scale_stats(&mut write_stats, passes as u64);

    TimingReport {
        fmax_mhz: opts.fmax_mhz,
        passes,
        kernel_cycles,
        seconds,
        cell_updates,
        gcell_per_s: gcell,
        gflop_per_s: gcell * flops,
        gbyte_per_s: gcell * 8.0,
        compute_cycles: pass.compute_cycles * passes as u64,
        read_lsu_cycles: pass.read_lsu * passes as u64,
        write_lsu_cycles: pass.write_lsu * passes as u64,
        ddr_bound_rows: pass.ddr_bound_rows * passes as u64,
        read_stats,
        write_stats,
        pipeline_efficiency: pass.compute_cycles as f64 * passes as f64 / kernel_cycles as f64,
    }
}

fn mk_channel(device: &FpgaDevice, opts: &TimingOptions) -> Channel {
    let ch = Channel::new(device.mem_timings);
    if opts.coalescing {
        ch
    } else {
        ch.without_coalescing()
    }
}

fn scale_stats(s: &mut ChannelStats, k: u64) {
    s.requests *= k;
    s.split_requests *= k;
    s.lines_charged *= k;
    s.row_misses *= k;
    s.turnarounds *= k;
    s.useful_bytes *= k;
    s.busy_cycles *= k;
}

/// Every counter of a pass: the running totals of a [`PassSim`], or what
/// one simulated plane added to them.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    total_cycles: u64,
    compute_cycles: u64,
    read_lsu: u64,
    write_lsu: u64,
    ddr_bound_rows: u64,
    read: ChannelStats,
    write: ChannelStats,
}

impl Tally {
    fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            total_cycles: self.total_cycles - earlier.total_cycles,
            compute_cycles: self.compute_cycles - earlier.compute_cycles,
            read_lsu: self.read_lsu - earlier.read_lsu,
            write_lsu: self.write_lsu - earlier.write_lsu,
            ddr_bound_rows: self.ddr_bound_rows - earlier.ddr_bound_rows,
            read: self.read.since(&earlier.read),
            write: self.write.since(&earlier.write),
        }
    }

    fn add(&mut self, other: &Tally) {
        self.total_cycles += other.total_cycles;
        self.compute_cycles += other.compute_cycles;
        self.read_lsu += other.read_lsu;
        self.write_lsu += other.write_lsu;
        self.ddr_bound_rows += other.ddr_bound_rows;
        self.read.merge(&other.read);
        self.write.merge(&other.write);
    }
}

/// State for simulating one pass.
struct PassSim {
    read_ch: Channel,
    write_ch: Channel,
    parvec: u64,
    fmax_over_fmem: f64,
    /// DRAM channels each stream stripes across (≥ 1).
    channels_per_stream: f64,
    /// Counters so far. Its channel statistics count only the planes the 3D
    /// replay repeats instead of simulating; the channels count the rest.
    tally: Tally,
}

impl PassSim {
    /// Every counter so far, the channels' statistics included.
    fn totals(&self) -> Tally {
        let mut t = self.tally;
        t.read.merge(self.read_ch.stats());
        t.write.merge(self.write_ch.stats());
        t
    }

    /// Cost of one streamed row: reads `read_cells` from `read_addr`
    /// (vector-granular, sequential), writes `write_cells` to `write_addr`.
    fn row(&mut self, read_addr: u64, read_cells: u64, write_addr: u64, write_cells: u64) {
        let vb = self.parvec * 4; // bytes per vector request
        let line = 64u64;

        let nread = read_cells.div_ceil(self.parvec);
        let mut read_lsu = 0u64;
        let mut read_ddr = 0u64;
        for i in 0..nread {
            let req = Request {
                addr: read_addr + i * vb,
                bytes: vb,
                kind: AccessKind::Read,
            };
            read_lsu += req.lines_touched(line);
            read_ddr += self.read_ch.service(&req);
        }

        let nwrite = write_cells.div_ceil(self.parvec);
        let mut write_lsu = 0u64;
        let mut write_ddr = 0u64;
        for i in 0..nwrite {
            let req = Request {
                addr: write_addr + i * vb,
                bytes: vb,
                kind: AccessKind::Write,
            };
            write_lsu += req.lines_touched(line);
            write_ddr += self.write_ch.service(&req);
        }

        let compute = nread; // one vector per cycle
        let read_ddr_k =
            (read_ddr as f64 / self.channels_per_stream * self.fmax_over_fmem).ceil() as u64;
        let write_ddr_k =
            (write_ddr as f64 / self.channels_per_stream * self.fmax_over_fmem).ceil() as u64;
        let cost = compute
            .max(read_lsu)
            .max(write_lsu)
            .max(read_ddr_k)
            .max(write_ddr_k);
        if cost == read_ddr_k.max(write_ddr_k) && cost > compute.max(read_lsu).max(write_lsu) {
            self.tally.ddr_bound_rows += 1;
        }
        self.tally.compute_cycles += compute;
        self.tally.read_lsu += read_lsu;
        self.tally.write_lsu += write_lsu;
        self.tally.total_cycles += cost;
    }

    fn pass_2d(&mut self, config: &BlockConfig, nx: usize, ny: usize) {
        let halo = config.halo() as u64;
        // Input buffer padded by `halo` cells so block 0's read region starts
        // at address 0 (the paper's padding optimization).
        let in_pad = halo;
        for span in config.spans_x(nx) {
            let read_cells = span.read_len() as u64;
            let write_cells = span.comp_len() as u64;
            for y in 0..ny as u64 {
                let read_addr =
                    (in_pad as i64 + (y * nx as u64) as i64 + span.read_start as i64) as u64 * 4;
                let write_addr = (y * nx as u64 + span.comp_start as u64) * 4;
                self.row(read_addr, read_cells, write_addr, write_cells);
            }
            // Chain fill/drain: partime·rad extra rows stream through.
            let extra_rows = (config.partime * config.rad) as u64;
            self.tally.total_cycles += extra_rows * read_cells.div_ceil(self.parvec);
        }
    }

    fn pass_3d(&mut self, config: &BlockConfig, nx: usize, ny: usize, nz: usize) {
        let halo = config.halo() as u64;
        let in_pad = halo * (nx as u64 + 1);
        let plane = (nx * ny) as u64;
        let spans_y = config.spans_y(ny);
        let spans_x = config.spans_x(nx);
        for sy in &spans_y {
            for sx in &spans_x {
                let read_cells = sx.read_len() as u64;
                let write_cells = sx.comp_len() as u64;
                let height = sy.read_len() as u64;

                // Plane alignment phases: the request pattern of plane z
                // repeats with period `64 / gcd(plane·4, 64)` planes; simulate
                // one plane per phase and repeat what it added to every
                // counter for the remaining planes.
                let plane_bytes = plane * 4;
                let period = (64 / gcd(plane_bytes, 64)).max(1) as usize;
                let phases = period.min(nz);
                let mut phase_cost = Vec::with_capacity(phases);
                for z in 0..phases as u64 {
                    let before = self.totals();
                    for i in 0..height {
                        let gy = sy.read_start as i64 + i as i64;
                        let read_addr = (in_pad as i64
                            + ((z * ny as u64) as i64 + gy) * nx as i64
                            + sx.read_start as i64) as u64
                            * 4;
                        // Writes only for rows inside the y compute region.
                        let wy = sy.read_start as i64 + i as i64;
                        let in_comp = wy >= sy.comp_start as i64 && wy < sy.comp_end as i64;
                        let write_addr =
                            ((z * ny as u64) as i64 + wy.max(0)) as u64 * nx as u64 * 4
                                + sx.comp_start as u64 * 4;
                        self.row(
                            read_addr,
                            read_cells,
                            write_addr,
                            if in_comp { write_cells } else { 0 },
                        );
                    }
                    phase_cost.push(self.totals().since(&before));
                }
                // Remaining planes (only when `nz > period`, so `phases` is
                // the full period): repeat the cost of their phase.
                for z in phases..nz {
                    self.tally.add(&phase_cost[z % phases]);
                }
                // Chain fill/drain in planes.
                let extra_planes = (config.partime * config.rad) as u64;
                self.tally.total_cycles += extra_planes * height * read_cells.div_ceil(self.parvec);
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
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
    fn report_identities() {
        let cfg = BlockConfig::new_2d(1, 256, 4, 4).unwrap();
        let dims = GridDims::D2 { nx: 496, ny: 128 };
        let r = simulate(&arria(), &cfg, dims, 8, &TimingOptions::at_fmax(300.0));
        assert_eq!(r.passes, 2);
        assert_eq!(r.cell_updates, 496 * 128 * 8);
        // gflop = gcell * flops, gbyte = gcell * 8.
        assert!((r.gflop_per_s - r.gcell_per_s * 9.0).abs() < 1e-9);
        assert!((r.gbyte_per_s - r.gcell_per_s * 8.0).abs() < 1e-9);
        assert!(r.seconds > 0.0);
        assert!(r.pipeline_efficiency > 0.0 && r.pipeline_efficiency <= 1.0);
    }

    #[test]
    fn more_iterations_take_longer() {
        let cfg = BlockConfig::new_2d(1, 256, 4, 4).unwrap();
        let dims = GridDims::D2 { nx: 496, ny: 256 };
        let a = simulate(&arria(), &cfg, dims, 4, &TimingOptions::at_fmax(300.0));
        let b = simulate(&arria(), &cfg, dims, 16, &TimingOptions::at_fmax(300.0));
        assert!(b.seconds > a.seconds);
        assert_eq!(b.passes, 4);
    }

    #[test]
    fn higher_fmax_is_faster_when_compute_bound() {
        let cfg = BlockConfig::new_2d(2, 512, 4, 4).unwrap();
        let dims = GridDims::D2 { nx: 960, ny: 512 };
        let slow = simulate(&arria(), &cfg, dims, 8, &TimingOptions::at_fmax(200.0));
        let fast = simulate(&arria(), &cfg, dims, 8, &TimingOptions::at_fmax(300.0));
        assert!(fast.seconds < slow.seconds);
    }

    #[test]
    fn wide_vectors_split_and_hurt_efficiency() {
        // parvec 16 => 64 B requests; a grid whose row stride is an odd
        // multiple of 32 B makes half the rows unaligned (the 3D mechanism).
        let cfg16 = BlockConfig::new_3d(1, 64, 64, 16, 4).unwrap();
        let dims = GridDims::D3 {
            nx: 72,
            ny: 72,
            nz: 40,
        };
        let r16 = simulate(&arria(), &cfg16, dims, 4, &TimingOptions::at_fmax(280.0));
        assert!(
            r16.read_stats.split_requests > 0,
            "expected splits with 64 B unaligned requests"
        );
        // Narrow vectors on the same grid: 8 B requests never split.
        let cfg2 = BlockConfig::new_3d(1, 64, 64, 2, 4).unwrap();
        let r2 = simulate(&arria(), &cfg2, dims, 4, &TimingOptions::at_fmax(280.0));
        assert_eq!(r2.read_stats.split_requests, 0);
        assert!(r16.pipeline_efficiency < r2.pipeline_efficiency + 0.3);
    }

    #[test]
    fn temporal_blocking_beats_external_bandwidth() {
        // The paper's core claim: effective GB/s above the 34.1 GB/s peak.
        let cfg = BlockConfig::new_2d(1, 1024, 8, 16).unwrap();
        let nx = 4 * cfg.csize_x();
        let dims = GridDims::D2 { nx, ny: 4096 };
        let r = simulate(&arria(), &cfg, dims, 160, &TimingOptions::at_fmax(340.0));
        assert!(
            r.gbyte_per_s > 34.128,
            "effective throughput {} should beat the memory roofline",
            r.gbyte_per_s
        );
    }

    #[test]
    fn repeated_3d_planes_count_in_every_counter() {
        // 72·72·4 B planes: the request pattern repeats every 4 planes, so
        // 36 of the 40 planes per block are repeated rather than replayed.
        let cfg = BlockConfig::new_3d(1, 64, 64, 16, 4).unwrap();
        let (nx, ny, nz) = (72usize, 72usize, 40usize);
        let r = simulate(
            &arria(),
            &cfg,
            GridDims::D3 { nx, ny, nz },
            8,
            &TimingOptions::at_fmax(280.0),
        );
        assert_eq!(r.passes, 2);
        let vectors = |cells: usize| cells.div_ceil(cfg.parvec) as u64;
        let (mut reads, mut writes) = (0u64, 0u64);
        for sy in cfg.spans_y(ny) {
            for sx in cfg.spans_x(nx) {
                reads += (sy.read_len() * nz) as u64 * vectors(sx.read_len());
                writes += (sy.comp_len() * nz) as u64 * vectors(sx.comp_len());
            }
        }
        assert_eq!(r.read_stats.requests, reads * 2);
        assert_eq!(r.write_stats.requests, writes * 2);
        // One vector per compute cycle: the compute cycles are the read
        // vectors, and every read request takes at least one LSU cycle.
        assert_eq!(r.compute_cycles, reads * 2);
        assert!(r.read_stats.split_requests > 0);
        assert!(
            r.read_lsu_cycles >= r.compute_cycles + r.read_stats.split_requests,
            "{r:?}"
        );
        assert!(r.write_lsu_cycles >= r.write_stats.requests);
    }

    #[test]
    fn pass_overhead_counts() {
        let cfg = BlockConfig::new_2d(1, 256, 4, 4).unwrap();
        let dims = GridDims::D2 { nx: 496, ny: 64 };
        let mut o = TimingOptions::at_fmax(300.0);
        o.pass_overhead_s = 0.0;
        let a = simulate(&arria(), &cfg, dims, 4, &o);
        o.pass_overhead_s = 1.0;
        let b = simulate(&arria(), &cfg, dims, 4, &o);
        assert!((b.seconds - a.seconds - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        let cfg = BlockConfig::new_2d(1, 256, 4, 4).unwrap();
        let _ = simulate(
            &arria(),
            &cfg,
            GridDims::D3 {
                nx: 8,
                ny: 8,
                nz: 8,
            },
            1,
            &TimingOptions::at_fmax(300.0),
        );
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use crate::device::FpgaDevice;

    #[test]
    fn summary_mentions_the_key_quantities() {
        let cfg = BlockConfig::new_2d(1, 256, 4, 4).unwrap();
        let r = simulate(
            &FpgaDevice::arria10_gx1150(),
            &cfg,
            GridDims::D2 { nx: 496, ny: 128 },
            8,
            &TimingOptions::at_fmax(300.0),
        );
        let s = r.summary();
        assert!(s.contains("GCell/s"));
        assert!(s.contains("pipeline efficiency"));
        assert!(s.contains("split requests"));
        assert!(s.lines().count() >= 3);
    }
}
