//! §V.B experiment: temporal blocking helps the FPGA enormously; the paper
//! finds it ineffective on cache-based CPUs.
//!
//! The example measures, on the host CPU, a plain cache-tiled sweep against
//! overlapped temporal wave-front blocking at several fusion depths, and
//! contrasts that with the FPGA simulator where deeper chains scale nearly
//! linearly. The CPU comparison does not isolate temporal blocking yet: the
//! tiled sweep runs the 8-lane compiled row kernel, while the wave-front's
//! fused steps run a scalar per-cell loop, so most of the gap it prints is
//! the difference between the two row loops.
//!
//! ```text
//! cargo run --release --example cpu_temporal_blocking
//! ```

use high_order_stencil::prelude::*;

fn main() {
    let rad = 2;
    let stencil = Stencil2D::<f32>::random(rad, 7).unwrap();
    let grid = Grid2D::from_fn(768, 768, |x, y| ((x ^ y) % 97) as f32).unwrap();
    let iters = 16;

    println!(
        "2D radius-{rad} stencil, {}x{} grid, {iters} steps\n",
        grid.nx(),
        grid.ny()
    );

    // Host CPU: flat sweep vs wave-front temporal blocking.
    let oracle = exec::run_2d(&stencil, &grid, iters);
    let (flat, flat_secs) = cpu_engine::measure::time(|| {
        cpu_engine::tiled_2d(&stencil, &grid, iters, Tile::yask_default())
    });
    assert_eq!(flat, oracle);
    let flat_g = cpu_engine::measure::gcells_per_s(grid.len(), iters, flat_secs);
    println!("CPU tiled (no temporal blocking):      {flat_g:>7.3} GCell/s  (baseline)");

    for tsteps in [2usize, 4, 8] {
        let (wf, secs) = cpu_engine::measure::time(|| {
            cpu_engine::wavefront_2d(&stencil, &grid, iters, 128, tsteps)
        });
        assert_eq!(wf, oracle, "wavefront must stay bit-exact");
        let g = cpu_engine::measure::gcells_per_s(grid.len(), iters, secs);
        let redundant =
            cpu_engine::wavefront::wavefront_work_2d(grid.nx(), grid.ny(), iters, 128, tsteps, rad)
                as f64
                / (grid.len() * iters) as f64;
        println!(
            "CPU wave-front, {tsteps} fused steps:         {g:>7.3} GCell/s  ({:.0}% redundant work)",
            (redundant - 1.0) * 100.0
        );
    }

    // FPGA: the same experiment via the timing model — partime scaling.
    println!("\nSimulated Arria 10, same stencil at full scale (chain depth sweep):");
    let device = FpgaDevice::arria10_gx1150();
    for partime in [2usize, 6, 14, 42] {
        if let Ok(cfg) = BlockConfig::new_2d(rad, 4096, 4, partime) {
            if !cfg.fits_dsps(1518) {
                continue;
            }
            let acc = Accelerator::synthesize(device.clone(), cfg, 5).unwrap();
            let nx = BlockConfig::aligned_input(16000, cfg.csize_x());
            let r = acc.estimate_timing(GridDims::D2 { nx, ny: nx }, 84);
            println!(
                "  partime {partime:>3}: {:>7.2} GCell/s ({:>6.1} GB/s effective vs 34.1 GB/s DRAM)",
                r.gcell_per_s, r.gbyte_per_s
            );
        }
    }
    println!("\nFPGA throughput scales with chain depth. The CPU gap above does not yet");
    println!("reproduce §V.B: the wave-front's fused steps run a scalar per-cell loop and");
    println!("the tiled sweep the 8-lane compiled row kernel, so the gap is mostly the");
    println!("row loops, not temporal blocking.");
}
