//! §V.B experiment: temporal blocking helps the FPGA enormously; the paper
//! finds it ineffective on cache-based CPUs.
//!
//! The FPGA half shows the simulated design, where deeper chains scale
//! nearly linearly. On the host CPU the example then runs the design's
//! temporal blocking — overlapped spatial blocks, each streamed through a
//! `partime`-deep chain of fused time steps, the schedule YASK offers on
//! CPUs as wave-front tiling — on `fpga_sim::functional` at `partime` 1, 2,
//! 4 and 8, against the flat rayon-parallel sweep (`engines::parallel_2d`).
//! Both arms run the same 8-lane compiled row kernel, so the gap between
//! them is the schedule: cache reuse across fused steps against the halo
//! the blocks recompute and the per-block overhead. Radius 4 keeps every
//! depth legal under Eq. 6, so `partime` 1 is the chain without fusion.
//! Every arm is checked bit for bit against the reference executor, and
//! each chain arm's lane width and halo share come from the engine's own
//! `SimCounters`.
//!
//! ```text
//! cargo run --release --example cpu_temporal_blocking
//! ```

use cpu_engine::measure;
use fpga_sim::functional;
use high_order_stencil::prelude::*;

/// Timed repetitions per arm; each arm reports its fastest.
const REPS: usize = 5;

/// Committed cells per block along x; each chain's block adds its halo,
/// `bsize_x = CSIZE + 2 · partime · rad`.
const CSIZE: usize = 512;

/// Vector width of the chain arms: the CPU engines' row-kernel width.
const PARVEC: usize = 8;

/// Runs `run` [`REPS`] times; returns the last result and the fastest time.
fn best_of<R>(run: impl Fn() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let (r, secs) = measure::time(&run);
        best = best.min(secs);
        out = Some(r);
    }
    (out.expect("REPS > 0"), best)
}

/// Times the flat sweep and the chain at each depth on an `n × n` grid,
/// then prints fusion's effect on the chain and the best fused arm's rate
/// relative to the flat sweep.
fn cpu_arms(stencil: &Stencil2D<f32>, n: usize, iters: usize) {
    let rad = stencil.radius();
    let grid = Grid2D::from_fn(n, n, |x, y| ((x ^ y) % 97) as f32).unwrap();
    let oracle = exec::run_2d(stencil, &grid, iters);
    let rate = |secs| measure::gcells_per_s(grid.len(), iters, secs);
    println!("\n{n}x{n} grid:");

    let (out, secs) = best_of(|| engines::parallel_2d(stencil, &grid, iters));
    assert_eq!(out, oracle, "the flat sweep must stay bit-exact");
    let flat = rate(secs);
    println!("  flat sweep (parallel_2d):  {flat:>6.3} GCell/s");

    let mut chain = Vec::new();
    for partime in [1, 2, 4, 8] {
        let cfg = BlockConfig::new_2d(rad, CSIZE + 2 * partime * rad, PARVEC, partime).unwrap();
        let ((out, counters), secs) =
            best_of(|| functional::run_2d_instrumented(stencil, &grid, &cfg, iters));
        assert_eq!(out, oracle, "partime {partime} must stay bit-exact");
        assert_eq!(counters.lane_width, PARVEC as u64, "8-lane row kernel");
        let g = rate(secs);
        println!(
            "  chain, partime {partime}:          {g:>6.3} GCell/s  (lanes {}, halo {:>4.1}% of computed cells)",
            counters.lane_width,
            100.0 * counters.halo_fraction()
        );
        chain.push((partime, g));
    }

    let (depth, fused) = chain[1..]
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("fused arms ran");
    println!(
        "  measured: fusion moves the chain {:.2}x (partime 1 -> {depth}); \
         the best fused arm runs at {:.2}x the flat sweep",
        fused / chain[0].1,
        fused / flat
    );
}

fn main() {
    // FPGA: the timing model's chain depth sweep at full scale.
    let rad = 2;
    println!("Simulated Arria 10, radius-{rad} stencil at full scale (chain depth sweep):");
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

    // Host CPU: the same schedule against the flat sweep.
    let rad = 4;
    let iters = 16;
    let stencil = Stencil2D::<f32>::random(rad, 7).unwrap();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nHost CPU, radius-{rad} stencil, {iters} steps, csize {CSIZE}, parvec {PARVEC}; \
         best of {REPS} runs on {threads} host threads:"
    );
    for n in [768, 2048] {
        cpu_arms(&stencil, n, iters);
    }
}
