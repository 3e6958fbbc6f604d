//! Standalone stencil benchmark binary — the role the modified baseline
//! from Maruyama & Aoki \[12\] plays in the paper's §IV.A: a configurable
//! high-order star-stencil benchmark with validation.
//!
//! ```text
//! stencil_bench [--dim 2|3] [--rad R] [--nx N] [--ny N] [--nz N]
//!               [--iters I]
//!               [--engine naive|parallel|folded|functional|fpga|tiled]
//!               [--validate]
//! stencil_bench --simulator-matrix [--quick] [--out BENCH_simulator.json]
//! stencil_bench --check-matrix FILE
//! ```
//!
//! Prints GCell/s and GFLOP/s for the chosen engine; `--validate` checks the
//! result bit-exactly against the reference executor first. Every engine
//! runs in both dimensions except `tiled`, which is 3D only. The
//! `functional` engine runs the block-parallel FPGA simulator (overlapped
//! blocks, fused time steps) and prints its [`SimCounters`] as a one-line
//! JSON record (`counters: {...}`).
//!
//! `--simulator-matrix` sweeps a fixed configuration matrix (2D radius 1–4
//! and 3D radius 1–4) over the functional simulator, timing three data
//! paths — the frozen serial baseline, the block-parallel scalar path
//! (lane width 1, the pre-SIMD data path), and the block-parallel
//! lane-vectorized path (lane width = `parvec`) — and writes cells/s for
//! each plus both speedups and the run's counters to `BENCH_simulator.json`.
//! The same file gains a kernel-IR section — rows discriminated by a
//! `kernel_class` field — sweeping box / asymmetric / star descriptors
//! through the 3-way comparison the kernel specializer is built around:
//! the frozen generic-reference interpreter, the scalar (lane width 1)
//! compiled kernel, and the lane-vectorized specialized kernel, with all
//! three checked bit-exact against each other before timings are recorded.
//! `--quick` shrinks the grids and times a single repetition so the matrix
//! doubles as a CI smoke test; `--check-matrix FILE` validates an emitted
//! JSON file against the documented schema (exit 2 on mismatch).

use cpu_engine::{engines, measure, Tile};
use fpga_sim::{functional, Accelerator, FpgaDevice, SimCounters};
use serde::Serialize;
use stencil_core::{
    compile_2d, compile_3d, exec, kernel_ir, BlockConfig, BoundaryCond, Grid2D, Grid3D,
    KernelClass, KernelDesc, Stencil2D, Stencil3D,
};

#[derive(Debug)]
struct Args {
    dim: usize,
    rad: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    iters: usize,
    engine: String,
    validate: bool,
    matrix: bool,
    quick: bool,
    check: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        dim: 2,
        rad: 2,
        nx: 512,
        ny: 512,
        nz: 64,
        iters: 8,
        engine: "parallel".into(),
        validate: false,
        matrix: false,
        quick: false,
        check: None,
        out: "BENCH_simulator.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).unwrap_or_else(|| usage()).clone()
        };
        match argv[i].as_str() {
            "--dim" => a.dim = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rad" => a.rad = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nx" => a.nx = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--ny" => a.ny = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nz" => a.nz = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--iters" => a.iters = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--engine" => a.engine = take(&mut i),
            "--validate" => a.validate = true,
            "--simulator-matrix" => a.matrix = true,
            "--quick" => a.quick = true,
            "--check-matrix" => a.check = Some(take(&mut i)),
            "--out" => a.out = take(&mut i),
            "--help" | "-h" => {
                usage();
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    if a.rad == 0 || a.rad > 8 || (a.dim != 2 && a.dim != 3) {
        usage();
    }
    a
}

fn usage() -> ! {
    eprintln!(
        "usage: stencil_bench [--dim 2|3] [--rad R] [--nx N] [--ny N] [--nz N] \
         [--iters I] [--engine naive|parallel|folded|functional|fpga|tiled (3D only)] \
         [--validate]\n       stencil_bench --simulator-matrix [--quick] [--out FILE]\
         \n       stencil_bench --check-matrix FILE"
    );
    std::process::exit(2);
}

fn main() {
    let a = parse_args();
    if let Some(file) = &a.check {
        check_matrix(file);
        return;
    }
    if a.matrix {
        simulator_matrix(&a.out, a.quick);
        return;
    }
    println!(
        "stencil_bench: {}D star, radius {}, grid {}x{}{}, {} iterations, engine {}",
        a.dim,
        a.rad,
        a.nx,
        a.ny,
        if a.dim == 3 {
            format!("x{}", a.nz)
        } else {
            String::new()
        },
        a.iters,
        a.engine
    );

    if a.dim == 2 {
        run_2d(&a);
    } else {
        run_3d(&a);
    }
}

fn run_2d(a: &Args) {
    let st = Stencil2D::<f32>::random(a.rad, 1).unwrap();
    let grid = Grid2D::from_fn(a.nx, a.ny, |x, y| ((x * 31 + y * 17) % 103) as f32).unwrap();
    let (out, secs) = match a.engine.as_str() {
        "naive" => measure::time(|| engines::naive_2d(&st, &grid, a.iters)),
        "parallel" => measure::time(|| engines::parallel_2d(&st, &grid, a.iters)),
        "folded" => measure::time(|| cpu_engine::folded_run_2d(&st, &grid, a.iters)),
        "functional" => {
            let cfg = BlockConfig::new_2d(a.rad, 128, 4, 4 / gcd(a.rad, 4)).unwrap();
            let ((out, counters), secs) =
                measure::time(|| functional::run_2d_instrumented(&st, &grid, &cfg, a.iters));
            print_counters(&counters);
            (out, secs)
        }
        "fpga" => {
            let cfg = BlockConfig::new_2d(a.rad, 128, 4, 4 / gcd(a.rad, 4)).unwrap();
            let acc = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 5).unwrap();
            let ((out, report), secs) = measure::time(|| acc.run_2d(&st, &grid, a.iters));
            println!(
                "  fpga model: {:.3} GCell/s at fmax {:.0} MHz (host sim took {:.2}s)",
                report.gcell_per_s, report.fmax_mhz, secs
            );
            (out, secs)
        }
        _ => usage(),
    };
    report(a, out.as_slice().len(), secs, st.flops_per_cell());
    if a.validate {
        assert_eq!(out, exec::run_2d(&st, &grid, a.iters), "validation failed");
        println!("  validation: bit-exact vs the reference executor ✓");
    }
}

fn run_3d(a: &Args) {
    let st = Stencil3D::<f32>::random(a.rad, 1).unwrap();
    let grid = Grid3D::from_fn(a.nx, a.ny, a.nz, |x, y, z| {
        ((x + 3 * y + 7 * z) % 53) as f32
    })
    .unwrap();
    let (out, secs) = match a.engine.as_str() {
        "naive" => measure::time(|| engines::naive_3d(&st, &grid, a.iters)),
        "tiled" => measure::time(|| engines::tiled_3d(&st, &grid, a.iters, Tile::yask_default())),
        "parallel" => measure::time(|| engines::parallel_3d(&st, &grid, a.iters)),
        "folded" => measure::time(|| cpu_engine::folded_run_3d(&st, &grid, a.iters)),
        "functional" => {
            let cfg = BlockConfig::new_3d(a.rad, 48, 48, 2, 4 / gcd(a.rad, 4)).unwrap();
            let ((out, counters), secs) =
                measure::time(|| functional::run_3d_instrumented(&st, &grid, &cfg, a.iters));
            print_counters(&counters);
            (out, secs)
        }
        "fpga" => {
            let cfg = BlockConfig::new_3d(a.rad, 48, 48, 2, 4 / gcd(a.rad, 4)).unwrap();
            let acc = Accelerator::synthesize(FpgaDevice::arria10_gx1150(), cfg, 5).unwrap();
            let ((out, r), secs) = measure::time(|| acc.run_3d(&st, &grid, a.iters));
            println!(
                "  fpga model: {:.3} GCell/s at fmax {:.0} MHz (host sim took {:.2}s)",
                r.gcell_per_s, r.fmax_mhz, secs
            );
            (out, secs)
        }
        _ => usage(),
    };
    report(a, out.as_slice().len(), secs, st.flops_per_cell());
    if a.validate {
        assert_eq!(out, exec::run_3d(&st, &grid, a.iters), "validation failed");
        println!("  validation: bit-exact vs the reference executor ✓");
    }
}

fn report(a: &Args, cells: usize, secs: f64, flops_per_cell: usize) {
    let gcells = measure::gcells_per_s(cells, a.iters, secs);
    println!(
        "  host wall time {secs:.3}s: {:.4} GCell/s, {:.2} GFLOP/s",
        gcells,
        gcells * flops_per_cell as f64
    );
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn print_counters(c: &SimCounters) {
    println!(
        "  counters: {}",
        serde_json::to_string(c).expect("counters serialize")
    );
}

/// One row of `BENCH_simulator.json`: a fixed simulator configuration timed
/// on the frozen serial data path, the block-parallel scalar path (lane
/// width 1) and the block-parallel lane-vectorized path (lane width =
/// `parvec`).
#[derive(Debug, Serialize)]
struct MatrixEntry {
    dim: usize,
    rad: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    iters: usize,
    partime: usize,
    parvec: usize,
    /// Lane width the vectorized run executed with (`counters.lane_width`).
    lanes: u64,
    blocks: u64,
    serial_secs: f64,
    scalar_secs: f64,
    parallel_secs: f64,
    serial_cells_per_s: f64,
    scalar_cells_per_s: f64,
    parallel_cells_per_s: f64,
    /// Vectorized parallel path vs the frozen serial baseline.
    speedup: f64,
    /// Vectorized parallel path vs the scalar (lane width 1) parallel path.
    speedup_vs_scalar: f64,
    counters: SimCounters,
}

/// One kernel-IR row of `BENCH_simulator.json`: a declarative [`KernelDesc`]
/// timed on the frozen generic-reference interpreter, the compiled kernel
/// at lane width 1 (the scalar generic path), and the compiled kernel at
/// full lane width (the runtime-specialized path). The `kernel_class` field
/// discriminates these rows from the legacy star-matrix entries, which stay
/// byte-compatible with the old schema.
#[derive(Debug, Serialize)]
struct KernelMatrixEntry {
    /// Tap family (`star`/`box`/`asymmetric`).
    kernel_class: String,
    /// Boundary condition (`clamp`/`periodic`/`reflective`).
    boundary: String,
    dim: usize,
    rad: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    iters: usize,
    /// Taps in the desc (the per-cell multiply count).
    taps: usize,
    /// Lane width the specialized run executed with.
    lanes: u64,
    reference_secs: f64,
    scalar_secs: f64,
    specialized_secs: f64,
    reference_cells_per_s: f64,
    scalar_cells_per_s: f64,
    specialized_cells_per_s: f64,
    /// Specialized path vs the frozen generic-reference interpreter.
    speedup: f64,
    /// Specialized path vs the scalar (lane width 1) compiled kernel.
    speedup_vs_scalar: f64,
}

/// Sweeps the fixed configuration matrix — 2D and 3D, radius 1 through 4 —
/// comparing `functional::run_*_serial` (the seed's single-thread per-cell
/// data path) with the block-parallel zero-allocation path, and writes the
/// table to `out`.
/// Timed repetitions per matrix measurement; the best (minimum) time is
/// recorded so OS scheduling noise does not swamp the comparison.
const MATRIX_REPS: usize = 3;

/// Runs `f` `reps` times and returns the last result together with the
/// fastest observed wall time.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut result, mut best) = measure::time(&mut f);
    for _ in 1..reps {
        let (r, secs) = measure::time(&mut f);
        result = r;
        best = best.min(secs);
    }
    (result, best)
}

/// Sweeps the kernel-IR shapes — box/asymmetric/star tap families under
/// non-clamp boundaries — timing the frozen generic-reference interpreter,
/// the compiled kernel at lane width 1 (scalar generic), and the compiled
/// kernel at `engines::CPU_LANES` (specialized). Every path is verified
/// bit-exact against the reference before its timing is recorded.
fn kernel_matrix(quick: bool, reps: usize) -> Vec<KernelMatrixEntry> {
    let shapes: &[(usize, KernelClass, BoundaryCond, usize)] = &[
        (2, KernelClass::Box, BoundaryCond::Periodic, 2),
        (2, KernelClass::Box, BoundaryCond::Clamp, 4),
        (2, KernelClass::Asymmetric, BoundaryCond::Reflective, 3),
        (2, KernelClass::Star, BoundaryCond::Clamp, 4),
        (3, KernelClass::Box, BoundaryCond::Periodic, 2),
    ];
    let mut entries = Vec::new();
    for &(dim, class, boundary, rad) in shapes {
        let seed = rad as u64;
        let entry = if dim == 2 {
            let desc = match class {
                KernelClass::Star => KernelDesc::star_2d(rad, seed, boundary),
                KernelClass::Box => KernelDesc::box_2d(rad, seed, boundary),
                KernelClass::Asymmetric => KernelDesc::asymmetric_2d(rad, seed, boundary),
            }
            .unwrap();
            let (nx, ny, iters) = if quick { (256, 64, 2) } else { (1024, 384, 8) };
            let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 31 + y * 17) % 103) as f32).unwrap();
            let (reference, reference_secs) =
                time_best(reps, || kernel_ir::reference_run_2d(&desc, &grid, iters));
            let scalar_kernel = compile_2d::<f32>(&desc, 1).unwrap();
            let (scalar, scalar_secs) = time_best(reps, || scalar_kernel.run(&grid, iters));
            let specialized_kernel = compile_2d::<f32>(&desc, engines::CPU_LANES).unwrap();
            let (specialized, specialized_secs) =
                time_best(reps, || specialized_kernel.run(&grid, iters));
            assert_eq!(
                reference, scalar,
                "2D {class:?}/{boundary:?} rad {rad}: scalar diverged from reference"
            );
            assert_eq!(
                reference, specialized,
                "2D {class:?}/{boundary:?} rad {rad}: specialized diverged from reference"
            );
            let cells = (nx * ny * iters) as f64;
            KernelMatrixEntry {
                kernel_class: class.name().to_string(),
                boundary: boundary.name().to_string(),
                dim,
                rad,
                nx,
                ny,
                nz: 1,
                iters,
                taps: desc.taps.len(),
                lanes: specialized_kernel.lanes() as u64,
                reference_secs,
                scalar_secs,
                specialized_secs,
                reference_cells_per_s: cells / reference_secs,
                scalar_cells_per_s: cells / scalar_secs,
                specialized_cells_per_s: cells / specialized_secs,
                speedup: reference_secs / specialized_secs,
                speedup_vs_scalar: scalar_secs / specialized_secs,
            }
        } else {
            let desc = match class {
                KernelClass::Star => KernelDesc::star_3d(rad, seed, boundary),
                KernelClass::Box => KernelDesc::box_3d(rad, seed, boundary),
                KernelClass::Asymmetric => KernelDesc::asymmetric_3d(rad, seed, boundary),
            }
            .unwrap();
            let (nx, ny, nz, iters) = if quick {
                (48, 32, 12, 2)
            } else {
                (128, 96, 16, 2)
            };
            let grid =
                Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x + 3 * y + 7 * z) % 53) as f32).unwrap();
            let (reference, reference_secs) =
                time_best(reps, || kernel_ir::reference_run_3d(&desc, &grid, iters));
            let scalar_kernel = compile_3d::<f32>(&desc, 1).unwrap();
            let (scalar, scalar_secs) = time_best(reps, || scalar_kernel.run(&grid, iters));
            let specialized_kernel = compile_3d::<f32>(&desc, engines::CPU_LANES).unwrap();
            let (specialized, specialized_secs) =
                time_best(reps, || specialized_kernel.run(&grid, iters));
            assert_eq!(
                reference, scalar,
                "3D {class:?}/{boundary:?} rad {rad}: scalar diverged from reference"
            );
            assert_eq!(
                reference, specialized,
                "3D {class:?}/{boundary:?} rad {rad}: specialized diverged from reference"
            );
            let cells = (nx * ny * nz * iters) as f64;
            KernelMatrixEntry {
                kernel_class: class.name().to_string(),
                boundary: boundary.name().to_string(),
                dim,
                rad,
                nx,
                ny,
                nz,
                iters,
                taps: desc.taps.len(),
                lanes: specialized_kernel.lanes() as u64,
                reference_secs,
                scalar_secs,
                specialized_secs,
                reference_cells_per_s: cells / reference_secs,
                scalar_cells_per_s: cells / scalar_secs,
                specialized_cells_per_s: cells / specialized_secs,
                speedup: reference_secs / specialized_secs,
                speedup_vs_scalar: scalar_secs / specialized_secs,
            }
        };
        println!(
            "{}D {}/{} rad {} ({} taps): reference {:.3e}, scalar {:.3e}, \
             {} lanes {:.3e} cells/s — {:.2}x vs reference, {:.2}x vs scalar",
            entry.dim,
            entry.kernel_class,
            entry.boundary,
            entry.rad,
            entry.taps,
            entry.reference_cells_per_s,
            entry.scalar_cells_per_s,
            entry.lanes,
            entry.specialized_cells_per_s,
            entry.speedup,
            entry.speedup_vs_scalar,
        );
        entries.push(entry);
    }
    entries
}

fn simulator_matrix(out: &str, quick: bool) {
    let reps = if quick { 1 } else { MATRIX_REPS };
    // Fail fast on an unwritable destination instead of discovering it after
    // the full sweep has run.
    if let Err(e) = std::fs::write(out, "[]\n") {
        eprintln!("stencil_bench: cannot write {out}: {e}");
        std::process::exit(2);
    }
    let mut entries = Vec::new();

    for rad in 1..=4usize {
        let (nx, ny, iters) = if quick { (256, 64, 2) } else { (1024, 384, 8) };
        let st = Stencil2D::<f32>::random(rad, rad as u64).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 31 + y * 17) % 103) as f32).unwrap();
        let cfg = BlockConfig::new_2d(rad, 128, 4, 4 / gcd(rad, 4)).unwrap();
        let (serial, serial_secs) =
            time_best(reps, || functional::run_2d_serial(&st, &grid, &cfg, iters));
        let ((scalar, _), scalar_secs) = time_best(reps, || {
            functional::run_2d_instrumented_lanes(&st, &grid, &cfg, iters, 1)
        });
        let ((parallel, counters), parallel_secs) = time_best(reps, || {
            functional::run_2d_instrumented(&st, &grid, &cfg, iters)
        });
        assert_eq!(serial, scalar, "2D rad {rad}: scalar diverged from serial");
        assert_eq!(
            serial, parallel,
            "2D rad {rad}: parallel diverged from serial"
        );
        let cells = (nx * ny * iters) as f64;
        let entry = MatrixEntry {
            dim: 2,
            rad,
            nx,
            ny,
            nz: 1,
            iters,
            partime: cfg.partime,
            parvec: cfg.parvec,
            lanes: counters.lane_width,
            blocks: counters.blocks,
            serial_secs,
            scalar_secs,
            parallel_secs,
            serial_cells_per_s: cells / serial_secs,
            scalar_cells_per_s: cells / scalar_secs,
            parallel_cells_per_s: cells / parallel_secs,
            speedup: serial_secs / parallel_secs,
            speedup_vs_scalar: scalar_secs / parallel_secs,
            counters,
        };
        println!(
            "2D rad {rad}: serial {:.3e}, scalar {:.3e}, {} lanes {:.3e} cells/s — \
             {:.2}x vs serial, {:.2}x vs scalar",
            entry.serial_cells_per_s,
            entry.scalar_cells_per_s,
            entry.lanes,
            entry.parallel_cells_per_s,
            entry.speedup,
            entry.speedup_vs_scalar,
        );
        entries.push(entry);
    }

    for rad in 1..=4usize {
        let (nx, ny, nz, iters) = if quick {
            (64, 48, 12, 2)
        } else {
            (192, 144, 24, 4)
        };
        let st = Stencil3D::<f32>::random(rad, rad as u64).unwrap();
        let grid =
            Grid3D::from_fn(nx, ny, nz, |x, y, z| ((x + 3 * y + 7 * z) % 53) as f32).unwrap();
        let cfg = BlockConfig::new_3d(rad, 48, 48, 2, 4 / gcd(rad, 4)).unwrap();
        let (serial, serial_secs) =
            time_best(reps, || functional::run_3d_serial(&st, &grid, &cfg, iters));
        let ((scalar, _), scalar_secs) = time_best(reps, || {
            functional::run_3d_instrumented_lanes(&st, &grid, &cfg, iters, 1)
        });
        let ((parallel, counters), parallel_secs) = time_best(reps, || {
            functional::run_3d_instrumented(&st, &grid, &cfg, iters)
        });
        assert_eq!(serial, scalar, "3D rad {rad}: scalar diverged from serial");
        assert_eq!(
            serial, parallel,
            "3D rad {rad}: parallel diverged from serial"
        );
        let cells = (nx * ny * nz * iters) as f64;
        let entry = MatrixEntry {
            dim: 3,
            rad,
            nx,
            ny,
            nz,
            iters,
            partime: cfg.partime,
            parvec: cfg.parvec,
            lanes: counters.lane_width,
            blocks: counters.blocks,
            serial_secs,
            scalar_secs,
            parallel_secs,
            serial_cells_per_s: cells / serial_secs,
            scalar_cells_per_s: cells / scalar_secs,
            parallel_cells_per_s: cells / parallel_secs,
            speedup: serial_secs / parallel_secs,
            speedup_vs_scalar: scalar_secs / parallel_secs,
            counters,
        };
        println!(
            "3D rad {rad}: serial {:.3e}, scalar {:.3e}, {} lanes {:.3e} cells/s — \
             {:.2}x vs serial, {:.2}x vs scalar",
            entry.serial_cells_per_s,
            entry.scalar_cells_per_s,
            entry.lanes,
            entry.parallel_cells_per_s,
            entry.speedup,
            entry.speedup_vs_scalar,
        );
        entries.push(entry);
    }

    let kernel_entries = kernel_matrix(quick, reps);
    // The two entry shapes share one array; kernel-IR rows are
    // discriminated by their `kernel_class` field.
    let rows: Vec<serde::Value> = entries
        .iter()
        .map(Serialize::to_value)
        .chain(kernel_entries.iter().map(Serialize::to_value))
        .collect();
    let json = serde_json::to_string_pretty(&rows).expect("matrix serialize");
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("stencil_bench: cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!(
        "wrote {out} ({} entries: {} star-matrix, {} kernel-IR)",
        rows.len(),
        entries.len(),
        kernel_entries.len()
    );
}

/// Validates a `--simulator-matrix` output file against the documented
/// schema via [`stencil_bench::validate_matrix_json`]. Exits 0 on success,
/// 2 with a diagnostic on any mismatch.
fn check_matrix(path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("stencil_bench: {path}: {msg}");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(format!("cannot read: {e}")),
    };
    match stencil_bench::validate_matrix_json(&text) {
        Ok(n) => println!("{path}: OK ({n} entries match the matrix schema)"),
        Err(msg) => fail(msg),
    }
}
