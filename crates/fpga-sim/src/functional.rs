//! Functional (deterministic) execution of the accelerator.
//!
//! Runs the complete block schedule of the design — overlapped spatial
//! blocks, a `partime`-deep PE chain per block, as many passes over the grid
//! as the iteration count requires — and produces the final grid. Results
//! are **bit-exact** with [`stencil_core::exec`]'s oracle because both
//! evaluate Eq. (1) in the canonical operation order.
//!
//! # Parallel block schedule
//!
//! Overlapped blocking (§III.B) makes spatial blocks *independent*: each
//! block reads its haloed `read_start..read_end` region of the source grid
//! and commits only its disjoint `comp_start..comp_end` core, with no
//! inter-block communication. The per-pass block loop therefore dispatches
//! over [`rayon`]: the destination grid is pre-split into disjoint mutable
//! column strips ([`Grid2D::column_blocks`] / [`Grid3D::tile_blocks`]) and
//! every block writes its own strip directly — no locks on the data path,
//! no per-cell `Grid::set`. Blocks within a pass may commit in any order
//! (their strips are disjoint); passes are sequential (each reads the
//! previous pass's output), so the result is bit-identical to the serial
//! schedule — [`run_2d_serial`]/[`run_3d_serial`] keep the seed's original
//! data path as the differential oracle and performance baseline.
//!
//! # Buffer ownership
//!
//! The engine moves only the data it computes. The first pass reads the
//! caller's grid in place and the last pass writes straight into `out`;
//! passes in between alternate between `out` and `scratch` (see
//! [`stencil_core::sweep_buffers`]), so a one-pass run never touches
//! `scratch` and no run copies its input. The allocating entry points
//! allocate the result, plus a scratch grid only when a second pass needs
//! one.
//!
//! Inside a pass, each block streams its read region through a chain of
//! only the PEs that compute in this pass. The block takes an input row
//! from the chain's [`crate::shift_register::RowPool`] and fills it with
//! [`Grid2D::read_row_clamped`] / [`Grid3D::read_plane_clamped`]; from
//! there rows move from PE to PE by ownership until the tail's outputs are
//! committed to the block's strip and recycled. Steady-state feeding
//! performs no heap allocation (see `crate::chain` module docs).

use crate::chain::{Chain2D, Chain3D};
use crate::counters::SimCounters;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stencil_core::{
    compile_star_2d, compile_star_3d, sweep_buffers, BlockConfig, BlockSpan, CompiledKernel2D,
    CompiledKernel3D, Dim, Grid2D, Grid3D, Real, Stencil2D, Stencil3D,
};

/// Splits `iters` into chain passes: each pass activates at most `partime`
/// PEs; the last pass may activate fewer.
pub(crate) fn passes(iters: usize, partime: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut left = iters;
    while left > 0 {
        let a = left.min(partime);
        out.push(a);
        left -= a;
    }
    out
}

fn check_2d<T: Real>(stencil: &Stencil2D<T>, config: &BlockConfig) {
    assert_eq!(config.dim, Dim::D2, "2D run needs a 2D config");
    assert_eq!(
        config.rad,
        stencil.radius(),
        "config/stencil radius mismatch"
    );
    config.validate().expect("invalid block configuration");
}

fn check_3d<T: Real>(stencil: &Stencil3D<T>, config: &BlockConfig) {
    assert_eq!(config.dim, Dim::D3, "3D run needs a 3D config");
    assert_eq!(
        config.rad,
        stencil.radius(),
        "config/stencil radius mismatch"
    );
    config.validate().expect("invalid block configuration");
}

/// Comp-core boundaries of a span list, as a partition of `[0, n)`.
fn comp_bounds(spans: &[BlockSpan], n: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = spans.iter().map(|s| s.comp_start).collect();
    bounds.push(n);
    bounds
}

/// Halo-overlapped spatial-partition spans for `replicas` chains over an
/// extent of `n` cells. Each replica owns a contiguous share of `[0, n)`
/// (sizes differing by at most one cell) and tiles it with the config's
/// block spans, offset into global coordinates. The comp cores of all spans
/// together still partition `[0, n)`; read regions overlap partition borders
/// by the halo — exactly how blocks *within* one chain already overlap — so
/// the composed schedule commits every cell from the same clamped global
/// reads as the single-chain schedule and stays bit-exact. Partitions
/// narrower than the halo (or empty, when `replicas > n`) degenerate into
/// partial blocks the span machinery already handles.
///
/// `replicas = 1` reproduces [`BlockConfig::spans`] exactly.
pub fn replica_spans(n: usize, csize: usize, halo: usize, replicas: usize) -> Vec<BlockSpan> {
    assert!(replicas > 0, "need at least one replica");
    let base = n / replicas;
    let rem = n % replicas;
    let mut out = Vec::new();
    let mut px0 = 0usize;
    for r in 0..replicas {
        let len = base + usize::from(r < rem);
        for s in BlockConfig::spans(len, csize, halo) {
            out.push(BlockSpan {
                comp_start: s.comp_start + px0,
                comp_end: s.comp_end + px0,
                read_start: s.read_start + px0 as isize,
                read_end: s.read_end + px0 as isize,
            });
        }
        px0 += len;
    }
    out
}

/// Runs the 2D accelerator functionally: `iters` time steps of `stencil`
/// over `grid` with the block schedule of `config`, spatial blocks in
/// parallel.
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration.
pub fn run_2d<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
) -> Grid2D<T> {
    run_2d_instrumented(stencil, grid, config, iters).0
}

/// [`run_2d`] plus the [`SimCounters`] tallied during the run.
///
/// The kernel is compiled at lane width `config.parvec` — the vector width
/// the performance model charges for, or the widest implemented width
/// below it (see [`stencil_core::compile_2d`]); `lane_width` reports the
/// width that ran.
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration.
pub fn run_2d_instrumented<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
) -> (Grid2D<T>, SimCounters) {
    run_2d_instrumented_lanes(stencil, grid, config, iters, config.parvec)
}

/// [`run_2d_instrumented`] with an explicit kernel lane width (overriding
/// `config.parvec`). `lanes = 1` runs the scalar row loop; every width is
/// bit-identical.
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration.
pub fn run_2d_instrumented_lanes<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
    lanes: usize,
) -> (Grid2D<T>, SimCounters) {
    let mut out = Grid2D::zeros(grid.nx(), grid.ny()).expect("same shape as the input");
    let counters = run_2d_passes(
        stencil,
        grid,
        config,
        iters,
        lanes,
        1,
        &|| false,
        &mut out,
        None,
    )
    .expect("never-cancelled run cannot be cancelled");
    (out, counters)
}

/// The serving entry point: [`run_2d_instrumented`] with `replicas`
/// independent chains, a cooperative cancellation hook, and
/// caller-provided buffers.
///
/// - **Replicas.** Each chain runs the same `config` over a contiguous,
///   halo-overlapped share of the x extent (see [`replica_spans`]) — the
///   hybrid spatial/temporal execution path for many-channel (HBM-class)
///   devices. All (replica, block) tasks of a pass dispatch over the same
///   rayon pool and commit disjoint strips, so the result is bit-exact
///   with the single-chain path for every `replicas ≥ 1`.
/// - **Cancellation.** `cancel` is polled once before each chain pass and
///   once before each spatial block, so a long run can be abandoned with
///   at most one block of latency. The hook must be monotonic: once it
///   returns `true` it keeps returning `true`. Returns `None` when the run
///   was cancelled; the buffers then hold partial data and must be treated
///   as dirty.
/// - **Buffers.** The first pass reads `grid` in place and the last writes
///   `out`; `scratch` is the ping-pong buffer, written only when the run has
///   two or more passes. Both must have `grid`'s shape; their prior contents
///   are irrelevant (every pass fully overwrites its destination strip set).
///
/// The kernel is compiled at lane width `config.parvec`.
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration, the buffer
/// shapes do not match `grid`, or `replicas` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_2d_replicated_cancellable_into<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
    replicas: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid2D<T>,
    scratch: &mut Grid2D<T>,
) -> Option<SimCounters> {
    assert_eq!(
        (scratch.nx(), scratch.ny()),
        (grid.nx(), grid.ny()),
        "scratch buffer shape mismatch"
    );
    run_2d_passes(
        stencil,
        grid,
        config,
        iters,
        config.parvec,
        replicas,
        cancel,
        out,
        Some(scratch),
    )
}

/// The 2D pass loop behind every entry point. With `scratch` `None`, a
/// scratch grid is allocated here when the run has a second pass.
#[allow(clippy::too_many_arguments)]
fn run_2d_passes<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
    lanes: usize,
    replicas: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid2D<T>,
    scratch: Option<&mut Grid2D<T>>,
) -> Option<SimCounters> {
    check_2d(stencil, config);
    assert_eq!(
        (out.nx(), out.ny()),
        (grid.nx(), grid.ny()),
        "out buffer shape mismatch"
    );

    let (nx, ny) = (grid.nx(), grid.ny());
    // One kernel for the whole run, shared by every PE of every block.
    let kernel = Arc::new(compile_star_2d(stencil, lanes));
    let plan = passes(iters, config.partime);
    if plan.is_empty() {
        out.copy_from(grid);
    }
    let mut owned = None;
    let mut scratch = match scratch {
        None if plan.len() > 1 => Some(owned.insert(Grid2D::zeros(nx, ny).expect("grid shape"))),
        s => s,
    };
    let mut counters = SimCounters {
        lane_width: kernel.lanes() as u64,
        ..Default::default()
    };
    let t_run = Instant::now();

    for (i, &active) in plan.iter().enumerate() {
        if cancel() {
            return None;
        }
        let t_pass = Instant::now();
        let (src, dst) = sweep_buffers(i, plan.len(), grid, &mut *out, scratch.as_deref_mut());
        let spans = replica_spans(nx, config.csize_x(), config.halo(), replicas);
        let blocks = dst.column_blocks(&comp_bounds(&spans, nx));
        let tally = Mutex::new(SimCounters::default());
        let tally_ref = &tally;
        let kernel = &kernel;
        spans
            .into_iter()
            .zip(blocks)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(move |(span, mut strip)| {
                if cancel() {
                    return;
                }
                let part = run_block_2d(kernel, src, &span, &mut strip, active);
                tally_ref.lock().unwrap().merge(&part);
            });
        if cancel() {
            return None;
        }
        counters.merge(&tally.into_inner().unwrap());
        counters.passes += 1;
        counters.pass_seconds.push(t_pass.elapsed().as_secs_f64());
    }
    counters.elapsed_seconds = t_run.elapsed().as_secs_f64();
    Some(counters)
}

/// One spatial block of one 2D pass: stream all rows of the block's read
/// region through a fresh chain of the pass's `active` PEs, committing the
/// comp core into this block's pre-split destination strip.
fn run_block_2d<T: Real>(
    kernel: &Arc<CompiledKernel2D<T>>,
    src: &Grid2D<T>,
    span: &BlockSpan,
    strip: &mut [&mut [T]],
    active: usize,
) -> SimCounters {
    let x0 = span.read_start;
    let width = span.read_len();
    let (nx, ny) = (src.nx(), src.ny());
    let mut chain = Chain2D::new(kernel, active, x0 as i64, width, nx, ny);
    let off = (span.comp_start as isize - x0) as usize;
    let len = span.comp_len();
    for y in 0..ny {
        let mut row = chain.take_row();
        src.read_row_clamped(y as isize, x0, &mut row);
        chain.feed_row(y as i64, row, |oy, orow| {
            strip[oy as usize].copy_from_slice(&orow[off..off + len]);
        });
    }
    SimCounters {
        cells_updated: (len * ny * active) as u64,
        halo_cells: ((width - len) * ny * active) as u64,
        rows_fed: ny as u64,
        bytes_moved: ((width + len) * ny * std::mem::size_of::<T>()) as u64,
        blocks: 1,
        ..Default::default()
    }
}

pub use crate::serial_ref::run_2d_serial;

/// Runs the 3D accelerator functionally, spatial blocks in parallel.
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration.
pub fn run_3d<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
) -> Grid3D<T> {
    run_3d_instrumented(stencil, grid, config, iters).0
}

/// [`run_3d`] plus the [`SimCounters`] tallied during the run; the kernel
/// is compiled at lane width `config.parvec` (see [`run_2d_instrumented`]).
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration.
pub fn run_3d_instrumented<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
) -> (Grid3D<T>, SimCounters) {
    run_3d_instrumented_lanes(stencil, grid, config, iters, config.parvec)
}

/// [`run_3d_instrumented`] with an explicit kernel lane width (see
/// [`run_2d_instrumented_lanes`]).
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration.
pub fn run_3d_instrumented_lanes<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
    lanes: usize,
) -> (Grid3D<T>, SimCounters) {
    let mut out = Grid3D::zeros(grid.nx(), grid.ny(), grid.nz()).expect("same shape as the input");
    let counters = run_3d_passes(
        stencil,
        grid,
        config,
        iters,
        lanes,
        1,
        &|| false,
        &mut out,
        None,
    )
    .expect("never-cancelled run cannot be cancelled");
    (out, counters)
}

/// The 3D serving entry point (see [`run_2d_replicated_cancellable_into`]
/// for the replica, cancellation and buffer contracts). Replicas partition
/// the x extent; the y axis keeps the config's ordinary block spans in
/// every replica. `cancel` is polled before each pass and each (x, y)
/// block.
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration, the buffer
/// shapes do not match `grid`, or `replicas` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_3d_replicated_cancellable_into<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
    replicas: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid3D<T>,
    scratch: &mut Grid3D<T>,
) -> Option<SimCounters> {
    assert_eq!(
        (scratch.nx(), scratch.ny(), scratch.nz()),
        (grid.nx(), grid.ny(), grid.nz()),
        "scratch buffer shape mismatch"
    );
    run_3d_passes(
        stencil,
        grid,
        config,
        iters,
        config.parvec,
        replicas,
        cancel,
        out,
        Some(scratch),
    )
}

/// The 3D pass loop behind every entry point (see [`run_2d_passes`]).
#[allow(clippy::too_many_arguments)]
fn run_3d_passes<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
    lanes: usize,
    replicas: usize,
    cancel: &(dyn Fn() -> bool + Sync),
    out: &mut Grid3D<T>,
    scratch: Option<&mut Grid3D<T>>,
) -> Option<SimCounters> {
    check_3d(stencil, config);
    assert_eq!(
        (out.nx(), out.ny(), out.nz()),
        (grid.nx(), grid.ny(), grid.nz()),
        "out buffer shape mismatch"
    );

    let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
    let kernel = Arc::new(compile_star_3d(stencil, lanes));
    let plan = passes(iters, config.partime);
    if plan.is_empty() {
        out.copy_from(grid);
    }
    let mut owned = None;
    let mut scratch = match scratch {
        None if plan.len() > 1 => {
            Some(owned.insert(Grid3D::zeros(nx, ny, nz).expect("grid shape")))
        }
        s => s,
    };
    let mut counters = SimCounters {
        lane_width: kernel.lanes() as u64,
        ..Default::default()
    };
    let t_run = Instant::now();

    for (i, &active) in plan.iter().enumerate() {
        if cancel() {
            return None;
        }
        let t_pass = Instant::now();
        let (src, dst) = sweep_buffers(i, plan.len(), grid, &mut *out, scratch.as_deref_mut());
        let sys = config.spans_y(ny);
        let sxs = replica_spans(nx, config.csize_x(), config.halo(), replicas);
        let blocks = dst.tile_blocks(&comp_bounds(&sxs, nx), &comp_bounds(&sys, ny));
        // tile_blocks returns block (bx, by) at index by * nbx + bx — the
        // same order as iterating sy outer, sx inner.
        let work: Vec<(BlockSpan, BlockSpan, Vec<&mut [T]>)> = sys
            .iter()
            .flat_map(|sy| sxs.iter().map(move |sx| (*sx, *sy)))
            .zip(blocks)
            .map(|((sx, sy), strip)| (sx, sy, strip))
            .collect();
        let tally = Mutex::new(SimCounters::default());
        let tally_ref = &tally;
        let kernel = &kernel;
        work.into_par_iter().for_each(move |(sx, sy, mut strip)| {
            if cancel() {
                return;
            }
            let part = run_block_3d(kernel, src, &sx, &sy, &mut strip, active);
            tally_ref.lock().unwrap().merge(&part);
        });
        if cancel() {
            return None;
        }
        counters.merge(&tally.into_inner().unwrap());
        counters.passes += 1;
        counters.pass_seconds.push(t_pass.elapsed().as_secs_f64());
    }
    counters.elapsed_seconds = t_run.elapsed().as_secs_f64();
    Some(counters)
}

/// One spatial block of one 3D pass (see [`run_block_2d`]).
fn run_block_3d<T: Real>(
    kernel: &Arc<CompiledKernel3D<T>>,
    src: &Grid3D<T>,
    sx: &BlockSpan,
    sy: &BlockSpan,
    strip: &mut [&mut [T]],
    active: usize,
) -> SimCounters {
    let (x0, y0) = (sx.read_start, sy.read_start);
    let (width, height) = (sx.read_len(), sy.read_len());
    let (nx, ny, nz) = (src.nx(), src.ny(), src.nz());
    let mut chain = Chain3D::new(
        kernel, active, x0 as i64, y0 as i64, width, height, nx, ny, nz,
    );
    let offx = (sx.comp_start as isize - x0) as usize;
    let offy = (sy.comp_start as isize - y0) as usize;
    let (lenx, leny) = (sx.comp_len(), sy.comp_len());
    for z in 0..nz {
        let mut plane = chain.take_plane();
        src.read_plane_clamped(z as isize, x0, y0, width, &mut plane);
        chain.feed_plane(z as i64, plane, |oz, oplane| {
            for i in 0..leny {
                let s = (offy + i) * width + offx;
                strip[oz as usize * leny + i].copy_from_slice(&oplane[s..s + lenx]);
            }
        });
    }
    SimCounters {
        cells_updated: (lenx * leny * nz * active) as u64,
        halo_cells: ((width * height - lenx * leny) * nz * active) as u64,
        rows_fed: nz as u64,
        bytes_moved: ((width * height + lenx * leny) * nz * std::mem::size_of::<T>()) as u64,
        blocks: 1,
        ..Default::default()
    }
}

pub use crate::serial_ref::run_3d_serial;

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::exec;

    #[test]
    fn passes_split() {
        assert_eq!(passes(10, 4), vec![4, 4, 2]);
        assert_eq!(passes(8, 4), vec![4, 4]);
        assert_eq!(passes(3, 4), vec![3]);
        assert_eq!(passes(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn matches_oracle_2d_all_radii() {
        // Multi-block, multi-pass, uneven grid: the full machinery.
        for rad in 1..=4 {
            let st = Stencil2D::<f32>::random(rad, 100 + rad as u64).unwrap();
            // partime chosen to satisfy Eq. 6: partime*rad % 4 == 0.
            let partime = match rad {
                1 => 4,
                2 => 2,
                3 => 4,
                _ => 2,
            };
            let bsize = 64;
            let cfg = BlockConfig::new_2d(rad, bsize, 4, partime).unwrap();
            let grid = Grid2D::from_fn(101, 37, |x, y| ((x * 13 + y * 7) % 19) as f32).unwrap();
            let iters = 2 * partime + 1; // exercises a partial pass
            let got = run_2d(&st, &grid, &cfg, iters);
            let expect = exec::run_2d(&st, &grid, iters);
            assert_eq!(got, expect, "rad {rad}");
            assert_eq!(
                run_2d_serial(&st, &grid, &cfg, iters),
                expect,
                "serial, rad {rad}"
            );
        }
    }

    #[test]
    fn matches_oracle_3d_all_radii() {
        for rad in 1..=3 {
            let st = Stencil3D::<f32>::random(rad, 200 + rad as u64).unwrap();
            let partime = if rad == 2 { 2 } else { 4 };
            let cfg = BlockConfig::new_3d(rad, 32, 32, 2, partime).unwrap();
            let grid = Grid3D::from_fn(21, 19, 9, |x, y, z| ((x * 3 + y * 5 + z * 11) % 23) as f32)
                .unwrap();
            let iters = partime + 1;
            let got = run_3d(&st, &grid, &cfg, iters);
            let expect = exec::run_3d(&st, &grid, iters);
            assert_eq!(got, expect, "rad {rad}");
            assert_eq!(
                run_3d_serial(&st, &grid, &cfg, iters),
                expect,
                "serial, rad {rad}"
            );
        }
    }

    #[test]
    fn table3_3d_configs_on_grids_smaller_than_one_block() {
        // Every 3D Table III configuration (parvec 16, which runs at 8
        // lanes) on a grid smaller than one block: the read region overhangs
        // the grid in x and y, and only in-grid cells are evaluated.
        for (rad, bsize_y, partime) in [(1, 256, 12), (2, 128, 6), (3, 128, 4), (4, 128, 3)] {
            let cfg = BlockConfig::new_3d(rad, 256, bsize_y, 16, partime).unwrap();
            let st = Stencil3D::<f32>::random(rad, 400 + rad as u64).unwrap();
            let grid = Grid3D::from_fn(37, 29, 5, |x, y, z| ((x * 5 + y * 3 + z * 7) % 17) as f32)
                .unwrap();
            let iters = partime + 1;
            let (got, c) = run_3d_instrumented(&st, &grid, &cfg, iters);
            assert_eq!(got, run_3d_serial(&st, &grid, &cfg, iters), "rad {rad}");
            assert_eq!(c.lane_width, 8, "rad {rad}");
        }
    }

    fn bits(cells: &[f32]) -> Vec<u32> {
        cells.iter().map(|v| v.to_bits()).collect()
    }

    /// The serving entry point on fresh buffers.
    fn serve_2d(
        st: &Stencil2D<f32>,
        grid: &Grid2D<f32>,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
        cancel: &(dyn Fn() -> bool + Sync),
    ) -> Option<Grid2D<f32>> {
        let (mut out, mut scratch) = (grid.clone(), grid.clone());
        run_2d_replicated_cancellable_into(
            st,
            grid,
            cfg,
            iters,
            replicas,
            cancel,
            &mut out,
            &mut scratch,
        )
        .map(|_| out)
    }

    fn serve_3d(
        st: &Stencil3D<f32>,
        grid: &Grid3D<f32>,
        cfg: &BlockConfig,
        iters: usize,
        replicas: usize,
        cancel: &(dyn Fn() -> bool + Sync),
    ) -> Option<Grid3D<f32>> {
        let (mut out, mut scratch) = (grid.clone(), grid.clone());
        run_3d_replicated_cancellable_into(
            st,
            grid,
            cfg,
            iters,
            replicas,
            cancel,
            &mut out,
            &mut scratch,
        )
        .map(|_| out)
    }

    #[test]
    fn into_entry_points_overwrite_nan_buffers_for_every_pass_count() {
        // iters 0, 1, partime + 1 and 2·partime + 1 run 0, 1, 2 and 3
        // passes: every case of which buffer the first pass reads and which
        // the last one writes. Both buffers arrive full of NaN.
        let partime = 4;
        let cfg = BlockConfig::new_2d(1, 32, 4, partime).unwrap();
        let st = Stencil2D::<f32>::random(1, 31).unwrap();
        let grid = Grid2D::from_fn(61, 13, |x, y| ((x * 7 + y * 3) % 23) as f32).unwrap();
        let cfg3 = BlockConfig::new_3d(1, 24, 24, 2, partime).unwrap();
        let st3 = Stencil3D::<f32>::random(1, 32).unwrap();
        let grid3 =
            Grid3D::from_fn(30, 26, 5, |x, y, z| ((x + 3 * y + 5 * z) % 19) as f32).unwrap();
        let nan_2d = || Grid2D::filled(61, 13, f32::NAN).unwrap();
        let nan_3d = || Grid3D::filled(30, 26, 5, f32::NAN).unwrap();
        for (iters, passes) in [(0, 0), (1, 1), (partime + 1, 2), (2 * partime + 1, 3)] {
            let expect = run_2d_serial(&st, &grid, &cfg, iters);
            assert_eq!(
                bits(expect.as_slice()),
                bits(exec::run_2d(&st, &grid, iters).as_slice())
            );
            let expect3 = run_3d_serial(&st3, &grid3, &cfg3, iters);
            assert_eq!(
                bits(expect3.as_slice()),
                bits(exec::run_3d(&st3, &grid3, iters).as_slice())
            );
            for replicas in [1, 2] {
                let what = format!("iters {iters}, replicas {replicas}");
                let (mut out, mut scratch) = (nan_2d(), nan_2d());
                let c = run_2d_replicated_cancellable_into(
                    &st,
                    &grid,
                    &cfg,
                    iters,
                    replicas,
                    &|| false,
                    &mut out,
                    &mut scratch,
                );
                assert_eq!(c.unwrap().passes, passes, "2D {what}");
                assert_eq!(bits(out.as_slice()), bits(expect.as_slice()), "2D {what}");

                let (mut out3, mut scratch3) = (nan_3d(), nan_3d());
                let c3 = run_3d_replicated_cancellable_into(
                    &st3,
                    &grid3,
                    &cfg3,
                    iters,
                    replicas,
                    &|| false,
                    &mut out3,
                    &mut scratch3,
                );
                assert_eq!(c3.unwrap().passes, passes, "3D {what}");
                assert_eq!(bits(out3.as_slice()), bits(expect3.as_slice()), "3D {what}");
            }
        }
    }

    #[test]
    fn table3_config_counters_are_pinned() {
        // Counters come from span geometry, not from how rows travel
        // between PEs; these values were recorded when every pass still
        // streamed through all `partime` PEs and copied each row.
        let cfg = BlockConfig::new_2d(4, 4096, 4, 22).unwrap();
        let st = Stencil2D::<f32>::random(4, 4).unwrap();
        let grid = Grid2D::from_fn(5000, 6, |x, y| ((x * 3 + y) % 11) as f32).unwrap();
        let (_, c) = run_2d_instrumented(&st, &grid, &cfg, 23);
        assert_eq!(
            (
                c.cells_updated,
                c.halo_cells,
                c.rows_fed,
                c.bytes_moved,
                c.blocks
            ),
            (690_000, 48_576, 24, 496_896, 4)
        );
        let cfg = BlockConfig::new_3d(2, 256, 128, 16, 6).unwrap();
        let st = Stencil3D::<f32>::random(2, 3).unwrap();
        let grid =
            Grid3D::from_fn(300, 120, 3, |x, y, z| ((x + y * 5 + z * 7) % 13) as f32).unwrap();
        let (_, c) = run_3d_instrumented(&st, &grid, &cfg, 7);
        assert_eq!(
            (
                c.cells_updated,
                c.halo_cells,
                c.rows_fed,
                c.bytes_moved,
                c.blocks
            ),
            (756_000, 471_744, 24, 2_267_136, 8)
        );
    }

    #[test]
    fn zero_iterations_is_identity() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let cfg = BlockConfig::new_2d(1, 32, 4, 4).unwrap();
        let grid = Grid2D::from_fn(40, 10, |x, y| (x + y) as f32).unwrap();
        assert_eq!(run_2d(&st, &grid, &cfg, 0), grid);
    }

    #[test]
    fn paper_shaped_config_small_grid() {
        // A miniature of the paper's 2D rad-2 configuration (parvec 4,
        // partime scaled down, grid a multiple of csize).
        let rad = 2;
        let st = Stencil2D::<f32>::random(rad, 77).unwrap();
        let cfg = BlockConfig::new_2d(rad, 64, 4, 6).unwrap();
        assert_eq!(cfg.csize_x(), 40);
        let nx = 3 * cfg.csize_x();
        let grid = Grid2D::from_fn(nx, 24, |x, y| ((x ^ y) % 31) as f32).unwrap();
        let got = run_2d(&st, &grid, &cfg, 12);
        assert_eq!(got, exec::run_2d(&st, &grid, 12));
    }

    #[test]
    fn grid_smaller_than_one_block() {
        let st = Stencil2D::<f32>::random(1, 8).unwrap();
        let cfg = BlockConfig::new_2d(1, 64, 4, 4).unwrap();
        // nx smaller than csize: a single partial block.
        let grid = Grid2D::from_fn(17, 9, |x, y| (x * y + 1) as f32).unwrap();
        assert_eq!(run_2d(&st, &grid, &cfg, 5), exec::run_2d(&st, &grid, 5));
    }

    #[test]
    fn counters_account_for_useful_and_halo_work() {
        let rad = 2;
        let st = Stencil2D::<f32>::random(rad, 13).unwrap();
        let cfg = BlockConfig::new_2d(rad, 64, 4, 2).unwrap();
        let (nx, ny) = (3 * cfg.csize_x(), 20);
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        let iters = 5; // passes: [2, 2, 1]
        let (_, c) = run_2d_instrumented(&st, &grid, &cfg, iters);
        // Useful updates are exactly nx*ny per iteration, independent of
        // blocking.
        assert_eq!(c.cells_updated, (nx * ny * iters) as u64);
        assert!(
            c.halo_cells > 0,
            "multi-block overlapped run must recompute halos"
        );
        assert_eq!(c.passes, 3);
        assert_eq!(c.pass_seconds.len(), 3);
        assert_eq!(c.blocks, 3 * 3); // 3 spatial blocks x 3 passes
        assert_eq!(c.rows_fed, (3 * 3 * ny) as u64);
        assert!(c.elapsed_seconds > 0.0);
        assert!(c.bytes_moved > 0);
    }

    #[test]
    fn counters_3d_useful_work_invariant() {
        let rad = 1;
        let st = Stencil3D::<f32>::random(rad, 7).unwrap();
        let cfg = BlockConfig::new_3d(rad, 24, 24, 2, 4).unwrap();
        let grid = Grid3D::from_fn(30, 26, 7, |x, y, z| ((x + y + z) % 5) as f32).unwrap();
        let iters = 6;
        let (_, c) = run_3d_instrumented(&st, &grid, &cfg, iters);
        assert_eq!(c.cells_updated, (grid.len() * iters) as u64);
        assert_eq!(c.passes, 2);
    }

    #[test]
    fn parallel_equals_serial_on_degenerate_narrow_grid() {
        // Narrow grids exercise single partial blocks and width-1 comp
        // cores.
        let st = Stencil2D::<f32>::random(2, 99).unwrap();
        let cfg = BlockConfig::new_2d(2, 64, 4, 2).unwrap();
        for nx in [1usize, 2, 5, 41] {
            let grid = Grid2D::from_fn(nx, 13, |x, y| ((x * 3 + y) % 7) as f32).unwrap();
            assert_eq!(
                run_2d(&st, &grid, &cfg, 4),
                run_2d_serial(&st, &grid, &cfg, 4),
                "nx {nx}"
            );
        }
    }

    #[test]
    fn cancel_before_start_returns_none() {
        let st = Stencil2D::<f32>::random(1, 3).unwrap();
        let cfg = BlockConfig::new_2d(1, 32, 4, 4).unwrap();
        let grid = Grid2D::from_fn(40, 10, |x, y| (x + y) as f32).unwrap();
        assert!(serve_2d(&st, &grid, &cfg, 8, 1, &|| true).is_none());

        let st3 = Stencil3D::<f32>::random(1, 3).unwrap();
        let cfg3 = BlockConfig::new_3d(1, 24, 24, 2, 4).unwrap();
        let grid3 = Grid3D::from_fn(12, 10, 6, |x, y, z| (x + y + z) as f32).unwrap();
        assert!(serve_3d(&st3, &grid3, &cfg3, 8, 1, &|| true).is_none());
    }

    #[test]
    fn cancel_mid_run_returns_none() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Flip the cancel signal after a fixed number of polls: the run must
        // stop at the next block boundary and report cancellation.
        let st = Stencil2D::<f32>::random(2, 9).unwrap();
        let cfg = BlockConfig::new_2d(2, 64, 4, 2).unwrap();
        let grid = Grid2D::from_fn(3 * cfg.csize_x(), 20, |x, y| (x * y % 13) as f32).unwrap();
        let polls = AtomicUsize::new(0);
        let cancel = || polls.fetch_add(1, Ordering::Relaxed) >= 4;
        assert!(serve_2d(&st, &grid, &cfg, 12, 1, &cancel).is_none());
        assert!(polls.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn replica_spans_reduce_to_single_chain() {
        let cfg = BlockConfig::new_2d(1, 32, 4, 4).unwrap();
        for n in [1usize, 7, 33, 100] {
            assert_eq!(
                replica_spans(n, cfg.csize_x(), cfg.halo(), 1),
                cfg.spans_x(n),
                "n {n}"
            );
        }
    }

    #[test]
    fn replica_spans_comp_cores_partition_the_extent() {
        // Including replicas > n (empty partitions) and partitions narrower
        // than the halo.
        for (n, r) in [(100usize, 4usize), (7, 4), (3, 8), (64, 2), (10, 3)] {
            let spans = replica_spans(n, 24, 4, r);
            let mut at = 0;
            for s in &spans {
                assert_eq!(s.comp_start, at, "n {n} r {r}");
                at = s.comp_end;
            }
            assert_eq!(at, n, "n {n} r {r}");
        }
    }

    #[test]
    fn replicated_matches_oracle_even_when_partitions_are_narrower_than_halo() {
        let st = Stencil2D::<f32>::random(2, 21).unwrap();
        let cfg = BlockConfig::new_2d(2, 64, 4, 2).unwrap(); // halo 4
        let grid = Grid2D::from_fn(10, 9, |x, y| ((x * 3 + y) % 13) as f32).unwrap();
        let expect = exec::run_2d(&st, &grid, 5);
        for r in [1usize, 2, 4] {
            // nx = 10, r = 4: partitions of width 2-3, narrower than halo 4.
            assert_eq!(
                serve_2d(&st, &grid, &cfg, 5, r, &|| false).unwrap(),
                expect,
                "replicas {r}"
            );
        }
        let st3 = Stencil3D::<f32>::random(1, 22).unwrap();
        let cfg3 = BlockConfig::new_3d(1, 24, 24, 2, 4).unwrap(); // halo 4
        let grid3 = Grid3D::from_fn(9, 11, 6, |x, y, z| ((x + 2 * y + 3 * z) % 7) as f32).unwrap();
        let expect3 = exec::run_3d(&st3, &grid3, 5);
        for r in [1usize, 2, 4] {
            assert_eq!(
                serve_3d(&st3, &grid3, &cfg3, 5, r, &|| false).unwrap(),
                expect3,
                "replicas {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least one replica")]
    fn zero_replicas_panics() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let cfg = BlockConfig::new_2d(1, 32, 4, 4).unwrap();
        let grid = Grid2D::from_fn(40, 10, |x, y| (x + y) as f32).unwrap();
        let _ = serve_2d(&st, &grid, &cfg, 1, 0, &|| false);
    }

    #[test]
    #[should_panic(expected = "2D run needs a 2D config")]
    fn dim_mismatch_panics() {
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let cfg = BlockConfig::new_3d(1, 32, 32, 4, 4).unwrap();
        let grid = Grid2D::<f32>::zeros(8, 8).unwrap();
        let _ = run_2d(&st, &grid, &cfg, 1);
    }
}
