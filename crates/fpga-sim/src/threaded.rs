//! Threaded execution of the accelerator — the structural twin of the
//! hardware.
//!
//! The OpenCL design is a dataflow machine: a read kernel, `partime`
//! replicated autorun compute kernels, and a write kernel, all running
//! concurrently and connected by on-chip channels (Fig. 2). This module
//! reproduces that structure literally: one thread per kernel, bounded
//! lock-free SPSC rings ([`crate::spsc::SpscRing`]) in between — bounded,
//! like the hardware FIFOs, so back-pressure propagates, and lock-free,
//! like the hardware channels, so the steady-state handoff is one release
//! store / acquire load per message.
//!
//! Threads and channels are created **once per chain pass** and reused
//! across all spatial blocks of that pass — like the FPGA, where the
//! kernels are resident and only the block stream changes. Block
//! boundaries travel through the pipeline as `Msg::Block`/`Msg::EndBlock`
//! markers; closing the head ring ends the pass and drains the pipeline.
//! Each ring sits between exactly two kernels (one sender thread, one
//! receiver thread), which is what licenses the SPSC protocol.
//!
//! The `_into` variants ([`run_2d_opts_into`]/[`run_3d_opts_into`]) write
//! into caller-provided output and scratch grids so a buffer pool can feed
//! the simulator without any grid allocation; the plain entry points are
//! thin allocate-then-delegate wrappers.
//!
//! Because every PE evaluates Eq. (1) in the canonical order, the threaded
//! executor is **bit-identical** to [`crate::functional`] — concurrency
//! reorders nothing that matters. The property is tested below.

use crate::pe::{Pe2D, Pe3D};
use crate::spsc::SpscRing;
use std::sync::Arc;
use stencil_core::{
    compile_star_2d, compile_star_3d, BlockConfig, BlockSpan, Dim, Grid2D, Grid3D, Real, Stencil2D,
    Stencil3D,
};

/// Tunables for the threaded simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Depth of the inter-kernel channels, mirroring the on-chip FIFO depth
    /// the OpenCL compiler instantiates between kernels.
    pub channel_depth: usize,
    /// Kernel lane width override. `None` uses the configuration's `parvec`
    /// (the hardware's vector width); `Some(1)` forces the scalar row loop.
    /// Results are bit-identical for every width.
    pub lanes: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            channel_depth: 8,
            lanes: None,
        }
    }
}

/// What flows through the pipeline: block markers and data rows/planes.
enum Msg<T> {
    /// The next spatial block starts; each kernel resets its per-block
    /// state (the span itself is known to every kernel from the schedule).
    Block,
    /// One row (2D) or plane (3D), tagged with its stream index.
    Row(i64, Vec<T>),
    /// The current spatial block is complete.
    EndBlock,
}

/// Runs the 2D accelerator with one thread per kernel (read, `partime` PEs,
/// write) and default [`SimOptions`].
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration.
pub fn run_2d<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
) -> Grid2D<T> {
    run_2d_opts(stencil, grid, config, iters, &SimOptions::default())
}

/// [`run_2d`] with explicit [`SimOptions`].
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration.
pub fn run_2d_opts<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
    opts: &SimOptions,
) -> Grid2D<T> {
    let mut out = grid.clone();
    let mut scratch = grid.clone();
    run_2d_opts_into(stencil, grid, config, iters, opts, &mut out, &mut scratch);
    out
}

/// [`run_2d_opts`] writing the result into the caller-provided `out` grid,
/// with `scratch` as the ping-pong buffer — the zero-allocation entry point
/// for pooled serving. Both buffers must have `grid`'s shape; their prior
/// contents are irrelevant (every pass fully overwrites its destination).
///
/// # Panics
/// Panics when `config` is not a validated 2D configuration or the buffer
/// shapes do not match `grid`.
pub fn run_2d_opts_into<T: Real>(
    stencil: &Stencil2D<T>,
    grid: &Grid2D<T>,
    config: &BlockConfig,
    iters: usize,
    opts: &SimOptions,
    out: &mut Grid2D<T>,
    scratch: &mut Grid2D<T>,
) {
    assert_eq!(config.dim, Dim::D2, "2D run needs a 2D config");
    assert_eq!(
        config.rad,
        stencil.radius(),
        "config/stencil radius mismatch"
    );
    config.validate().expect("invalid block configuration");
    assert_eq!(
        (out.nx(), out.ny()),
        (grid.nx(), grid.ny()),
        "out buffer shape mismatch"
    );
    assert_eq!(
        (scratch.nx(), scratch.ny()),
        (grid.nx(), grid.ny()),
        "scratch buffer shape mismatch"
    );

    let (nx, ny) = (grid.nx(), grid.ny());
    // One kernel for the whole run, shared by every PE of every block.
    let kernel = Arc::new(compile_star_2d(
        stencil,
        opts.lanes.unwrap_or(config.parvec),
    ));
    let kernel = &kernel;
    // `out` always holds the latest completed pass; `scratch` is the
    // in-flight destination, swapped (Vec pointers only) after each pass.
    out.copy_from(grid);

    for active in crate::functional::passes(iters, config.partime) {
        let spans = config.spans_x(nx);
        // One SPSC ring between consecutive kernels: read -> pe_0 -> … ->
        // write; each ring has exactly one sender and one receiver thread.
        let fifos: Vec<SpscRing<Msg<T>>> = (0..=config.partime)
            .map(|_| SpscRing::new(opts.channel_depth))
            .collect();
        let src_ref: &Grid2D<T> = out;
        let dst = &mut *scratch;

        std::thread::scope(|s| {
            // Read kernel: streams every block of the pass.
            let head = &fifos[0];
            let read_spans = spans.clone();
            s.spawn(move || {
                for span in &read_spans {
                    head.send(Msg::Block);
                    let width = span.read_len();
                    for y in 0..ny {
                        let mut row = vec![T::ZERO; width];
                        src_ref.read_row_clamped(y as isize, span.read_start, &mut row);
                        head.send(Msg::Row(y as i64, row));
                    }
                    head.send(Msg::EndBlock);
                }
                head.close();
            });

            // Compute kernels (autorun PE array), persistent for the pass.
            for t in 0..config.partime {
                let rx = &fifos[t];
                let tx = &fifos[t + 1];
                let pe_spans = spans.clone();
                s.spawn(move || {
                    let mut block = 0usize;
                    let mut pe: Option<Pe2D<T>> = None;
                    while let Some(msg) = rx.recv() {
                        match msg {
                            Msg::Block => {
                                let span = &pe_spans[block];
                                block += 1;
                                let mut p = Pe2D::new(
                                    Arc::clone(kernel),
                                    span.read_start as i64,
                                    span.read_len(),
                                    nx,
                                    ny,
                                );
                                p.set_active(t < active);
                                pe = Some(p);
                                tx.send(Msg::Block);
                            }
                            Msg::Row(y, row) => {
                                let p = pe.as_mut().expect("row before block marker");
                                for (oy, orow) in p.feed(y, row) {
                                    tx.send(Msg::Row(oy, orow));
                                }
                            }
                            Msg::EndBlock => tx.send(Msg::EndBlock),
                        }
                    }
                    tx.close();
                });
            }

            // Write kernel (runs on this thread; it owns `dst`).
            let tail = &fifos[config.partime];
            let mut span_iter = spans.iter();
            let mut cur: Option<&BlockSpan> = None;
            while let Some(msg) = tail.recv() {
                match msg {
                    Msg::Block => cur = Some(span_iter.next().expect("more blocks than spans")),
                    Msg::Row(oy, orow) => {
                        let span = cur.expect("row outside a block");
                        let oy = oy as usize;
                        let x0 = span.read_start;
                        let off = (span.comp_start as isize - x0) as usize;
                        dst.row_mut(oy)[span.comp_start..span.comp_end]
                            .copy_from_slice(&orow[off..off + span.comp_len()]);
                    }
                    Msg::EndBlock => cur = None,
                }
            }
        });
        out.swap(scratch);
    }
}

/// Runs the 3D accelerator with one thread per kernel and default
/// [`SimOptions`].
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration.
pub fn run_3d<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
) -> Grid3D<T> {
    run_3d_opts(stencil, grid, config, iters, &SimOptions::default())
}

/// [`run_3d`] with explicit [`SimOptions`].
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration.
pub fn run_3d_opts<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
    opts: &SimOptions,
) -> Grid3D<T> {
    let mut out = grid.clone();
    let mut scratch = grid.clone();
    run_3d_opts_into(stencil, grid, config, iters, opts, &mut out, &mut scratch);
    out
}

/// [`run_3d_opts`] writing the result into the caller-provided `out` grid,
/// with `scratch` as the ping-pong buffer (see [`run_2d_opts_into`]).
///
/// # Panics
/// Panics when `config` is not a validated 3D configuration or the buffer
/// shapes do not match `grid`.
#[allow(clippy::too_many_arguments)]
pub fn run_3d_opts_into<T: Real>(
    stencil: &Stencil3D<T>,
    grid: &Grid3D<T>,
    config: &BlockConfig,
    iters: usize,
    opts: &SimOptions,
    out: &mut Grid3D<T>,
    scratch: &mut Grid3D<T>,
) {
    assert_eq!(config.dim, Dim::D3, "3D run needs a 3D config");
    assert_eq!(
        config.rad,
        stencil.radius(),
        "config/stencil radius mismatch"
    );
    config.validate().expect("invalid block configuration");
    assert_eq!(
        (out.nx(), out.ny(), out.nz()),
        (grid.nx(), grid.ny(), grid.nz()),
        "out buffer shape mismatch"
    );
    assert_eq!(
        (scratch.nx(), scratch.ny(), scratch.nz()),
        (grid.nx(), grid.ny(), grid.nz()),
        "scratch buffer shape mismatch"
    );

    let (nx, ny, nz) = (grid.nx(), grid.ny(), grid.nz());
    let kernel = Arc::new(compile_star_3d(
        stencil,
        opts.lanes.unwrap_or(config.parvec),
    ));
    let kernel = &kernel;
    out.copy_from(grid);

    for active in crate::functional::passes(iters, config.partime) {
        // Flatten the 2D block schedule: sy outer, sx inner.
        let blocks: Vec<(BlockSpan, BlockSpan)> = config
            .spans_y(ny)
            .into_iter()
            .flat_map(|sy| config.spans_x(nx).into_iter().map(move |sx| (sx, sy)))
            .collect();
        let fifos: Vec<SpscRing<Msg<T>>> = (0..=config.partime)
            .map(|_| SpscRing::new(opts.channel_depth))
            .collect();
        let src_ref: &Grid3D<T> = out;
        let dst = &mut *scratch;

        std::thread::scope(|s| {
            let head = &fifos[0];
            let read_blocks = blocks.clone();
            s.spawn(move || {
                for (sx, sy) in &read_blocks {
                    head.send(Msg::Block);
                    let (width, height) = (sx.read_len(), sy.read_len());
                    for z in 0..nz {
                        let mut plane = vec![T::ZERO; width * height];
                        src_ref.read_plane_clamped(
                            z as isize,
                            sx.read_start,
                            sy.read_start,
                            width,
                            &mut plane,
                        );
                        head.send(Msg::Row(z as i64, plane));
                    }
                    head.send(Msg::EndBlock);
                }
                head.close();
            });

            for t in 0..config.partime {
                let rx = &fifos[t];
                let tx = &fifos[t + 1];
                let pe_blocks = blocks.clone();
                s.spawn(move || {
                    let mut block = 0usize;
                    let mut pe: Option<Pe3D<T>> = None;
                    while let Some(msg) = rx.recv() {
                        match msg {
                            Msg::Block => {
                                let (sx, sy) = &pe_blocks[block];
                                block += 1;
                                let mut p = Pe3D::new(
                                    Arc::clone(kernel),
                                    sx.read_start as i64,
                                    sy.read_start as i64,
                                    sx.read_len(),
                                    sy.read_len(),
                                    nx,
                                    ny,
                                    nz,
                                );
                                p.set_active(t < active);
                                pe = Some(p);
                                tx.send(Msg::Block);
                            }
                            Msg::Row(z, plane) => {
                                let p = pe.as_mut().expect("plane before block marker");
                                for (oz, oplane) in p.feed(z, plane) {
                                    tx.send(Msg::Row(oz, oplane));
                                }
                            }
                            Msg::EndBlock => tx.send(Msg::EndBlock),
                        }
                    }
                    tx.close();
                });
            }

            let tail = &fifos[config.partime];
            let mut block_iter = blocks.iter();
            let mut cur: Option<&(BlockSpan, BlockSpan)> = None;
            while let Some(msg) = tail.recv() {
                match msg {
                    Msg::Block => cur = Some(block_iter.next().expect("more blocks than spans")),
                    Msg::Row(oz, oplane) => {
                        let (sx, sy) = cur.expect("plane outside a block");
                        let oz = oz as usize;
                        let width = sx.read_len();
                        let offx = (sx.comp_start as isize - sx.read_start) as usize;
                        let offy = (sy.comp_start as isize - sy.read_start) as usize;
                        for gy in sy.comp_start..sy.comp_end {
                            let i = gy - sy.comp_start + offy;
                            let s = i * width + offx;
                            let d = (oz * ny + gy) * nx + sx.comp_start;
                            dst.as_mut_slice()[d..d + sx.comp_len()]
                                .copy_from_slice(&oplane[s..s + sx.comp_len()]);
                        }
                    }
                    Msg::EndBlock => cur = None,
                }
            }
        });
        out.swap(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional;
    use stencil_core::exec;

    #[test]
    fn threaded_equals_functional_equals_oracle_2d() {
        for rad in 1..=3 {
            let st = Stencil2D::<f32>::random(rad, 300 + rad as u64).unwrap();
            let partime = 4;
            let cfg = BlockConfig::new_2d(rad, 64, 4, partime).unwrap();
            let grid = Grid2D::from_fn(90, 33, |x, y| ((x * 5 + y * 3) % 29) as f32).unwrap();
            let iters = partime + 2;
            let t = run_2d(&st, &grid, &cfg, iters);
            let f = functional::run_2d(&st, &grid, &cfg, iters);
            let o = exec::run_2d(&st, &grid, iters);
            assert_eq!(t, f, "threaded != functional, rad {rad}");
            assert_eq!(t, o, "threaded != oracle, rad {rad}");
        }
    }

    #[test]
    fn threaded_equals_functional_equals_oracle_3d() {
        let rad = 2;
        let st = Stencil3D::<f32>::random(rad, 500).unwrap();
        let cfg = BlockConfig::new_3d(rad, 24, 24, 2, 2).unwrap();
        let grid =
            Grid3D::from_fn(30, 26, 11, |x, y, z| ((x + y * 2 + z * 7) % 13) as f32).unwrap();
        let iters = 5;
        let t = run_3d(&st, &grid, &cfg, iters);
        let f = functional::run_3d(&st, &grid, &cfg, iters);
        let o = exec::run_3d(&st, &grid, iters);
        assert_eq!(t, f);
        assert_eq!(t, o);
    }

    #[test]
    fn deep_chain_back_pressure_does_not_deadlock() {
        // Chain longer than the channel depth; narrow grid.
        let st = Stencil2D::<f32>::uniform(1).unwrap();
        let cfg = BlockConfig::new_2d(1, 128, 2, 16).unwrap();
        let grid = Grid2D::from_fn(96, 64, |x, y| (x + y) as f32).unwrap();
        let got = run_2d(&st, &grid, &cfg, 16);
        assert_eq!(got, exec::run_2d(&st, &grid, 16));
    }

    #[test]
    fn shallow_channels_still_correct() {
        // channel_depth 1 maximizes back-pressure; results must not change.
        let st = Stencil2D::<f32>::random(2, 71).unwrap();
        let cfg = BlockConfig::new_2d(2, 64, 4, 4).unwrap();
        let grid = Grid2D::from_fn(100, 25, |x, y| ((x * 11 + y) % 17) as f32).unwrap();
        let opts = SimOptions {
            channel_depth: 1,
            ..Default::default()
        };
        let got = run_2d_opts(&st, &grid, &cfg, 9, &opts);
        assert_eq!(got, exec::run_2d(&st, &grid, 9));
    }

    #[test]
    fn shallow_channels_still_correct_3d() {
        // The 3D chain moves whole planes over the rings; depth 1 forces a
        // full/empty transition on every hop.
        let st = Stencil3D::<f32>::random(2, 72).unwrap();
        let cfg = BlockConfig::new_3d(2, 24, 24, 2, 2).unwrap();
        let grid = Grid3D::from_fn(18, 13, 6, |x, y, z| ((x * 5 + y * 3 + z) % 19) as f32).unwrap();
        let opts = SimOptions {
            channel_depth: 1,
            ..Default::default()
        };
        let got = run_3d_opts(&st, &grid, &cfg, 5, &opts);
        assert_eq!(got, exec::run_3d(&st, &grid, 5));
    }

    #[test]
    fn into_variant_overwrites_dirty_buffers_2d() {
        // Pool-style reuse: out and scratch arrive full of garbage; the
        // `_into` path must fully overwrite them.
        let st = Stencil2D::<f32>::random(2, 44).unwrap();
        let cfg = BlockConfig::new_2d(2, 64, 4, 2).unwrap();
        let grid = Grid2D::from_fn(77, 19, |x, y| ((x * 3 + y) % 23) as f32).unwrap();
        for iters in [0usize, 1, 2, 5] {
            let mut out = Grid2D::filled(77, 19, f32::NAN).unwrap();
            let mut scratch = Grid2D::filled(77, 19, -1.0e30f32).unwrap();
            run_2d_opts_into(
                &st,
                &grid,
                &cfg,
                iters,
                &SimOptions::default(),
                &mut out,
                &mut scratch,
            );
            assert_eq!(out, exec::run_2d(&st, &grid, iters), "iters {iters}");
        }
    }

    #[test]
    fn into_variant_overwrites_dirty_buffers_3d() {
        let st = Stencil3D::<f32>::random(1, 45).unwrap();
        let cfg = BlockConfig::new_3d(1, 24, 24, 2, 4).unwrap();
        let grid = Grid3D::from_fn(14, 12, 5, |x, y, z| ((x + y + z) % 7) as f32).unwrap();
        for iters in [0usize, 3, 5] {
            let mut out = Grid3D::filled(14, 12, 5, f32::NAN).unwrap();
            let mut scratch = Grid3D::filled(14, 12, 5, f32::INFINITY).unwrap();
            run_3d_opts_into(
                &st,
                &grid,
                &cfg,
                iters,
                &SimOptions::default(),
                &mut out,
                &mut scratch,
            );
            assert_eq!(out, exec::run_3d(&st, &grid, iters), "iters {iters}");
        }
    }
}
