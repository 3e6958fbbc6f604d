//! Property tests: the block-parallel zero-allocation simulator data path
//! is bit-exact with the frozen serial reference path and with the
//! `stencil-core` executor, across randomly drawn block configurations —
//! including degenerate grids narrower than one block, grids of height 1,
//! and zero-iteration runs. The lane-vectorized interior kernels are
//! additionally checked at every supported width (2/4/8) against both the
//! serial reference and the scalar (lane width 1) parallel path.

use fpga_sim::functional;
use proptest::prelude::*;
use stencil_core::{exec, BlockConfig, Grid2D, Grid3D, Stencil2D, Stencil3D};

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Builds a valid `(rad, bsize, parvec, partime)` 2D configuration from
/// free samples: partime is scaled so `(partime · rad) % 4 == 0` (Eq. 6)
/// and bsize is the smallest parvec multiple above `2·partime·rad` plus a
/// sampled surplus.
fn cfg_2d(rad: usize, m: usize, pv: usize, extra: usize) -> BlockConfig {
    let partime = m * (4 / gcd(rad, 4));
    let parvec = [2, 4][pv];
    let min_b = 2 * partime * rad + 1;
    let bsize = parvec * (min_b.div_ceil(parvec) + extra);
    BlockConfig::new_2d(rad, bsize, parvec, partime).expect("constructed config is valid")
}

fn cfg_3d(rad: usize, m: usize, pv: usize, extra: usize) -> BlockConfig {
    let partime = m * (4 / gcd(rad, 4));
    let parvec = [2, 4][pv];
    let min_b = 2 * partime * rad + 1;
    let bsize = parvec * (min_b.div_ceil(parvec) + extra);
    BlockConfig::new_3d(rad, bsize, bsize, parvec, partime).expect("constructed config is valid")
}

proptest! {
    #[test]
    fn parallel_2d_is_bit_exact_with_serial_and_oracle(
        rad in 1usize..=4,
        m in 1usize..=2,
        pv in 0usize..=1,
        extra in 0usize..=5,
        nx in 1usize..=96,
        ny in 1usize..=24,
        iters in 0usize..=9,
        seed in 0u64..1_000,
    ) {
        let cfg = cfg_2d(rad, m, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let parallel = functional::run_2d(&st, &grid, &cfg, iters);
        let serial = functional::run_2d_serial(&st, &grid, &cfg, iters);
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(&parallel, &exec::run_2d(&st, &grid, iters));
    }

    #[test]
    fn parallel_3d_is_bit_exact_with_serial_and_oracle(
        rad in 1usize..=3,
        pv in 0usize..=1,
        extra in 0usize..=3,
        nx in 1usize..=28,
        ny in 1usize..=20,
        nz in 1usize..=10,
        iters in 0usize..=5,
        seed in 0u64..1_000,
    ) {
        let cfg = cfg_3d(rad, 1, pv, extra);
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let parallel = functional::run_3d(&st, &grid, &cfg, iters);
        let serial = functional::run_3d_serial(&st, &grid, &cfg, iters);
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(&parallel, &exec::run_3d(&st, &grid, iters));
    }

    #[test]
    fn lane_vectorized_2d_matches_serial_and_scalar(
        rad in 1usize..=4,
        pv in 0usize..=1,
        extra in 0usize..=3,
        lanes_i in 0usize..=2,
        nx in 1usize..=96,
        ny in 1usize..=24,
        iters in 0usize..=6,
        seed in 0u64..1_000,
    ) {
        // Lane width is sampled independently of parvec: the kernels must
        // be bit-exact for any width, ragged tails included.
        let lanes = [2usize, 4, 8][lanes_i];
        let cfg = cfg_2d(rad, 1, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let serial = functional::run_2d_serial(&st, &grid, &cfg, iters);
        let (scalar, c1) =
            functional::run_2d_instrumented_lanes(&st, &grid, &cfg, iters, 1);
        let (vectorized, cv) =
            functional::run_2d_instrumented_lanes(&st, &grid, &cfg, iters, lanes);
        prop_assert_eq!(&vectorized, &serial);
        prop_assert_eq!(&vectorized, &scalar);
        prop_assert_eq!(cv.lane_width, lanes as u64);
        prop_assert_eq!(c1.lane_width, 1);
    }

    #[test]
    fn lane_vectorized_3d_matches_serial_and_scalar(
        rad in 1usize..=3,
        extra in 0usize..=2,
        lanes_i in 0usize..=2,
        nx in 1usize..=28,
        ny in 1usize..=20,
        nz in 1usize..=10,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let lanes = [2usize, 4, 8][lanes_i];
        let cfg = cfg_3d(rad, 1, 0, extra);
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let serial = functional::run_3d_serial(&st, &grid, &cfg, iters);
        let (scalar, _) =
            functional::run_3d_instrumented_lanes(&st, &grid, &cfg, iters, 1);
        let (vectorized, cv) =
            functional::run_3d_instrumented_lanes(&st, &grid, &cfg, iters, lanes);
        prop_assert_eq!(&vectorized, &serial);
        prop_assert_eq!(&vectorized, &scalar);
        prop_assert_eq!(cv.lane_width, lanes as u64);
    }

    #[test]
    fn lane_vectorized_handles_empty_interiors(
        rad in 1usize..=4,
        lanes_i in 0usize..=2,
        nx in 1usize..=9,
        ny in 1usize..=4,
        iters in 1usize..=3,
        seed in 0u64..500,
    ) {
        // Grids no wider than the stencil arm leave every block's interior
        // window empty, so the whole update comes from the clamped border
        // path; the lane kernels must not be entered with reversed ranges.
        let lanes = [2usize, 4, 8][lanes_i];
        let cfg = cfg_2d(rad, 1, 0, 0);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 5 + y * 3 + seed as usize) % 17) as f32)
                .unwrap();
        let serial = functional::run_2d_serial(&st, &grid, &cfg, iters);
        let (vectorized, _) =
            functional::run_2d_instrumented_lanes(&st, &grid, &cfg, iters, lanes);
        prop_assert_eq!(&vectorized, &serial);
    }

    #[test]
    fn replicated_2d_is_bit_exact_for_all_replica_counts(
        rad in 1usize..=4,
        pv in 0usize..=1,
        extra in 0usize..=4,
        r_i in 0usize..=2,
        nx in 1usize..=96,
        ny in 1usize..=24,
        iters in 0usize..=6,
        seed in 0u64..1_000,
    ) {
        // The hybrid spatial/temporal path: R halo-overlapped x partitions,
        // each run by its own chain. Small nx draws include partitions
        // narrower than the halo (and empty ones when nx < R). Must be
        // bit-exact vs both the single-chain path and the frozen serial
        // reference.
        let replicas = [1usize, 2, 4][r_i];
        let cfg = cfg_2d(rad, 1, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let (mut replicated, mut scratch) = (grid.clone(), grid.clone());
        let counters = functional::run_2d_replicated_cancellable_into(
            &st, &grid, &cfg, iters, replicas, &|| false, &mut replicated, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&replicated, &functional::run_2d(&st, &grid, &cfg, iters));
        prop_assert_eq!(&replicated, &functional::run_2d_serial(&st, &grid, &cfg, iters));
    }

    #[test]
    fn replicated_3d_is_bit_exact_for_all_replica_counts(
        rad in 1usize..=3,
        pv in 0usize..=1,
        extra in 0usize..=2,
        r_i in 0usize..=2,
        nx in 1usize..=28,
        ny in 1usize..=20,
        nz in 1usize..=10,
        iters in 0usize..=5,
        seed in 0u64..1_000,
    ) {
        let replicas = [1usize, 2, 4][r_i];
        let cfg = cfg_3d(rad, 1, pv, extra);
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let (mut replicated, mut scratch) = (grid.clone(), grid.clone());
        let counters = functional::run_3d_replicated_cancellable_into(
            &st, &grid, &cfg, iters, replicas, &|| false, &mut replicated, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&replicated, &functional::run_3d(&st, &grid, &cfg, iters));
        prop_assert_eq!(&replicated, &functional::run_3d_serial(&st, &grid, &cfg, iters));
    }

    #[test]
    fn counters_useful_work_invariant_holds_for_random_configs(
        rad in 1usize..=4,
        m in 1usize..=2,
        extra in 0usize..=5,
        nx in 1usize..=96,
        ny in 1usize..=24,
        iters in 0usize..=9,
    ) {
        let cfg = cfg_2d(rad, m, 0, extra);
        let st = Stencil2D::<f32>::random(rad, 7).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| (x + y) as f32).unwrap();
        let (_, counters) = functional::run_2d_instrumented(&st, &grid, &cfg, iters);
        // Useful commits are exactly one update per cell per iteration,
        // independent of how blocking replicates halo work.
        prop_assert_eq!(counters.cells_updated, (nx * ny * iters) as u64);
    }
}
