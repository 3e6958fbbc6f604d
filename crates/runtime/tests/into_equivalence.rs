//! Property tests for the zero-allocation serving data path: every
//! `_into` executor variant, fed deliberately *dirty* pooled buffers,
//! must be bit-exact with its allocating counterpart and with the frozen
//! `serial_ref` oracle across randomly drawn configurations. The leases
//! are poisoned (filled with a sentinel, returned to the pool, re-leased)
//! so recycled contents are garbage by construction — proving that no
//! pass reads its destination before writing it.

use fpga_sim::{functional, serial_ref};
use proptest::prelude::*;
use std::sync::Arc;
use stencil_core::{BlockConfig, Grid2D, Grid3D, Stencil2D, Stencil3D};
use stencil_runtime::{GridPool, MetricsRegistry};

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Valid `(rad, bsize, parvec, partime)` 2D configuration from free
/// samples, mirroring the simulator property suite: partime scaled so
/// `(partime · rad) % 4 == 0` (Eq. 6), bsize the smallest parvec multiple
/// above `2·partime·rad` plus a sampled surplus.
fn cfg_2d(rad: usize, m: usize, pv: usize, extra: usize) -> BlockConfig {
    let partime = m * (4 / gcd(rad, 4));
    let parvec = [2, 4][pv];
    let min_b = 2 * partime * rad + 1;
    let bsize = parvec * (min_b.div_ceil(parvec) + extra);
    BlockConfig::new_2d(rad, bsize, parvec, partime).expect("constructed config is valid")
}

fn cfg_3d(rad: usize, pv: usize, extra: usize) -> BlockConfig {
    let partime = 4 / gcd(rad, 4);
    let parvec = [2, 4][pv];
    let min_b = 2 * partime * rad + 1;
    let bsize = parvec * (min_b.div_ceil(parvec) + extra);
    BlockConfig::new_3d(rad, bsize, bsize, parvec, partime).expect("constructed config is valid")
}

/// Leases a 2D buffer whose recycled contents are guaranteed dirty: a
/// first lease of the shape class is poisoned with a sentinel and
/// returned, so the re-lease hands back the same garbage-filled storage.
fn dirty_lease_2d(pool: &Arc<GridPool>, nx: usize, ny: usize) -> stencil_runtime::GridLease2D {
    {
        let mut poisoned = pool.lease_2d(nx, ny);
        poisoned.as_mut_slice().fill(f32::NAN);
    }
    pool.lease_2d(nx, ny)
}

fn dirty_lease_3d(
    pool: &Arc<GridPool>,
    nx: usize,
    ny: usize,
    nz: usize,
) -> stencil_runtime::GridLease3D {
    {
        let mut poisoned = pool.lease_3d(nx, ny, nz);
        poisoned.as_mut_slice().fill(f32::NAN);
    }
    pool.lease_3d(nx, ny, nz)
}

fn test_pool() -> Arc<GridPool> {
    Arc::new(GridPool::new(&MetricsRegistry::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pooled_into_2d_matches_allocating_and_oracle(
        rad in 1usize..=4,
        m in 1usize..=2,
        pv in 0usize..=1,
        extra in 0usize..=4,
        nx in 1usize..=72,
        ny in 1usize..=20,
        iters in 0usize..=6,
        seed in 0u64..1_000,
    ) {
        let cfg = cfg_2d(rad, m, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let pool = test_pool();

        let oracle = serial_ref::run_2d_serial(&st, &grid, &cfg, iters);
        let allocating = functional::run_2d(&st, &grid, &cfg, iters);
        prop_assert_eq!(&allocating, &oracle);

        // functional `_into`, dirty pooled buffers.
        let mut out = dirty_lease_2d(&pool, nx, ny);
        let mut scratch = dirty_lease_2d(&pool, nx, ny);
        let counters = functional::run_2d_cancellable_into(
            &st, &grid, &cfg, iters, cfg.parvec, &|| false, &mut out, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&*out, &oracle);

        // cpu-engine `_into`, reusing the (now once-more dirty) leases.
        cpu_engine::engines::parallel_2d_into(&st, &grid, iters, &mut out, &mut scratch);
        prop_assert_eq!(&*out, &stencil_core::exec::run_2d(&st, &grid, iters));
    }

    #[test]
    fn pooled_into_3d_matches_allocating_and_oracle(
        rad in 1usize..=3,
        pv in 0usize..=1,
        extra in 0usize..=2,
        nx in 1usize..=24,
        ny in 1usize..=16,
        nz in 1usize..=8,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let cfg = cfg_3d(rad, pv, extra);
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let pool = test_pool();

        let oracle = serial_ref::run_3d_serial(&st, &grid, &cfg, iters);
        let allocating = functional::run_3d(&st, &grid, &cfg, iters);
        prop_assert_eq!(&allocating, &oracle);

        let mut out = dirty_lease_3d(&pool, nx, ny, nz);
        let mut scratch = dirty_lease_3d(&pool, nx, ny, nz);
        let counters = functional::run_3d_cancellable_into(
            &st, &grid, &cfg, iters, cfg.parvec, &|| false, &mut out, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&*out, &oracle);

        cpu_engine::engines::parallel_3d_into(&st, &grid, iters, &mut out, &mut scratch);
        prop_assert_eq!(&*out, &stencil_core::exec::run_3d(&st, &grid, iters));
    }

    #[test]
    fn folded_and_wavefront_into_2d_match_allocating_and_oracle(
        rad in 1usize..=4,
        block_x in 1usize..=40,
        tsteps in 1usize..=4,
        nx in 1usize..=48,
        ny in 1usize..=14,
        iters in 0usize..=5,
        seed in 0u64..1_000,
    ) {
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let pool = test_pool();
        let oracle = stencil_core::exec::run_2d(&st, &grid, iters);

        let mut out = dirty_lease_2d(&pool, nx, ny);
        let mut scratch = dirty_lease_2d(&pool, nx, ny);
        cpu_engine::folded::folded_run_2d_into(&st, &grid, iters, &mut out, &mut scratch);
        prop_assert_eq!(&*out, &cpu_engine::folded::folded_run_2d(&st, &grid, iters));
        prop_assert_eq!(&*out, &oracle);

        // Reuse the (again dirty) leases for the wavefront engine.
        cpu_engine::wavefront::wavefront_2d_into(
            &st, &grid, iters, block_x, tsteps, &mut out, &mut scratch,
        );
        prop_assert_eq!(
            &*out,
            &cpu_engine::wavefront::wavefront_2d(&st, &grid, iters, block_x, tsteps)
        );
        prop_assert_eq!(&*out, &oracle);
    }

    #[test]
    fn folded_and_wavefront_into_3d_match_allocating_and_oracle(
        rad in 1usize..=3,
        block_x in 1usize..=16,
        block_y in 1usize..=12,
        tsteps in 1usize..=3,
        nx in 1usize..=18,
        ny in 1usize..=12,
        nz in 1usize..=7,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let pool = test_pool();
        let oracle = stencil_core::exec::run_3d(&st, &grid, iters);

        let mut out = dirty_lease_3d(&pool, nx, ny, nz);
        let mut scratch = dirty_lease_3d(&pool, nx, ny, nz);
        cpu_engine::folded::folded_run_3d_into(&st, &grid, iters, &mut out, &mut scratch);
        prop_assert_eq!(&*out, &cpu_engine::folded::folded_run_3d(&st, &grid, iters));
        prop_assert_eq!(&*out, &oracle);

        cpu_engine::wavefront::wavefront_3d_into(
            &st, &grid, iters, block_x, block_y, tsteps, &mut out, &mut scratch,
        );
        prop_assert_eq!(
            &*out,
            &cpu_engine::wavefront::wavefront_3d(&st, &grid, iters, block_x, block_y, tsteps)
        );
        prop_assert_eq!(&*out, &oracle);
    }

    #[test]
    fn replicated_into_2d_matches_single_chain_on_dirty_buffers(
        rad in 1usize..=4,
        pv in 0usize..=1,
        extra in 0usize..=4,
        r_i in 0usize..=2,
        nx in 1usize..=72,
        ny in 1usize..=20,
        iters in 0usize..=6,
        seed in 0u64..1_000,
    ) {
        // The hybrid replicated-chain serving path: dirty pooled buffers,
        // R halo-overlapped partitions, bit-exact vs the oracle.
        let replicas = [1usize, 2, 4][r_i];
        let cfg = cfg_2d(rad, 1, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let pool = test_pool();
        let oracle = serial_ref::run_2d_serial(&st, &grid, &cfg, iters);

        let mut out = dirty_lease_2d(&pool, nx, ny);
        let mut scratch = dirty_lease_2d(&pool, nx, ny);
        let counters = functional::run_2d_replicated_cancellable_into(
            &st, &grid, &cfg, iters, cfg.parvec, replicas, &|| false, &mut out, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&*out, &oracle);
    }
}
