//! Property tests for the serving data path on pooled buffers. A worker
//! runs a star job through one of two executor calls:
//! `functional::run_{2d,3d}_replicated_cancellable_into` (Functional
//! backend, at 1, 2 or 4 replicas) and `engines::parallel_{2d,3d}_kernel_into`
//! on the star kernel compiled at `CPU_LANES` (CpuEngine backend). Fed
//! deliberately *dirty* pooled buffers, both must be bit-exact with the
//! frozen `serial_ref` oracle and with `stencil_core::exec` across randomly
//! drawn configurations. Every call gets a fresh pair of leases that were
//! poisoned (filled with NaN, returned to the pool, re-leased), so recycled
//! contents are garbage by construction — proving that no pass reads its
//! destination before writing it.

use cpu_engine::engines::{self, CPU_LANES};
use fpga_sim::{functional, serial_ref};
use proptest::prelude::*;
use std::sync::Arc;
use stencil_core::{
    compile_star_2d, compile_star_3d, exec, BlockConfig, Grid2D, Grid3D, Stencil2D, Stencil3D,
};
use stencil_runtime::{GridLease2D, GridLease3D, GridPool, MetricsRegistry};

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

/// Leases an `(out, scratch)` pair whose recycled contents are guaranteed
/// dirty: two leases of the shape class are poisoned and returned, so the
/// pool's free list hands the same NaN-filled storage straight back.
fn dirty_pair_2d(pool: &Arc<GridPool>, nx: usize, ny: usize) -> (GridLease2D, GridLease2D) {
    for mut poisoned in [pool.lease_2d(nx, ny), pool.lease_2d(nx, ny)] {
        poisoned.as_mut_slice().fill(f32::NAN);
    }
    (pool.lease_2d(nx, ny), pool.lease_2d(nx, ny))
}

fn dirty_pair_3d(
    pool: &Arc<GridPool>,
    nx: usize,
    ny: usize,
    nz: usize,
) -> (GridLease3D, GridLease3D) {
    for mut poisoned in [pool.lease_3d(nx, ny, nz), pool.lease_3d(nx, ny, nz)] {
        poisoned.as_mut_slice().fill(f32::NAN);
    }
    (pool.lease_3d(nx, ny, nz), pool.lease_3d(nx, ny, nz))
}

fn bits(cells: &[f32]) -> Vec<u32> {
    cells.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn worker_calls_2d_are_bit_exact_on_dirty_leases(
        rad in 1usize..=4,
        m in 1usize..=2,
        pv in 0usize..=1,
        extra in 0usize..=4,
        r_i in 0usize..=2,
        nx in 1usize..=72,
        ny in 1usize..=20,
        iters in 0usize..=6,
        seed in 0u64..1_000,
    ) {
        let replicas = [1usize, 2, 4][r_i];
        let cfg = cfg_2d(rad, m, pv, extra);
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let oracle = bits(serial_ref::run_2d_serial(&st, &grid, &cfg, iters).as_slice());
        prop_assert_eq!(&oracle, &bits(exec::run_2d(&st, &grid, iters).as_slice()));
        let pool = Arc::new(GridPool::new(&MetricsRegistry::new()));

        let (mut out, mut scratch) = dirty_pair_2d(&pool, nx, ny);
        let counters = functional::run_2d_replicated_cancellable_into(
            &st, &grid, &cfg, iters, replicas, &|| false, &mut out, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&bits(out.as_slice()), &oracle);
        drop((out, scratch));

        let (mut out, mut scratch) = dirty_pair_2d(&pool, nx, ny);
        let kernel = compile_star_2d(&st, CPU_LANES);
        prop_assert!(engines::parallel_2d_kernel_into(
            &kernel, &grid, iters, &|| false, &mut out, &mut scratch,
        ));
        prop_assert_eq!(&bits(out.as_slice()), &oracle);
    }

    #[test]
    fn worker_calls_3d_are_bit_exact_on_dirty_leases(
        rad in 1usize..=3,
        pv in 0usize..=1,
        extra in 0usize..=2,
        r_i in 0usize..=2,
        nx in 1usize..=24,
        ny in 1usize..=16,
        nz in 1usize..=8,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let replicas = [1usize, 2, 4][r_i];
        let cfg = cfg_3d(rad, pv, extra);
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let oracle = bits(serial_ref::run_3d_serial(&st, &grid, &cfg, iters).as_slice());
        prop_assert_eq!(&oracle, &bits(exec::run_3d(&st, &grid, iters).as_slice()));
        let pool = Arc::new(GridPool::new(&MetricsRegistry::new()));

        let (mut out, mut scratch) = dirty_pair_3d(&pool, nx, ny, nz);
        let counters = functional::run_3d_replicated_cancellable_into(
            &st, &grid, &cfg, iters, replicas, &|| false, &mut out, &mut scratch,
        );
        prop_assert!(counters.is_some());
        prop_assert_eq!(&bits(out.as_slice()), &oracle);
        drop((out, scratch));

        let (mut out, mut scratch) = dirty_pair_3d(&pool, nx, ny, nz);
        let kernel = compile_star_3d(&st, CPU_LANES);
        prop_assert!(engines::parallel_3d_kernel_into(
            &kernel, &grid, iters, &|| false, &mut out, &mut scratch,
        ));
        prop_assert_eq!(&bits(out.as_slice()), &oracle);
    }
}
