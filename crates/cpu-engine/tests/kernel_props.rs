//! Property tests for the grid-resident kernel executor: the rayon-banded
//! `parallel_*_kernel` runners reproduce the single-threaded compiled path
//! (`CompiledKernel*::run`) for random descs, boundary conditions, lane
//! widths and grid shapes — banding and thread count change nothing.

use cpu_engine::engines::{parallel_2d_kernel, parallel_3d_kernel, ROW_BAND};
use proptest::prelude::*;
use stencil_core::kernel_ir::{BoundaryCond, KernelDesc};
use stencil_core::{compile_2d, compile_3d, Grid2D, Grid3D, Stencil2D, Stencil3D};

fn desc_2d(family: usize, rad: usize, seed: u64, bc: BoundaryCond) -> KernelDesc {
    match family {
        0 => KernelDesc::from_star_2d(&Stencil2D::<f32>::random(rad, seed).unwrap(), bc),
        1 => KernelDesc::box_2d(rad, seed, bc).unwrap(),
        _ => KernelDesc::asymmetric_2d(rad, seed, bc).unwrap(),
    }
}

fn desc_3d(family: usize, rad: usize, seed: u64, bc: BoundaryCond) -> KernelDesc {
    match family {
        0 => KernelDesc::from_star_3d(&Stencil3D::<f32>::random(rad, seed).unwrap(), bc),
        1 => KernelDesc::box_3d(rad, seed, bc).unwrap(),
        _ => KernelDesc::asymmetric_3d(rad, seed, bc).unwrap(),
    }
}

proptest! {
    #[test]
    fn parallel_runner_matches_compiled_run_2d(
        family in 0usize..=2,
        rad in 1usize..=4,
        bc_i in 0usize..=2,
        lanes_i in 0usize..=3,
        nx in 1usize..=48,
        ny in 1usize..=(2 * ROW_BAND + 3),
        iters in 0usize..=3,
        seed in 0u64..1_000,
    ) {
        let desc = desc_2d(family, rad, seed, BoundaryCond::ALL[bc_i]);
        let k = compile_2d::<f32>(&desc, [1, 2, 4, 8][lanes_i]).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        prop_assert_eq!(parallel_2d_kernel(&k, &grid, iters), k.run(&grid, iters));
    }

    #[test]
    fn parallel_runner_matches_compiled_run_3d(
        family in 0usize..=2,
        rad in 1usize..=3,
        bc_i in 0usize..=2,
        lanes_i in 0usize..=3,
        nx in 1usize..=20,
        ny in 1usize..=12,
        nz in 1usize..=8,
        iters in 0usize..=3,
        seed in 0u64..1_000,
    ) {
        let desc = desc_3d(family, rad, seed, BoundaryCond::ALL[bc_i]);
        let k = compile_3d::<f32>(&desc, [1, 2, 4, 8][lanes_i]).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        prop_assert_eq!(parallel_3d_kernel(&k, &grid, iters), k.run(&grid, iters));
    }
}
