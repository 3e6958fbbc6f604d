//! Property tests for the kernel-IR execution stack: every runtime-specialized
//! kernel (random desc × boundary condition × lane width) is bit-exact with
//! the frozen generic-reference interpreter, and on the star/clamp subset the
//! desc route collapses to the frozen `serial_ref` star oracle — the
//! open-ended kernel space is anchored to the original contract.

use fpga_sim::functional;
use proptest::prelude::*;
use stencil_core::kernel_ir::{reference_run_2d, reference_run_3d, BoundaryCond, KernelDesc};
use stencil_core::{compile_2d, compile_3d, BlockConfig, Grid2D, Grid3D, Stencil2D, Stencil3D};

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Smallest valid block config at this radius: `(partime · rad) % 4 == 0`
/// (Eq. 6) with bsize a parvec multiple covering the halo.
fn cfg(rad: usize, dim3: bool) -> BlockConfig {
    let partime = 4 / gcd(rad, 4);
    let parvec = 4;
    let bsize = parvec * (2 * partime * rad + 1).div_ceil(parvec);
    if dim3 {
        BlockConfig::new_3d(rad, bsize, bsize, parvec, partime).unwrap()
    } else {
        BlockConfig::new_2d(rad, bsize, parvec, partime).unwrap()
    }
}

/// Draws one of the three desc families at the given radius/boundary.
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
    /// Specialized == generic-reference for random 2D descs across all
    /// boundary conditions, lane widths, and degenerate narrow grids.
    #[test]
    fn specialized_matches_reference_2d(
        family in 0usize..=2,
        rad in 1usize..=4,
        bc_i in 0usize..=2,
        lanes_i in 0usize..=3,
        nx in 1usize..=48,
        ny in 1usize..=16,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let bc = BoundaryCond::ALL[bc_i];
        let desc = desc_2d(family, rad, seed, bc);
        let k = compile_2d::<f32>(&desc, [1, 2, 4, 8][lanes_i]).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let got = k.run(&grid, iters);
        prop_assert_eq!(&got, &reference_run_2d::<f32>(&desc, &grid, iters));
    }

    /// Specialized == generic-reference for random 3D descs.
    #[test]
    fn specialized_matches_reference_3d(
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
        let bc = BoundaryCond::ALL[bc_i];
        let desc = desc_3d(family, rad, seed, bc);
        let k = compile_3d::<f32>(&desc, [1, 2, 4, 8][lanes_i]).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let got = k.run(&grid, iters);
        prop_assert_eq!(&got, &reference_run_3d::<f32>(&desc, &grid, iters));
    }

    /// Star/clamp subset: the desc route must be bit-exact with the frozen
    /// star oracles (`serial_ref` and the functional block simulator), so
    /// routing a legacy star job through the kernel IR is unobservable.
    #[test]
    fn star_clamp_desc_matches_serial_ref_2d(
        rad in 1usize..=4,
        nx in 1usize..=48,
        ny in 1usize..=16,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let desc = KernelDesc::from_star_2d(&st, BoundaryCond::Clamp);
        let k = compile_2d::<f32>(&desc, 8).unwrap();
        let grid =
            Grid2D::from_fn(nx, ny, |x, y| ((x * 7 + y * 13 + seed as usize) % 31) as f32)
                .unwrap();
        let got = k.run(&grid, iters);
        let cfg = cfg(rad, false);
        prop_assert_eq!(&got, &fpga_sim::run_2d_serial(&st, &grid, &cfg, iters));
        prop_assert_eq!(&got, &functional::run_2d(&st, &grid, &cfg, iters));
    }

    #[test]
    fn star_clamp_desc_matches_serial_ref_3d(
        rad in 1usize..=3,
        nx in 1usize..=20,
        ny in 1usize..=12,
        nz in 1usize..=8,
        iters in 0usize..=3,
        seed in 0u64..1_000,
    ) {
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let desc = KernelDesc::from_star_3d(&st, BoundaryCond::Clamp);
        let k = compile_3d::<f32>(&desc, 8).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        })
        .unwrap();
        let got = k.run(&grid, iters);
        let cfg = cfg(rad, true);
        prop_assert_eq!(&got, &fpga_sim::run_3d_serial(&st, &grid, &cfg, iters));
    }
}
