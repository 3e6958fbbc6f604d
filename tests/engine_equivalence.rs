//! Bit-exactness across the workspace's executors: the oracle, the FPGA
//! functional simulator and the CPU engines must produce identical bits for
//! the same problem — the crate-wide canonical-operation-order contract.

use high_order_stencil::prelude::*;

fn problem_2d(rad: usize, seed: u64) -> (Stencil2D<f32>, Grid2D<f32>) {
    let st = Stencil2D::random(rad, seed).unwrap();
    let g = Grid2D::from_fn(73, 41, |x, y| {
        (((x * 2654435761 + y * 40503) >> 3) % 1000) as f32 / 37.0
    })
    .unwrap();
    (st, g)
}

fn problem_3d(rad: usize, seed: u64) -> (Stencil3D<f32>, Grid3D<f32>) {
    let st = Stencil3D::random(rad, seed).unwrap();
    let g = Grid3D::from_fn(25, 22, 13, |x, y, z| {
        (((x * 73856093 + y * 19349663 + z * 83492791) >> 2) % 997) as f32 / 53.0
    })
    .unwrap();
    (st, g)
}

#[test]
fn all_2d_engines_bit_exact() {
    for rad in 1..=4 {
        let (st, g) = problem_2d(rad, 999 + rad as u64);
        let iters = 6;
        let oracle = exec::run_2d(&st, &g, iters);

        assert_eq!(
            cpu_engine::naive_2d(&st, &g, iters),
            oracle,
            "naive rad {rad}"
        );
        assert_eq!(
            cpu_engine::parallel_2d(&st, &g, iters),
            oracle,
            "parallel rad {rad}"
        );

        let partime = if rad % 2 == 0 { 2 } else { 4 };
        let cfg = BlockConfig::new_2d(rad, 48, 2, partime).unwrap();
        assert_eq!(
            fpga_sim::functional::run_2d(&st, &g, &cfg, iters),
            oracle,
            "fpga functional rad {rad}"
        );
    }
}

#[test]
fn all_3d_engines_bit_exact() {
    for rad in 1..=3 {
        let (st, g) = problem_3d(rad, 555 + rad as u64);
        let iters = 4;
        let oracle = exec::run_3d(&st, &g, iters);

        assert_eq!(
            cpu_engine::naive_3d(&st, &g, iters),
            oracle,
            "naive rad {rad}"
        );
        assert_eq!(
            cpu_engine::tiled_3d(&st, &g, iters, Tile { ty: 8, tz: 4 }),
            oracle,
            "tiled rad {rad}"
        );
        assert_eq!(
            cpu_engine::parallel_3d(&st, &g, iters),
            oracle,
            "parallel rad {rad}"
        );

        let partime = if rad % 2 == 0 { 2 } else { 4 };
        let cfg = BlockConfig::new_3d(rad, 32, 32, 2, partime).unwrap();
        assert_eq!(
            fpga_sim::functional::run_3d(&st, &g, &cfg, iters),
            oracle,
            "fpga functional rad {rad}"
        );
    }
}

#[test]
fn f64_engines_also_agree() {
    let st = Stencil2D::<f64>::random(2, 31).unwrap();
    let g = Grid2D::from_fn(50, 30, |x, y| ((x * 7 + y) % 29) as f64 / 3.0).unwrap();
    let oracle = exec::run_2d(&st, &g, 5);
    assert_eq!(cpu_engine::parallel_2d(&st, &g, 5), oracle);
    let cfg = BlockConfig::new_2d(2, 32, 2, 2).unwrap();
    assert_eq!(fpga_sim::functional::run_2d(&st, &g, &cfg, 5), oracle);
}

#[test]
fn extreme_values_survive_the_pipeline() {
    // Denormals, zeros and large magnitudes flow through identically.
    let st = Stencil2D::<f32>::random(1, 3).unwrap();
    let g = Grid2D::from_fn(20, 20, |x, y| match (x + y) % 4 {
        0 => 0.0,
        1 => 1e-38,
        2 => -1e30,
        _ => 3.5e30,
    })
    .unwrap();
    let oracle = exec::run_2d(&st, &g, 3);
    let cfg = BlockConfig::new_2d(1, 16, 2, 4).unwrap();
    assert_eq!(fpga_sim::functional::run_2d(&st, &g, &cfg, 3), oracle);
    assert_eq!(cpu_engine::parallel_2d(&st, &g, 3), oracle);
}
