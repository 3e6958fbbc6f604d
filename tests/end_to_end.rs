//! End-to-end integration: tuner → synthesis → execution → validation,
//! crossing every crate in the workspace.

use high_order_stencil::prelude::*;

#[test]
fn tuned_configs_synthesize_and_validate_2d() {
    let device = FpgaDevice::arria10_gx1150();
    for rad in 1..=4 {
        // Tune at device scale, then re-block to a test-sized problem with
        // the same parvec (the knob that shapes memory behaviour).
        let best = &tuner::tune(&device, Dim::D2, rad, 1)[0].config;
        let partime = (4 / gcd(rad, 4)).max(1);
        let cfg = BlockConfig::new_2d(rad, 64, best.parvec.min(4), partime).unwrap();
        let acc = Accelerator::synthesize(device.clone(), cfg, 3).unwrap();

        let stencil = Stencil2D::<f32>::random(rad, 1000 + rad as u64).unwrap();
        let grid = Grid2D::from_fn(3 * cfg.csize_x() + 7, 40, |x, y| {
            ((x * 3 + y * 7) % 23) as f32
        })
        .unwrap();
        let iters = partime * 2 + 1;
        let (out, report) = acc.run_2d(&stencil, &grid, iters);
        assert_eq!(out, exec::run_2d(&stencil, &grid, iters), "rad {rad}");
        assert!(report.gcell_per_s > 0.0);
    }
}

#[test]
fn tuned_configs_synthesize_and_validate_3d() {
    let device = FpgaDevice::arria10_gx1150();
    for rad in 1..=2 {
        let partime = 4 / gcd(rad, 4);
        let cfg = BlockConfig::new_3d(rad, 32, 32, 2, partime).unwrap();
        let acc = Accelerator::synthesize(device.clone(), cfg, 3).unwrap();
        let stencil = Stencil3D::<f32>::random(rad, 2000 + rad as u64).unwrap();
        let grid =
            Grid3D::from_fn(29, 27, 12, |x, y, z| ((x + 2 * y + 5 * z) % 11) as f32).unwrap();
        let iters = partime + 1;
        let (out, _) = acc.run_3d(&stencil, &grid, iters);
        assert_eq!(out, exec::run_3d(&stencil, &grid, iters), "rad {rad}");
    }
}

#[test]
fn codegen_covers_every_tuned_winner() {
    let device = FpgaDevice::arria10_gx1150();
    for dim in [Dim::D2, Dim::D3] {
        for rad in 1..=4 {
            let best = &tuner::tune(&device, dim, rad, 1)[0].config;
            let k = opencl_codegen::generate(best);
            assert!(k.source.contains("autorun"), "{best:?}");
            assert!(
                k.defines
                    .iter()
                    .any(|(n, v)| n == "RAD" && *v == rad.to_string()),
                "{best:?}"
            );
            // The launch plan for the paper-scale problem is consistent.
            let (nx, ny, nz) = match dim {
                Dim::D2 => (BlockConfig::aligned_input(16000, best.csize_x()), 16000, 0),
                Dim::D3 => (
                    BlockConfig::aligned_input(700, best.csize_x()),
                    BlockConfig::aligned_input(700, best.csize_y()),
                    700,
                ),
            };
            let plan = opencl_codegen::plan(best, nx, ny, nz, 1000);
            assert!(plan.read_vectors >= plan.write_vectors);
            assert_eq!(plan.passes, 1000usize.div_ceil(best.partime));
        }
    }
}

#[test]
fn timing_report_consistency_via_accelerator() {
    let device = FpgaDevice::arria10_gx1150();
    let cfg = BlockConfig::new_2d(1, 128, 4, 4).unwrap();
    let acc = Accelerator::synthesize(device, cfg, 3).unwrap();
    let r = acc.estimate_timing(GridDims::D2 { nx: 240, ny: 100 }, 9);
    assert_eq!(r.passes, 3);
    assert_eq!(r.cell_updates, 240 * 100 * 9);
    assert!((r.gflop_per_s / r.gcell_per_s - 9.0).abs() < 1e-9);
    assert!((r.gbyte_per_s / r.gcell_per_s - 8.0).abs() < 1e-9);
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
