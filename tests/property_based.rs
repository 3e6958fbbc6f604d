//! Property-based cross-crate tests: random stencils, grids, and blocking
//! configurations must always satisfy the workspace invariants.

use high_order_stencil::prelude::*;
use proptest::prelude::*;

/// Strategy: a legal 2D blocking configuration (Eq. 5/6-compliant), with
/// `parvec` in {2, 4, 8} and chains up to 12 deep at every radius.
fn config_2d() -> impl Strategy<Value = BlockConfig> {
    (1usize..=4, 0usize..3, 1usize..=12).prop_map(|(rad, pv_idx, depth)| {
        let parvec = [2usize, 4, 8][pv_idx];
        // partime multiple of 4/gcd(rad,4) keeps Eq. 6 satisfied: radius 4
        // draws every depth, radius 2 the even ones, radii 1 and 3 draw 4,
        // 8 and 12.
        let step = 4 / gcd(rad, 4);
        let partime = depth.div_ceil(step) * step;
        // bsize large enough for the halo and a multiple of parvec.
        let bsize = ((2 * partime * rad + 16).div_ceil(parvec)) * parvec * 2;
        BlockConfig::new_2d(rad, bsize, parvec, partime).unwrap()
    })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The FPGA functional simulator equals the oracle for arbitrary legal
    /// configurations, grid shapes (including non-multiples of the compute
    /// block) and iteration counts.
    #[test]
    fn fpga_functional_equals_oracle(
        cfg in config_2d(),
        nx_extra in 0usize..37,
        ny in 5usize..40,
        iters in 0usize..10,
        seed in 0u64..1000,
    ) {
        let st = Stencil2D::<f32>::random(cfg.rad, seed).unwrap();
        let nx = cfg.csize_x() + nx_extra + 1;
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 31 + y * 17) % 101) as f32).unwrap();
        let got = fpga_sim::functional::run_2d(&st, &grid, &cfg, iters);
        let want = exec::run_2d(&st, &grid, iters);
        prop_assert_eq!(got, want);
    }

    /// Convexity invariance: any diffusion stencil keeps values within the
    /// initial range on every engine (no overshoot), for any radius.
    #[test]
    fn convex_stencils_never_overshoot(
        rad in 1usize..=4,
        iters in 1usize..8,
        lo in -50.0f64..0.0,
        hi in 1.0f64..50.0,
    ) {
        let st = Stencil2D::<f64>::diffusion(rad).unwrap();
        let grid = Grid2D::from_fn(24, 24, |x, y| {
            if (x + y) % 2 == 0 { lo } else { hi }
        }).unwrap();
        let out = cpu_engine::parallel_2d(&st, &grid, iters);
        let eps = 1e-9 * (hi - lo).abs();
        for &v in out.as_slice() {
            prop_assert!(v >= lo - eps && v <= hi + eps, "{v} outside [{lo}, {hi}]");
        }
    }

    /// The analytical estimate is always an upper bound for the simulated
    /// measurement (the model assumes a perfect memory interface).
    #[test]
    fn estimate_bounds_simulation(cfg in config_2d()) {
        let device = FpgaDevice::arria10_gx1150();
        let fmax = 300.0;
        let est = perf_model::model::estimate(&device, &cfg, fmax);
        let dims = GridDims::D2 { nx: cfg.csize_x() * 2, ny: 256 };
        let r = fpga_sim::timing::simulate(
            &device, &cfg, dims, cfg.partime,
            &fpga_sim::TimingOptions { pass_overhead_s: 0.0, ..fpga_sim::TimingOptions::at_fmax(fmax) },
        );
        prop_assert!(
            r.gbyte_per_s <= est.gbs * 1.02,
            "simulated {} exceeds estimate {}", r.gbyte_per_s, est.gbs
        );
    }

    /// Geometry invariant: block spans tile the axis exactly for any length.
    #[test]
    fn spans_partition_axis(n in 1usize..5000, csize in 1usize..600, halo in 0usize..50) {
        let spans = BlockConfig::spans(n, csize, halo);
        let mut cursor = 0;
        for s in &spans {
            prop_assert_eq!(s.comp_start, cursor);
            prop_assert!(s.comp_len() >= 1 && s.comp_len() <= csize);
            cursor = s.comp_end;
        }
        prop_assert_eq!(cursor, n);
    }
}

/// Strategy: a legal 3D blocking configuration.
fn config_3d() -> impl Strategy<Value = BlockConfig> {
    (1usize..=3, 1usize..=2).prop_map(|(rad, pt_mult)| {
        let parvec = 2;
        let step = 4 / gcd(rad, 4);
        let partime = step * pt_mult;
        let bsize = ((2 * partime * rad + 8).div_ceil(parvec)) * parvec * 2;
        BlockConfig::new_3d(rad, bsize, bsize, parvec, partime).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The 3D functional simulator equals the oracle for arbitrary legal
    /// configurations and grid shapes.
    #[test]
    fn fpga_functional_equals_oracle_3d(
        cfg in config_3d(),
        nx_extra in 0usize..9,
        ny_extra in 0usize..9,
        nz in 4usize..12,
        iters in 1usize..6,
        seed in 0u64..500,
    ) {
        let st = Stencil3D::<f32>::random(cfg.rad, seed).unwrap();
        let nx = cfg.csize_x() + nx_extra + 1;
        let ny = cfg.csize_y() + ny_extra + 1;
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 7 + y * 11 + z * 13) % 29) as f32
        }).unwrap();
        let got = fpga_sim::functional::run_3d(&st, &grid, &cfg, iters);
        let want = exec::run_3d(&st, &grid, iters);
        prop_assert_eq!(got, want);
    }

    /// The vector-folded CPU engine equals the oracle for arbitrary grid
    /// shapes (partial tiles and single-cell axes included).
    #[test]
    fn folded_engine_equals_oracle(
        rad in 1usize..=4,
        nx in 1usize..40,
        ny in 1usize..40,
        iters in 0usize..6,
        seed in 0u64..500,
    ) {
        let st = Stencil2D::<f32>::random(rad, seed).unwrap();
        let grid = Grid2D::from_fn(nx, ny, |x, y| ((x * 13 + y * 7) % 19) as f32).unwrap();
        let got = cpu_engine::folded_run_2d(&st, &grid, iters);
        let want = exec::run_2d(&st, &grid, iters);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The 3D vector-folded CPU engine equals the oracle for arbitrary grid
    /// shapes (down to one cell per axis).
    #[test]
    fn folded_3d_equals_oracle(
        rad in 1usize..=3,
        nx in 1usize..=18,
        ny in 1usize..=12,
        nz in 1usize..=7,
        iters in 0usize..=4,
        seed in 0u64..1_000,
    ) {
        let st = Stencil3D::<f32>::random(rad, seed).unwrap();
        let grid = Grid3D::from_fn(nx, ny, nz, |x, y, z| {
            ((x * 3 + y * 5 + z * 11 + seed as usize) % 29) as f32
        }).unwrap();
        let want = exec::run_3d(&st, &grid, iters);
        prop_assert_eq!(cpu_engine::folded_run_3d(&st, &grid, iters), want);
    }
}
