//! Reference (oracle) stencil executors.
//!
//! These are deliberately simple, obviously-correct, cell-by-cell loops.
//! Every optimized engine in the workspace — the FPGA simulator's PE chain
//! and the CPU engines — is validated against these, **bit-exactly**, because
//! all of them evaluate Eq. (1) in the canonical operation order (see
//! [`crate::stencil`]).

use crate::grid::{Grid2D, Grid3D};
use crate::real::Real;
use crate::stencil::{Stencil2D, Stencil3D};

/// Computes one time step of `st` over `src`, writing into `dst`.
///
/// Out-of-bound neighbours clamp to the border cell (the paper's boundary
/// condition).
///
/// # Panics
/// Panics when `src` and `dst` shapes differ.
pub fn step_2d<T: Real>(st: &Stencil2D<T>, src: &Grid2D<T>, dst: &mut Grid2D<T>) {
    assert_eq!(
        (src.nx(), src.ny()),
        (dst.nx(), dst.ny()),
        "source/destination shape mismatch"
    );
    for y in 0..src.ny() {
        for x in 0..src.nx() {
            let v = st.apply_clamped(src, x, y);
            dst.set(x, y, v);
        }
    }
}

/// Computes one time step of `st` over `src`, writing into `dst` (3D).
///
/// # Panics
/// Panics when `src` and `dst` shapes differ.
pub fn step_3d<T: Real>(st: &Stencil3D<T>, src: &Grid3D<T>, dst: &mut Grid3D<T>) {
    assert_eq!(
        (src.nx(), src.ny(), src.nz()),
        (dst.nx(), dst.ny(), dst.nz()),
        "source/destination shape mismatch"
    );
    for z in 0..src.nz() {
        for y in 0..src.ny() {
            for x in 0..src.nx() {
                let v = st.apply_clamped(src, x, y, z);
                dst.set(x, y, z, v);
            }
        }
    }
}

/// Runs `iters` double-buffered time steps and returns the final grid.
pub fn run_2d<T: Real>(st: &Stencil2D<T>, grid: &Grid2D<T>, iters: usize) -> Grid2D<T> {
    let mut cur = grid.clone();
    let mut next = grid.clone();
    for _ in 0..iters {
        step_2d(st, &cur, &mut next);
        cur.swap(&mut next);
    }
    cur
}

/// Runs `iters` double-buffered time steps and returns the final grid (3D).
pub fn run_3d<T: Real>(st: &Stencil3D<T>, grid: &Grid3D<T>, iters: usize) -> Grid3D<T> {
    let mut cur = grid.clone();
    let mut next = grid.clone();
    for _ in 0..iters {
        step_3d(st, &cur, &mut next);
        cur.swap(&mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest absolute difference between two equally long slices.
    fn max_deviation(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "slice length mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = Grid2D::from_fn(6, 5, |x, y| (x * y) as f32).unwrap();
        let st = Stencil2D::uniform(2).unwrap();
        assert_eq!(run_2d(&st, &g, 0), g);
    }

    #[test]
    fn constant_field_is_fixed_point_of_convex_stencil_2d() {
        let g = Grid2D::<f64>::filled(16, 16, 2.5).unwrap();
        let st = Stencil2D::diffusion(3).unwrap();
        let out = run_2d(&st, &g, 5);
        assert!(max_deviation(g.as_slice(), out.as_slice()) < 1e-10);
    }

    #[test]
    fn constant_field_is_fixed_point_of_convex_stencil_3d() {
        let g = Grid3D::<f64>::filled(8, 8, 8, -1.25).unwrap();
        let st = Stencil3D::diffusion(2).unwrap();
        let out = run_3d(&st, &g, 3);
        assert!(max_deviation(g.as_slice(), out.as_slice()) < 1e-10);
    }

    #[test]
    fn linearity_of_one_step_2d() {
        // step(a·u + b·v) == a·step(u) + b·step(v) up to rounding.
        let u = Grid2D::from_fn(10, 10, |x, y| ((x + y) as f64).sin()).unwrap();
        let v = Grid2D::from_fn(10, 10, |x, y| ((2 * x) as f64 - y as f64).cos()).unwrap();
        let st = Stencil2D::<f64>::random(3, 99).unwrap();
        let (a, b) = (0.75, -1.5);

        let combined = Grid2D::from_fn(10, 10, |x, y| a * u.get(x, y) + b * v.get(x, y)).unwrap();
        let mut out_combined = combined.clone();
        step_2d(&st, &combined, &mut out_combined);

        let mut out_u = u.clone();
        step_2d(&st, &u, &mut out_u);
        let mut out_v = v.clone();
        step_2d(&st, &v, &mut out_v);

        let recombined =
            Grid2D::from_fn(10, 10, |x, y| a * out_u.get(x, y) + b * out_v.get(x, y)).unwrap();
        assert!(max_deviation(out_combined.as_slice(), recombined.as_slice()) < 1e-9);
    }

    #[test]
    fn diffusion_smooths_a_spike_2d() {
        let mut g = Grid2D::<f32>::zeros(17, 17).unwrap();
        g.set(8, 8, 1.0);
        let st = Stencil2D::diffusion(4).unwrap();
        let out = run_2d(&st, &g, 4);
        // Mass spreads: peak decreases, neighbours gain.
        assert!(out.get(8, 8) < 1.0);
        assert!(out.get(7, 8) > 0.0);
        assert!(out.get(8, 12) > 0.0);
        // Convexity keeps values within [0, 1].
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn diffusion_conserves_interior_mass_approximately_3d() {
        // Away from boundaries a convex symmetric stencil conserves total
        // mass; with a centered spike and few iterations nothing reaches the
        // border, so total mass is conserved.
        let mut g = Grid3D::<f64>::zeros(21, 21, 21).unwrap();
        g.set(10, 10, 10, 8.0);
        let st = Stencil3D::diffusion(2).unwrap();
        let out = run_3d(&st, &g, 2);
        let mass: f64 = out.as_slice().iter().sum();
        assert!((mass - 8.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn successive_steps_match_manual_composition() {
        let g = Grid2D::from_fn(7, 7, |x, y| (3 * x + y) as f32).unwrap();
        let st = Stencil2D::<f32>::random(2, 3).unwrap();
        // run_2d(2) == step(step(g))
        let mut once = g.clone();
        step_2d(&st, &g, &mut once);
        let mut twice = once.clone();
        step_2d(&st, &once, &mut twice);
        assert_eq!(run_2d(&st, &g, 2), twice);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn step_shape_mismatch_panics() {
        let src = Grid2D::<f32>::zeros(4, 4).unwrap();
        let mut dst = Grid2D::<f32>::zeros(4, 5).unwrap();
        step_2d(&Stencil2D::uniform(1).unwrap(), &src, &mut dst);
    }

    #[test]
    fn grid_smaller_than_radius_still_works() {
        // A 2x2 grid with a radius-4 stencil: every neighbour clamps.
        let g = Grid2D::<f64>::filled(2, 2, 1.0).unwrap();
        let st = Stencil2D::diffusion(4).unwrap();
        let out = run_2d(&st, &g, 3);
        assert!(max_deviation(g.as_slice(), out.as_slice()) < 1e-10);
    }
}
