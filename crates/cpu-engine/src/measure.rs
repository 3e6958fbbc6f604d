//! Measurement helpers: wall-clock timing and throughput accounting.

use std::time::Instant;

/// Times a closure; returns its result and elapsed seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Billions of cell updates per second.
pub fn gcells_per_s(cells: usize, iters: usize, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "elapsed time must be positive");
    (cells as f64 * iters as f64) / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcells_arithmetic() {
        assert!((gcells_per_s(1_000_000, 1000, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_measures_something() {
        let (v, secs) = time(|| (0..100_000).sum::<u64>());
        assert_eq!(v, 4_999_950_000);
        assert!(secs >= 0.0);
    }

    #[test]
    #[should_panic(expected = "elapsed time must be positive")]
    fn zero_time_panics() {
        let _ = gcells_per_s(1, 1, 0.0);
    }
}
