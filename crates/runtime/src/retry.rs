//! Retry schedule: capped exponential backoff with decorrelated jitter.
//!
//! Transient failures — in this runtime, a worker panic caught at the shard
//! boundary — are retried in place by the shard that owns the job, up to
//! [`MAX_ATTEMPTS`] attempts, sleeping a capped backoff between attempts. A
//! burst of injected failures used to produce a synchronized retry storm:
//! every victim slept the same `base · 2^(attempt-1)` schedule and
//! re-collided on the same shard a backoff later. [`backoff_jittered`]
//! breaks the lockstep with *decorrelated jitter* (the AWS Architecture
//! Blog recipe): each sleep is drawn uniformly from `[base, prev · 3]`,
//! capped. The draw is a pure function of a seed (job identity) and the
//! attempt number — splitmix64, the same deterministic-RNG idiom the shadow
//! sampler uses — so the replay harness stays byte-identical across
//! same-seed runs.

use std::time::Duration;
use stencil_core::util::splitmix64;

/// Total execution attempts a job gets: one run plus two retries.
pub const MAX_ATTEMPTS: u32 = 3;
/// Backoff floor, and the sleep before the first retry.
pub const BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Ceiling every backoff saturates at.
pub const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// Decorrelated-jitter backoff after failed attempt `attempt` (1-based)
/// for the job identified by `seed`: `sleep_n = min(max, uniform(base,
/// prev · 3))` with `sleep_0 = base`, the draw keyed on `(seed, attempt)`
/// via splitmix64. Two jobs failing in the same burst draw different
/// sleeps (decorrelation), while one job re-run under the replay harness
/// draws the same sleeps every time (determinism).
pub fn backoff_jittered(seed: u64, attempt: u32) -> Duration {
    let base = BASE_BACKOFF.as_nanos() as u64;
    let cap = MAX_BACKOFF.as_nanos() as u64;
    let mut prev = base;
    for n in 1..=attempt.min(32) {
        // uniform in [base, prev·3], by a draw keyed on (seed, n).
        let hi = prev.saturating_mul(3).min(cap).max(base);
        let span = hi - base + 1;
        let draw = splitmix64(seed ^ (u64::from(n)).rotate_left(48));
        prev = base + (draw % span);
    }
    Duration::from_nanos(prev.min(cap))
}

/// Whether another attempt is allowed after `attempt` attempts failed.
pub fn should_retry(attempt: u32) -> bool {
    attempt < MAX_ATTEMPTS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_budget() {
        assert!(should_retry(1));
        assert!(should_retry(2));
        assert!(!should_retry(3));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        for seed in [0u64, 1, 42, u64::MAX] {
            for attempt in 1..=6 {
                let a = backoff_jittered(seed, attempt);
                let b = backoff_jittered(seed, attempt);
                assert_eq!(a, b, "same (seed, attempt) draws the same sleep");
                assert!(a >= BASE_BACKOFF, "floor at base: {a:?}");
                assert!(a <= MAX_BACKOFF, "capped: {a:?}");
            }
        }
    }

    #[test]
    fn jitter_draws_are_pinned() {
        // A replayed workload must sleep the same nanoseconds release to
        // release; a changed draw or bound shows up here.
        for (seed, attempt, nanos) in [
            (0u64, 1u32, 22_558_530u64),
            (0, 2, 50_944_798),
            (0, 3, 14_443_761),
            (42, 1, 18_810_045),
            (42, 2, 52_231_629),
            (42, 3, 74_220_366),
            (u64::MAX, 2, 12_341_577),
            (0x1234_5678_9abc_def0, 3, 74_952_258),
        ] {
            assert_eq!(
                backoff_jittered(seed, attempt),
                Duration::from_nanos(nanos),
                "seed {seed:#x} attempt {attempt}"
            );
        }
    }

    #[test]
    fn jitter_decorrelates_across_seeds() {
        let sleeps: Vec<Duration> = (0..64).map(|s| backoff_jittered(s, 3)).collect();
        let distinct: std::collections::BTreeSet<_> = sleeps.iter().collect();
        assert!(
            distinct.len() > 32,
            "a failure burst must not march in lockstep: {} distinct of 64",
            distinct.len()
        );
    }
}
