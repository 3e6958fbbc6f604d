//! Retry policy with capped exponential backoff and decorrelated jitter.
//!
//! Transient failures — in this runtime, a worker panic caught at the shard
//! boundary — are retried in place by the shard that owns the job, sleeping
//! a capped exponential backoff between attempts. A burst of injected
//! failures used to produce a synchronized retry storm: every victim slept
//! the same `base · 2^(attempt-1)` schedule and re-collided on the same
//! shard a backoff later. [`RetryPolicy::backoff_jittered`] breaks the
//! lockstep with *decorrelated jitter* (the AWS Architecture Blog recipe):
//! each sleep is drawn uniformly from `[base, prev · 3]`, capped. The draw
//! is a pure function of a seed (job identity) and the attempt number —
//! splitmix64, the same deterministic-RNG idiom the shadow sampler uses —
//! so the replay harness stays byte-identical across same-seed runs. The
//! policy is pure data so tests can assert the exact schedule.

use std::time::Duration;
use stencil_core::util::splitmix64;

/// When and how often a shard retries a transiently-failed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts allowed (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The serving default: three attempts, 10 ms base, 100 ms cap.
    pub fn serving_default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        }
    }

    /// Deterministic backoff to sleep after failed attempt number `attempt`
    /// (1-based): `min(base · 2^(attempt-1), max)`. The jitter-free
    /// schedule — kept for tests and as the upper envelope reference.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let raw = self.base_backoff.saturating_mul(1u32 << shift);
        raw.min(self.max_backoff)
    }

    /// Decorrelated-jitter backoff after failed attempt `attempt` (1-based)
    /// for the job identified by `seed`: `sleep_n = min(max, uniform(base,
    /// prev · 3))` with `sleep_0 = base`, the draw keyed on
    /// `(seed, attempt)` via splitmix64. Two jobs failing in the same burst
    /// draw different sleeps (decorrelation), while one job re-run under
    /// the replay harness draws the same sleeps every time (determinism).
    /// Zero-backoff policies stay zero — [`RetryPolicy::none`] and
    /// fast-test configs are unaffected.
    pub fn backoff_jittered(&self, seed: u64, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() || self.max_backoff.is_zero() {
            return Duration::ZERO;
        }
        let base = self.base_backoff.as_nanos().min(u64::MAX as u128) as u64;
        let cap = self.max_backoff.as_nanos().min(u64::MAX as u128) as u64;
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
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(35), "capped");
        assert_eq!(
            p.backoff_after(30),
            Duration::from_millis(35),
            "no overflow"
        );
    }

    #[test]
    fn attempt_budget() {
        let p = RetryPolicy::serving_default();
        assert!(p.should_retry(1));
        assert!(p.should_retry(2));
        assert!(!p.should_retry(3));
        assert!(!RetryPolicy::none().should_retry(1));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let p = RetryPolicy::serving_default();
        for seed in [0u64, 1, 42, u64::MAX] {
            for attempt in 1..=6 {
                let a = p.backoff_jittered(seed, attempt);
                let b = p.backoff_jittered(seed, attempt);
                assert_eq!(a, b, "same (seed, attempt) draws the same sleep");
                assert!(a >= p.base_backoff, "floor at base: {a:?}");
                assert!(a <= p.max_backoff, "capped: {a:?}");
            }
        }
    }

    #[test]
    fn jitter_decorrelates_across_seeds() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(10), // wide cap: room to differ
        };
        let sleeps: Vec<Duration> = (0..64).map(|s| p.backoff_jittered(s, 3)).collect();
        let distinct: std::collections::BTreeSet<_> = sleeps.iter().collect();
        assert!(
            distinct.len() > 32,
            "a failure burst must not march in lockstep: {} distinct of 64",
            distinct.len()
        );
    }

    #[test]
    fn zero_backoff_policies_stay_zero() {
        let p = RetryPolicy::none();
        assert_eq!(p.backoff_jittered(7, 1), Duration::ZERO);
        assert_eq!(p.backoff_jittered(7, 9), Duration::ZERO);
    }
}
