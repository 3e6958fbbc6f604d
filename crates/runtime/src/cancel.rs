//! Cooperative cancellation and deadlines.
//!
//! Every admitted job carries a [`CancelToken`]: a shared flag plus an
//! optional absolute deadline. The token is *cooperative* — nothing is
//! interrupted preemptively; the executors poll it at block and row-band
//! boundaries (see `fpga_sim::functional::run_2d_replicated_cancellable_into`
//! and `cpu_engine::engines::parallel_2d_kernel_into`) and the worker polls
//! it between attempts. Once observed cancelled it stays
//! cancelled (monotonic), which is the contract the block-loop hook
//! requires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared cancellation handle for one job.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once the token was cancelled explicitly or its deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline_expired()
    }

    /// True when the token has a deadline and it has passed — distinguishes
    /// a timeout from an explicit cancel.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn explicit_cancel_is_shared_and_monotonic() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "stays cancelled");
        assert!(!t.deadline_expired(), "no deadline => never a timeout");
    }

    #[test]
    fn deadline_expiry_cancels() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert!(t.deadline_expired());

        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }
}
