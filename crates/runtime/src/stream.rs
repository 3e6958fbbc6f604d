//! Streaming result delivery: per-client bounded channels.
//!
//! Non-blocking submission only pays off if results come back without a
//! batch-at-drain barrier. A client opens a [`ResultStream`] (one bounded
//! channel), attaches its [`ResultSender`] to each submission, and consumes
//! [`crate::job::JobResult`]s as shards finish them — results interleave
//! with submissions instead of materializing all at once in
//! [`crate::worker::DrainOutcome`].
//!
//! The channel is a [`std::sync::mpsc::sync_channel`] with *blocking*
//! backpressure on the sender side: a shard that outruns a slow client
//! waits for space rather than dropping a result (the same trade the
//! bounded on-chip FIFOs make). A client that drops its stream stops
//! receiving: sends to it return at once, so its workers keep running and
//! [`crate::worker::Runtime::drain`] still returns; the drain sink records
//! every result either way. End-of-stream comes once every sender clone is
//! dropped — the client's own handle plus one per in-flight job — and
//! `recv` has drained what is queued.

use crate::job::JobResult;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

/// The producer half: cloned once per submission, dropped when the job's
/// terminal result has been delivered.
#[derive(Debug, Clone)]
pub struct ResultSender {
    tx: SyncSender<JobResult>,
}

impl ResultSender {
    /// Delivers one result, blocking while the channel is full — bounded
    /// backpressure toward the worker rather than silent loss. Returns at
    /// once, discarding the result, when the client has dropped its
    /// stream.
    pub fn send(&self, result: JobResult) {
        // A dropped stream wants nothing more; the drain sink keeps the
        // result.
        let _ = self.tx.send(result);
    }
}

/// The consumer half: the client's live view of its jobs' results.
#[derive(Debug)]
pub struct ResultStream {
    rx: Receiver<JobResult>,
}

impl ResultStream {
    /// A new bounded stream; returns the consumer and the seed sender the
    /// client clones into its submissions.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn bounded(capacity: usize) -> (ResultSender, ResultStream) {
        assert!(capacity > 0, "stream capacity must be positive");
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        (ResultSender { tx }, ResultStream { rx })
    }

    /// Blocks for the next result. Returns `None` only at end-of-stream:
    /// the queue is empty and every sender clone has been dropped.
    pub fn recv(&self) -> Option<JobResult> {
        self.rx.recv().ok()
    }

    /// Like [`ResultStream::recv`] but gives up after `timeout`; `Ok(None)`
    /// is end-of-stream, `Err(())` is a timeout with the stream still open.
    #[allow(clippy::result_unit_err)]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<JobResult>, ()> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(Some(r)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(()),
        }
    }
}

impl Iterator for ResultStream {
    type Item = JobResult;

    fn next(&mut self) -> Option<JobResult> {
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Backend, Outcome};

    fn result(id: u64) -> JobResult {
        JobResult {
            id,
            tenant: crate::tenant::Tenant::default().name().to_string(),
            backend: Backend::CpuEngine,
            outcome: Outcome::Completed,
            attempts: 1,
            queue_wait_ms: 0.0,
            run_ms: 0.0,
            total_ms: 0.0,
            cells_updated: 0,
            checksum: None,
            shadow_match: None,
            plan: None,
        }
    }

    #[test]
    fn results_stream_in_order_then_end() {
        let (tx, rx) = ResultStream::bounded(4);
        tx.send(result(1));
        tx.send(result(2));
        drop(tx);
        assert_eq!(rx.recv().map(|r| r.id), Some(1));
        assert_eq!(rx.recv().map(|r| r.id), Some(2));
        assert!(rx.recv().is_none(), "end-of-stream after last sender");
        assert!(rx.recv().is_none(), "end-of-stream is sticky");
    }

    #[test]
    fn bounded_send_blocks_until_drained() {
        let (tx, rx) = ResultStream::bounded(1);
        tx.send(result(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send(result(2)); // blocks until the main thread drains
                drop(tx);
            });
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv().map(|r| r.id), Some(1));
            assert_eq!(rx.recv().map(|r| r.id), Some(2));
            assert!(rx.recv().is_none());
        });
    }

    #[test]
    fn many_senders_one_consumer_loses_nothing() {
        let (tx, rx) = ResultStream::bounded(3);
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        tx.send(result(t * PER_THREAD + i));
                    }
                });
            }
            drop(tx);
            let mut got: Vec<u64> = std::iter::from_fn(|| rx.recv()).map(|r| r.id).collect();
            got.sort_unstable();
            assert_eq!(got, (0..4 * PER_THREAD).collect::<Vec<_>>());
        });
    }

    #[test]
    fn recv_timeouts() {
        let (tx, rx) = ResultStream::bounded(2);
        assert!(
            rx.recv_timeout(Duration::from_millis(5)).is_err(),
            "open stream times out"
        );
        tx.send(result(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5))
                .map(|r| r.map(|r| r.id)),
            Ok(Some(7))
        );
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(5)),
            Ok(None)
        ));
    }
}
