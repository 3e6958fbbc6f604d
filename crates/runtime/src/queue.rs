//! The bounded multi-tenant admission queue.
//!
//! One queue fronts the whole runtime: [`AdmissionQueue::push`] either
//! admits a job or fails fast with [`PushError::Full`] — explicit
//! backpressure instead of unbounded memory, exactly like the bounded
//! on-chip FIFOs in the simulated accelerator. Internally the queue keeps
//! one *lane* per [`Tenant`] and schedules between lanes with
//! deficit-weighted round-robin (DWRR): every time the scheduler visits a
//! lane it refills that lane's deficit by `quantum × weight`, and the lane
//! may dispatch jobs while its deficit covers their cost (a job's cost is
//! its [`crate::job::JobSpec::work_cells`]). A tenant with twice the weight
//! therefore earns twice the service rate, and a backlogged heavy tenant
//! can delay a light one by at most one quantum's worth of work — the
//! classic DWRR O(1) fairness bound. Within a lane, order is priority then
//! FIFO, per backend, as before.
//!
//! Shards drain the queue with [`AdmissionQueue::pop_batch`], which
//! respects the DWRR schedule and opportunistically batches consecutive
//! *small* jobs from the same lane so cheap work amortizes the scheduling
//! overhead. A shard with nothing to do for its backend sleeps on the
//! queue's condvar until a push or the close wakes it.
//!
//! Shutdown is a graceful drain: [`AdmissionQueue::close`] stops new
//! admissions but pops keep returning queued jobs until every lane is
//! empty, so nothing admitted is ever dropped.

use crate::batch::BatchPolicy;
use crate::cancel::CancelToken;
use crate::job::{Backend, JobSpec};
use crate::planner::PlanAssignment;
use crate::stream::ResultSender;
use crate::tenant::{Tenant, TenantPolicy};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// DWRR refill per visit, in work cells, before the weight multiplier. One
/// quantum covers a typical small job (a 64×16×1-iter probe is 1024 cells;
/// a 96×32×4 smoke is ~12k), so light tenants clear interactive work every
/// round while heavy tenants need several rounds per big job.
pub const DWRR_QUANTUM_CELLS: u64 = 64 * 1024;

/// A job inside the runtime: the spec plus its admission bookkeeping.
#[derive(Debug)]
pub struct QueuedJob {
    /// The admitted spec (already rewritten by the planner for auto jobs).
    pub spec: JobSpec,
    /// Cancellation/deadline handle shared with the submitter.
    pub token: CancelToken,
    /// When the job was admitted (queue-wait measurement origin).
    pub admitted: Instant,
    /// When the job arrived at submission, before planning — the trace
    /// record's enqueue origin. Planning happens between `submitted` and
    /// `admitted`.
    pub submitted: Instant,
    /// Wall time spent planning the job before admission, ms (0 for
    /// explicit-mode jobs).
    pub plan_ms: f64,
    /// Admission sequence number — the FIFO tiebreaker within a priority.
    pub seq: u64,
    /// The planner's decision for auto jobs, carried through to the worker
    /// so it can report measured throughput back to the exact cache slot.
    pub plan: Option<PlanAssignment>,
    /// Streaming-mode reply channel: the worker delivers the terminal
    /// [`crate::job::JobResult`] here (in addition to the drain sink) so
    /// the submitting client sees it without waiting for shutdown. `None`
    /// for classic batch-at-drain submissions.
    pub reply: Option<ResultSender>,
}

/// Why a push was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — the caller must shed load or retry later.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "admission queue is full"),
            PushError::Closed => write!(f, "admission queue is closed"),
        }
    }
}

impl std::error::Error for PushError {}

/// One tenant's lane: its queued jobs plus per-backend DWRR credit.
struct Lane {
    jobs: VecDeque<QueuedJob>,
    weight: u64,
    /// Deficit per backend, indexed like [`Backend::ALL`]. Separate
    /// counters keep one shard's draining from spending another shard's
    /// credit.
    deficit: [u64; Backend::ALL.len()],
}

impl Lane {
    fn new(weight: u64) -> Lane {
        Lane {
            jobs: VecDeque::new(),
            weight: weight.max(1),
            deficit: [0; Backend::ALL.len()],
        }
    }

    /// Index of the best-ordered job for `backend`: maximum priority rank,
    /// minimum sequence number within it.
    fn best_index(&self, backend: Backend) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.spec.backend == backend)
            .min_by_key(|(_, j)| (std::cmp::Reverse(j.spec.priority.rank()), j.seq))
            .map(|(i, _)| i)
    }
}

fn backend_index(b: Backend) -> usize {
    Backend::ALL.iter().position(|&x| x == b).expect("in ALL")
}

/// Cost of dispatching a job, in DWRR credit units.
fn cost(spec: &JobSpec) -> u64 {
    spec.work_cells().max(1)
}

struct QueueState {
    lanes: BTreeMap<Tenant, Lane>,
    /// Tenant served last, per backend — the next pop resumes *after* it
    /// in tenant-name order, which is what makes the rotation round-robin.
    last_served: [Option<Tenant>; Backend::ALL.len()],
    total: usize,
    closed: bool,
    next_seq: u64,
    high_water: usize,
}

/// Bounded, tenant-fair, priority-aware, multi-backend admission queue.
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    policy: TenantPolicy,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` jobs at once, with every tenant
    /// at the default weight.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::with_policy(capacity, TenantPolicy::default())
    }

    /// A queue whose DWRR weights come from `policy`.
    pub fn with_policy(capacity: usize, policy: TenantPolicy) -> AdmissionQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            state: Mutex::new(QueueState {
                lanes: BTreeMap::new(),
                last_served: Default::default(),
                total: 0,
                closed: false,
                next_seq: 0,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
            policy,
        }
    }

    /// Maximum number of queued jobs (summed over all tenant lanes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued across all lanes.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().total
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.state.lock().unwrap().high_water
    }

    /// Admits a job into its tenant's lane, assigning its sequence number.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`AdmissionQueue::close`].
    pub fn push(
        &self,
        spec: JobSpec,
        token: CancelToken,
        plan: Option<PlanAssignment>,
        reply: Option<ResultSender>,
    ) -> Result<(), PushError> {
        self.push_traced(spec, token, plan, reply, Instant::now(), 0.0)
    }

    /// [`AdmissionQueue::push`] with the submitter's trace origin: when
    /// the job arrived at submission (before planning) and how long
    /// planning took. The plain `push` records both as "now"/zero.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`AdmissionQueue::close`].
    pub fn push_traced(
        &self,
        spec: JobSpec,
        token: CancelToken,
        plan: Option<PlanAssignment>,
        reply: Option<ResultSender>,
        submitted: Instant,
        plan_ms: f64,
    ) -> Result<(), PushError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.total >= self.capacity {
            return Err(PushError::Full);
        }
        let tenant = spec.tenant.clone();
        let weight = self.policy.config_for(&tenant).weight;
        let job = QueuedJob {
            spec,
            token,
            admitted: Instant::now(),
            submitted,
            plan_ms,
            seq: st.next_seq,
            plan,
            reply,
        };
        st.next_seq += 1;
        st.lanes
            .entry(tenant)
            .or_insert_with(|| Lane::new(weight))
            .jobs
            .push_back(job);
        st.total += 1;
        st.high_water = st.high_water.max(st.total);
        drop(st);
        // Shards filter by backend, so a single targeted wakeup could go to
        // the wrong shard; wake everyone and let the losers re-sleep.
        self.not_empty.notify_all();
        Ok(())
    }

    /// Blocks until a job for `backend` is queued, then removes and returns
    /// the next batch under the DWRR schedule: the lane rotation resumes
    /// after the last-served tenant, each visited lane's deficit is
    /// refilled by `quantum × weight`, and the first lane whose deficit
    /// covers its best job's cost dispatches it (plus, when that job is
    /// *small* under `batch`, up to `batch.max_batch - 1` further small
    /// same-backend jobs from the *same lane*, each also charged). When no
    /// lane can afford its head job after one full rotation, every
    /// contending lane is granted the same number of extra rounds at once —
    /// arithmetically identical to spinning more rotations, without holding
    /// the lock for them — so a large job is always eventually served and
    /// weighted shares hold over time.
    ///
    /// With nothing queued for `backend`, the caller sleeps on the queue's
    /// condvar; [`AdmissionQueue::push`] and [`AdmissionQueue::close`] wake
    /// it. Returns `None` once the queue is closed *and* holds no work for
    /// `backend` (graceful drain).
    pub fn pop_batch(&self, backend: Backend, batch: &BatchPolicy) -> Option<Vec<QueuedJob>> {
        let bi = backend_index(backend);
        let mut st = self.state.lock().unwrap();
        loop {
            // Tenants with at least one job for this backend, in rotation
            // order: names after the last-served tenant first, wrapping.
            let mut contenders: Vec<Tenant> = st
                .lanes
                .iter()
                .filter(|(_, lane)| lane.best_index(backend).is_some())
                .map(|(t, _)| t.clone())
                .collect();
            if contenders.is_empty() {
                if st.closed {
                    return None;
                }
                st = self
                    .not_empty
                    .wait(st)
                    .expect("no thread panics while holding the queue lock");
                continue;
            }
            if let Some(last) = &st.last_served[bi] {
                let split = contenders.iter().position(|t| t > last).unwrap_or(0);
                contenders.rotate_left(split);
            }
            // One DWRR rotation: refill each visited lane, serve the first
            // that can afford its best job.
            let mut winner: Option<Tenant> = None;
            for t in &contenders {
                let lane = st.lanes.get_mut(t).expect("contender exists");
                lane.deficit[bi] = lane.deficit[bi].saturating_add(quantum(lane.weight));
                let idx = lane.best_index(backend).expect("contender has a job");
                if lane.deficit[bi] >= cost(&lane.jobs[idx].spec) {
                    winner = Some(t.clone());
                    break;
                }
            }
            // No lane could afford its head job: grant every contender the
            // same k extra rounds (the minimum that unblocks one) and pick
            // the rotation-first lane that k unblocks.
            if winner.is_none() {
                let k = contenders
                    .iter()
                    .map(|t| {
                        let lane = &st.lanes[t];
                        let idx = lane.best_index(backend).expect("has a job");
                        let short = cost(&lane.jobs[idx].spec) - lane.deficit[bi];
                        short.div_ceil(quantum(lane.weight))
                    })
                    .min()
                    .expect("contenders nonempty");
                for t in &contenders {
                    let lane = st.lanes.get_mut(t).expect("contender exists");
                    lane.deficit[bi] =
                        lane.deficit[bi].saturating_add(k.saturating_mul(quantum(lane.weight)));
                    if winner.is_none() {
                        let idx = lane.best_index(backend).expect("has a job");
                        if lane.deficit[bi] >= cost(&lane.jobs[idx].spec) {
                            winner = Some(t.clone());
                        }
                    }
                }
            }
            let tenant = winner.expect("grant unblocks a lane");
            let lane = st.lanes.get_mut(&tenant).expect("winner exists");
            let first_idx = lane.best_index(backend).expect("winner has a job");
            let first = lane.jobs.remove(first_idx).expect("index in range");
            lane.deficit[bi] = lane.deficit[bi].saturating_sub(cost(&first.spec));
            let mut out = vec![first];
            if batch.is_small(&out[0].spec) {
                while out.len() < batch.max_batch {
                    let next = lane
                        .best_index(backend)
                        .filter(|&i| batch.is_small(&lane.jobs[i].spec))
                        .filter(|&i| lane.deficit[bi] >= cost(&lane.jobs[i].spec));
                    match next {
                        Some(i) => {
                            let j = lane.jobs.remove(i).expect("index in range");
                            lane.deficit[bi] = lane.deficit[bi].saturating_sub(cost(&j.spec));
                            out.push(j);
                        }
                        None => break,
                    }
                }
            }
            // Classic DWRR: an emptied lane forfeits its credit, so an idle
            // tenant cannot hoard service for a later burst.
            if lane.best_index(backend).is_none() {
                lane.deficit[bi] = 0;
            }
            if lane.jobs.is_empty() {
                lane.deficit = [0; Backend::ALL.len()];
            }
            st.last_served[bi] = Some(tenant);
            st.total -= out.len();
            return Some(out);
        }
    }

    /// Closes the queue: subsequent pushes fail, blocked pops drain what is
    /// left and then return `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
    }
}

fn quantum(weight: u64) -> u64 {
    DWRR_QUANTUM_CELLS.saturating_mul(weight.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use crate::tenant::TenantConfig;
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    fn spec(id: u64, backend: Backend, priority: Priority) -> JobSpec {
        let mut s = JobSpec::new_2d(id, 1, 64, 16, 1);
        s.backend = backend;
        s.priority = priority;
        s
    }

    fn tenant_spec(id: u64, tenant: &str, backend: Backend) -> JobSpec {
        let mut s = spec(id, backend, Priority::Normal);
        s.tenant = Tenant::new(tenant);
        s
    }

    fn push(q: &AdmissionQueue, s: JobSpec) -> Result<(), PushError> {
        q.push(s, CancelToken::new(), None, None)
    }

    const ONE: BatchPolicy = BatchPolicy {
        max_batch: 1,
        small_cells: 0,
    };

    #[test]
    fn bounded_push_rejects_overflow() {
        let q = AdmissionQueue::new(2);
        push(&q, spec(1, Backend::SerialRef, Priority::Normal)).unwrap();
        push(&q, spec(2, Backend::SerialRef, Priority::Normal)).unwrap();
        assert_eq!(
            push(&q, spec(3, Backend::SerialRef, Priority::Normal)).unwrap_err(),
            PushError::Full
        );
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn capacity_is_global_across_tenants() {
        let q = AdmissionQueue::new(2);
        push(&q, tenant_spec(1, "a", Backend::SerialRef)).unwrap();
        push(&q, tenant_spec(2, "b", Backend::SerialRef)).unwrap();
        assert_eq!(
            push(&q, tenant_spec(3, "c", Backend::SerialRef)).unwrap_err(),
            PushError::Full
        );
    }

    #[test]
    fn pop_respects_priority_then_fifo_per_backend() {
        let q = AdmissionQueue::new(8);
        push(&q, spec(1, Backend::Threaded, Priority::Normal)).unwrap();
        push(&q, spec(2, Backend::Functional, Priority::Low)).unwrap();
        push(&q, spec(3, Backend::Functional, Priority::High)).unwrap();
        push(&q, spec(4, Backend::Functional, Priority::High)).unwrap();

        let ids: Vec<u64> = (0..3)
            .map(|_| q.pop_batch(Backend::Functional, &ONE).unwrap()[0].spec.id)
            .collect();
        assert_eq!(ids, vec![3, 4, 2], "High FIFO, then Low");
        // The threaded job is untouched by the functional shard.
        assert_eq!(q.pop_batch(Backend::Threaded, &ONE).unwrap()[0].spec.id, 1);
    }

    #[test]
    fn small_jobs_batch_up_to_limit() {
        let q = AdmissionQueue::new(8);
        // Every 64x16x1-iter job is "small" under a generous threshold.
        let batchy = BatchPolicy {
            max_batch: 3,
            small_cells: 1 << 20,
        };
        for id in 1..=5 {
            push(&q, spec(id, Backend::CpuEngine, Priority::Normal)).unwrap();
        }
        let first = q.pop_batch(Backend::CpuEngine, &batchy).unwrap();
        assert_eq!(
            first.iter().map(|j| j.spec.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let second = q.pop_batch(Backend::CpuEngine, &batchy).unwrap();
        assert_eq!(
            second.iter().map(|j| j.spec.id).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn big_jobs_never_batch() {
        let q = AdmissionQueue::new(8);
        let batchy = BatchPolicy {
            max_batch: 4,
            small_cells: 10, // everything is "big"
        };
        push(&q, spec(1, Backend::CpuEngine, Priority::Normal)).unwrap();
        push(&q, spec(2, Backend::CpuEngine, Priority::Normal)).unwrap();
        assert_eq!(q.pop_batch(Backend::CpuEngine, &batchy).unwrap().len(), 1);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = AdmissionQueue::new(4);
        push(&q, spec(1, Backend::SerialRef, Priority::Normal)).unwrap();
        q.close();
        assert_eq!(
            push(&q, spec(2, Backend::SerialRef, Priority::Normal)).unwrap_err(),
            PushError::Closed
        );
        // The queued job still drains...
        assert_eq!(q.pop_batch(Backend::SerialRef, &ONE).unwrap()[0].spec.id, 1);
        // ...then the shard is released.
        assert!(q.pop_batch(Backend::SerialRef, &ONE).is_none());
        assert!(q.pop_batch(Backend::Functional, &ONE).is_none());
    }

    /// How long a woken pop may take to report back before a test calls
    /// it lost; generous so a loaded machine cannot fail the tests.
    const WAKE: Duration = Duration::from_secs(10);

    /// How long a pop must stay blocked to count as blocked.
    const STILL: Duration = Duration::from_millis(50);

    /// Runs one `pop_batch` for `backend` on its own thread; the receiver
    /// yields the popped ids, or `None` for a closed, drained queue.
    fn pop_on_thread(q: &Arc<AdmissionQueue>, backend: Backend) -> Receiver<Option<Vec<u64>>> {
        let (tx, rx) = mpsc::channel();
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            let popped = q.pop_batch(backend, &ONE);
            let _ = tx.send(popped.map(|b| b.iter().map(|j| j.spec.id).collect()));
        });
        rx
    }

    fn still_blocked(rx: &Receiver<Option<Vec<u64>>>) -> bool {
        matches!(rx.recv_timeout(STILL), Err(RecvTimeoutError::Timeout))
    }

    #[test]
    fn blocked_pop_returns_none_after_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let rx = pop_on_thread(&q, Backend::SerialRef);
        assert!(
            still_blocked(&rx),
            "an open, empty queue keeps the pop asleep"
        );
        q.close();
        assert_eq!(rx.recv_timeout(WAKE).expect("close wakes the pop"), None);
    }

    #[test]
    fn blocked_pop_sleeps_through_other_backends_pushes() {
        let q = Arc::new(AdmissionQueue::new(4));
        let rx = pop_on_thread(&q, Backend::SerialRef);
        assert!(still_blocked(&rx));
        push(&q, spec(1, Backend::Functional, Priority::Normal)).unwrap();
        assert!(
            still_blocked(&rx),
            "a functional job must not release a serial_ref pop"
        );
        push(&q, spec(2, Backend::SerialRef, Priority::Normal)).unwrap();
        assert_eq!(
            rx.recv_timeout(WAKE).expect("its own job wakes the pop"),
            Some(vec![2])
        );
        assert_eq!(q.depth(), 1, "the functional job is still queued");
    }

    #[test]
    fn dwrr_interleaves_equal_weight_tenants() {
        let q = AdmissionQueue::new(16);
        // Tenant "a" floods first; "b" trickles in after. Equal weights
        // mean the rotation alternates between them regardless.
        for id in 0..4 {
            push(&q, tenant_spec(id, "a", Backend::SerialRef)).unwrap();
        }
        for id in 10..12 {
            push(&q, tenant_spec(id, "b", Backend::SerialRef)).unwrap();
        }
        let ids: Vec<u64> = (0..6)
            .map(|_| q.pop_batch(Backend::SerialRef, &ONE).unwrap()[0].spec.id)
            .collect();
        // Rotation starts at "a" (BTreeMap order), then alternates while
        // both lanes hold work; "a" finishes its backlog after "b" drains.
        assert_eq!(ids, vec![0, 10, 1, 11, 2, 3]);
    }

    #[test]
    fn dwrr_weights_skew_service_toward_heavy_tenants() {
        let mut policy = TenantPolicy::default();
        policy.overrides.insert(
            "vip".into(),
            TenantConfig {
                weight: 3,
                max_in_flight: 0,
            },
        );
        let q = AdmissionQueue::with_policy(64, policy);
        // Equal-cost jobs; vip has weight 3 vs 1. Over rotations in which
        // both lanes stay backlogged, vip should dispatch ~3x as often.
        // With equal small costs every visited lane can afford its head
        // job, so the rotation alternates — weights show up through the
        // deficit when costs exceed a quantum. Use big jobs to exercise it.
        for id in 0..6 {
            let mut s = tenant_spec(id, "vip", Backend::SerialRef);
            // ~8.4M cells ≈ 128 quanta: needs ~43 rotations at weight 3.
            s.nx = 2048;
            s.ny = 2048;
            s.iters = 2;
            push(&q, s).unwrap();
        }
        for id in 100..103 {
            let mut s = tenant_spec(id, "std", Backend::SerialRef);
            s.nx = 2048;
            s.ny = 2048;
            s.iters = 2;
            push(&q, s).unwrap();
        }
        let order: Vec<u64> = (0..9)
            .map(|_| q.pop_batch(Backend::SerialRef, &ONE).unwrap()[0].spec.id)
            .collect();
        // First 4 pops: vip gets 3 for std's 1 (3x weight, equal cost).
        let vip_in_first_4 = order.iter().take(4).filter(|&&id| id < 100).count();
        assert_eq!(vip_in_first_4, 3, "weight-3 tenant gets 3 of first 4");
        // Everything drains eventually (no starvation).
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5, 100, 101, 102]);
    }

    #[test]
    fn big_job_from_light_tenant_is_not_starved() {
        let q = AdmissionQueue::new(64);
        // One huge job for tenant "big" amid a stream of small "small"
        // jobs. The multi-round grant must eventually serve it.
        let mut huge = tenant_spec(1, "big", Backend::SerialRef);
        huge.nx = 4096;
        huge.ny = 1024;
        huge.iters = 4; // 16.7M cells ≈ 256 quanta
        push(&q, huge).unwrap();
        for id in 10..20 {
            push(&q, tenant_spec(id, "small", Backend::SerialRef)).unwrap();
        }
        let ids: Vec<u64> = (0..11)
            .map(|_| q.pop_batch(Backend::SerialRef, &ONE).unwrap()[0].spec.id)
            .collect();
        assert!(ids.contains(&1), "huge job served: {ids:?}");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn emptied_lane_forfeits_credit() {
        let q = AdmissionQueue::new(8);
        push(&q, tenant_spec(1, "a", Backend::SerialRef)).unwrap();
        q.pop_batch(Backend::SerialRef, &ONE).unwrap();
        // Lane "a" drained; its deficit must reset so a later burst gets
        // no banked head start. Observable via interleave order: a fresh
        // burst from "a" and "b" still alternates from the rotation point.
        for id in 2..4 {
            push(&q, tenant_spec(id, "a", Backend::SerialRef)).unwrap();
        }
        for id in 10..12 {
            push(&q, tenant_spec(id, "b", Backend::SerialRef)).unwrap();
        }
        let ids: Vec<u64> = (0..4)
            .map(|_| q.pop_batch(Backend::SerialRef, &ONE).unwrap()[0].spec.id)
            .collect();
        // last_served = "a", so rotation starts at "b".
        assert_eq!(ids, vec![10, 2, 11, 3]);
    }
}
