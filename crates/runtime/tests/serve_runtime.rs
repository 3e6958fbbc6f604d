//! Edge-case integration tests for the serving runtime: deadline expiry
//! while queued, mid-run cancellation, queue-full backpressure, graceful
//! drain, and a streaming client that walks away — the failure paths a
//! load test only hits by luck.

use std::time::{Duration, Instant};
use stencil_runtime::job::MAX_GRID_CELLS;
use stencil_runtime::workload::parse_jsonl;
use stencil_runtime::{
    Backend, JobSpec, Outcome, PlanError, PlanMode, Priority, ResultStream, Runtime, RuntimeConfig,
    StencilProgram, SubmitError,
};

/// A runtime with a single one-worker shard, so a heavy head-of-line job
/// deterministically blocks everything behind it.
fn single_lane(backend: Backend, queue_capacity: usize) -> Runtime {
    Runtime::start(RuntimeConfig {
        queue_capacity,
        workers_per_shard: 1,
        backends: vec![backend],
        shadow_percent: 0,
        ..RuntimeConfig::default()
    })
}

/// A job heavy enough to occupy a worker for tens of milliseconds even in
/// release builds.
fn blocker(id: u64, backend: Backend) -> JobSpec {
    let mut s = JobSpec::new_2d(id, 4, 512, 256, 30);
    s.backend = backend;
    s
}

/// A small, fast job.
fn small(id: u64, backend: Backend) -> JobSpec {
    let mut s = JobSpec::new_2d(id, 1, 48, 16, 1);
    s.backend = backend;
    s
}

/// Spins until the runtime's `jobs_started` counter reaches `n`.
fn wait_started(rt: &Runtime, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while rt.metrics().counter("jobs_started").get() < n {
        assert!(Instant::now() < deadline, "no job started within 30s");
        std::thread::yield_now();
    }
}

#[test]
fn deadline_expires_while_queued_without_running() {
    let rt = single_lane(Backend::CpuEngine, 8);
    rt.submit(blocker(1, Backend::CpuEngine)).unwrap();
    wait_started(&rt, 1); // the worker is now busy with the blocker
    let mut doomed = small(2, Backend::CpuEngine);
    doomed.deadline_ms = 1; // expires long before the blocker finishes
    rt.submit(doomed).unwrap();
    assert!(
        rt.wait_for_results(2, Duration::from_secs(60)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    let doomed = outcome.results.iter().find(|r| r.id == 2).unwrap();
    assert_eq!(doomed.outcome, Outcome::TimedOut);
    assert_eq!(doomed.attempts, 0, "expired-in-queue jobs never run");
    assert_eq!(doomed.cells_updated, 0);
    let blocked = outcome.results.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(blocked.outcome, Outcome::Completed);
}

#[test]
fn cancel_mid_run_leaves_the_pool_healthy() {
    // Functional is the backend with block-boundary cancellation.
    let rt = single_lane(Backend::Functional, 8);
    let handle = rt.submit(blocker(1, Backend::Functional)).unwrap();
    wait_started(&rt, 1);
    handle.cancel();
    // The shard must survive the cancellation and serve later jobs.
    for id in 2..=4 {
        rt.submit(small(id, Backend::Functional)).unwrap();
    }
    assert!(
        rt.wait_for_results(4, Duration::from_secs(60)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    let cancelled = outcome.results.iter().find(|r| r.id == 1).unwrap();
    assert_eq!(cancelled.outcome, Outcome::Cancelled);
    assert!(
        cancelled.checksum.is_none(),
        "no result from a cancelled run"
    );
    for id in 2..=4 {
        let r = outcome.results.iter().find(|r| r.id == id).unwrap();
        assert_eq!(r.outcome, Outcome::Completed, "job {id} after cancellation");
    }
}

#[test]
fn burst_overflow_is_rejected_with_queue_full() {
    let rt = single_lane(Backend::CpuEngine, 3);
    rt.submit(blocker(1, Backend::CpuEngine)).unwrap();
    wait_started(&rt, 1); // queue is empty again, worker busy
    for id in 2..=4 {
        rt.submit(small(id, Backend::CpuEngine)).unwrap();
    }
    // Capacity 3 is exhausted: the next submission is shed, not queued.
    let err = rt.submit(small(5, Backend::CpuEngine)).unwrap_err();
    assert_eq!(err, SubmitError::QueueFull);
    assert_eq!(rt.metrics().counter("jobs_rejected").get(), 1);
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    // The rejected job left no trace; the admitted four all completed.
    assert_eq!(outcome.results.len(), 4);
    assert!(outcome
        .results
        .iter()
        .all(|r| r.outcome == Outcome::Completed));
}

#[test]
fn drain_finishes_every_admitted_job() {
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 64,
        workers_per_shard: 1,
        shadow_percent: 0,
        ..RuntimeConfig::default()
    });
    let mut admitted = 0;
    for id in 0..24u64 {
        let backend = Backend::ALL[id as usize % Backend::ALL.len()];
        let mut s = small(id, backend);
        s.priority = if id % 5 == 0 {
            Priority::High
        } else {
            Priority::Normal
        };
        if rt.submit(s).is_ok() {
            admitted += 1;
        }
    }
    // Immediate drain: close the queue while most jobs are still waiting.
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(outcome.results.len(), admitted, "graceful drain lost jobs");
    assert!(outcome
        .results
        .iter()
        .all(|r| r.outcome == Outcome::Completed));
}

#[test]
fn dropping_a_result_stream_does_not_wedge_drain() {
    let rt = single_lane(Backend::CpuEngine, 16);
    let (tx, rx) = ResultStream::bounded(2);
    for id in 0..8u64 {
        rt.submit_streaming(small(id, Backend::CpuEngine), &tx)
            .unwrap();
    }
    // The client walks away: nobody reads the stream again, and it holds
    // fewer slots than there are jobs.
    drop(rx);
    drop(tx);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || done_tx.send(rt.drain()).expect("test waits"));
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("drain returns after the stream is dropped");
    drainer.join().expect("drain thread");
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(outcome.results.len(), 8, "the drain sink records every job");
    assert!(outcome
        .results
        .iter()
        .all(|r| r.outcome == Outcome::Completed));
}

#[test]
fn unserved_backend_is_refused_at_submission() {
    let rt = single_lane(Backend::CpuEngine, 4);
    let err = rt.submit(small(1, Backend::Functional)).unwrap_err();
    assert_eq!(err, SubmitError::UnservedBackend(Backend::Functional));
    let mut bad = JobSpec::new_2d(2, 9, 0, 0, 1);
    bad.backend = Backend::CpuEngine; // served shard, but invalid geometry
    let err = rt.submit(bad).unwrap_err();
    assert!(matches!(err, SubmitError::Invalid(_)));
    assert_eq!(rt.drain().results.len(), 0);
}

#[test]
fn an_auto_program_job_naming_an_unserved_backend_is_refused() {
    // The planner never routes a program, so a runtime without the shard
    // it names must refuse it, not admit a job no shard ever pops.
    let rt = single_lane(Backend::CpuEngine, 4);
    let mut spec = JobSpec::new_2d(1, 1, 64, 48, 2);
    spec.program = Some(StencilProgram::heat_gradient_2d(2));
    spec.plan = PlanMode::Auto;
    assert_eq!(
        rt.submit(spec).unwrap_err(),
        SubmitError::UnservedBackend(Backend::Functional)
    );
    assert_eq!(rt.metrics().counter("jobs_admitted").get(), 0);
    assert_eq!(rt.drain().results.len(), 0);
}

#[test]
fn retries_recover_and_are_counted() {
    let rt = single_lane(Backend::CpuEngine, 4);
    let mut flaky = small(1, Backend::CpuEngine);
    flaky.fail_times = 2; // two injected panics, then success
    rt.submit(flaky).unwrap();
    assert!(rt.wait_for_results(1, Duration::from_secs(60)));
    assert_eq!(rt.metrics().counter("retries").get(), 2);
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(outcome.results[0].outcome, Outcome::Completed);
    assert_eq!(outcome.results[0].attempts, 3);
}

#[test]
fn an_overflowing_grid_is_refused_and_the_runtime_keeps_serving() {
    // The first replay-fixture line with a 2^32 x 2^32 grid, whose cell
    // count overflows a u64, and with a 2^30 x 2^30 grid, whose buffers
    // cannot be allocated: both must be refused at admission instead of
    // reaching the queue's cost function or a worker, which would abort
    // the process leasing the second one's buffers.
    let line = include_str!("fixtures/replay_small.jsonl")
        .lines()
        .next()
        .unwrap();
    let rt = single_lane(Backend::CpuEngine, 8);
    for (side, why) in [
        (1u64 << 32, PlanError::WorkOverflow),
        (
            1 << 30,
            PlanError::GridTooLarge {
                cells: 1 << 60,
                max: MAX_GRID_CELLS,
            },
        ),
    ] {
        let huge = line.replacen(
            "\"nx\":71,\"ny\":42",
            &format!("\"nx\":{side},\"ny\":{side}"),
            1,
        );
        assert_ne!(huge, line, "the fixture's first line names a 71x42 grid");
        let spec = parse_jsonl(&huge).unwrap().remove(0);
        assert_eq!(spec.backend, Backend::CpuEngine);
        assert_eq!(rt.submit(spec).unwrap_err(), SubmitError::Invalid(why));
    }
    rt.submit(small(1, Backend::CpuEngine)).unwrap();
    assert!(
        rt.wait_for_results(1, Duration::from_secs(60)),
        "runtime wedged"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.results.len(), 1);
    assert_eq!(outcome.results[0].outcome, Outcome::Completed);
    assert_eq!(outcome.wedged_workers, 0);
}
