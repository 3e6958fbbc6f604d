//! Integration tests for the streaming admission front-end: exactly-once
//! close-then-drain across a multi-worker shard, DWRR starvation
//! resistance between tenants, quota backpressure, and streamed-result
//! completeness — the contracts the serve report's `tenants` section
//! certifies.

use std::collections::BTreeMap;
use std::time::Duration;
use stencil_runtime::{
    Backend, BatchPolicy, JobSpec, Outcome, ResultStream, Runtime, RuntimeConfig, SubmitError,
    Tenant, TenantConfig, TenantPolicy,
};

/// A runtime with one multi-worker shard whose small jobs batch.
fn batching_runtime(workers: usize, queue_capacity: usize) -> Runtime {
    Runtime::start(RuntimeConfig {
        queue_capacity,
        workers_per_shard: workers,
        backends: vec![Backend::CpuEngine],
        shadow_percent: 0,
        batch: BatchPolicy {
            max_batch: 8,
            small_cells: 1 << 20,
        },
        ..RuntimeConfig::default()
    })
}

fn small(id: u64) -> JobSpec {
    let mut s = JobSpec::new_2d(id, 1, 48, 16, 1);
    s.backend = Backend::CpuEngine;
    s
}

fn tenant_job(id: u64, tenant: &str) -> JobSpec {
    let mut s = small(id);
    s.tenant = Tenant::new(tenant);
    s
}

/// Close-then-drain across a batching multi-worker shard loses nothing:
/// many small jobs over 4 workers, every id terminal exactly once, and
/// the jobs really did run in multi-job batches.
#[test]
fn close_then_drain_with_batching_workers_loses_nothing() {
    let jobs = 400u64;
    let rt = batching_runtime(4, jobs as usize);
    for id in 0..jobs {
        rt.submit(small(id)).unwrap();
    }
    assert!(
        rt.wait_for_results(jobs as usize, Duration::from_secs(120)),
        "jobs stuck"
    );
    let batches = rt.metrics().counter("batches").get();
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(outcome.results.len(), jobs as usize, "no job lost");

    // Terminal exactly once: every id present, no duplicates.
    let mut by_id = BTreeMap::new();
    for r in &outcome.results {
        *by_id.entry(r.id).or_insert(0u32) += 1;
        assert_eq!(r.outcome, Outcome::Completed, "job {}", r.id);
    }
    assert_eq!(by_id.len(), jobs as usize, "every id terminal");
    assert!(by_id.values().all(|&n| n == 1), "no id terminal twice");
    assert!(batches > 0, "small jobs formed multi-job batches");
}

/// A heavy tenant flooding the queue must not starve a light tenant: with
/// equal DWRR weights, the light tenant's jobs complete with bounded
/// latency even while the heavy tenant keeps ~10x the work in flight.
#[test]
fn light_tenant_p99_is_bounded_under_heavy_flood() {
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 1024,
        workers_per_shard: 2,
        backends: vec![Backend::CpuEngine],
        shadow_percent: 0,
        batch: BatchPolicy::disabled(),
        ..RuntimeConfig::default()
    });
    // Flood first so the heavy tenant owns the whole queue head, then
    // trickle the light tenant in behind it.
    let heavy_jobs = 200u64;
    for id in 0..heavy_jobs {
        let mut s = JobSpec::new_2d(id, 2, 160, 64, 4);
        s.backend = Backend::CpuEngine;
        s.tenant = Tenant::new("heavy");
        rt.submit(s).unwrap();
    }
    let light_jobs = 20u64;
    for id in 0..light_jobs {
        rt.submit(tenant_job(10_000 + id, "light")).unwrap();
    }
    let total = (heavy_jobs + light_jobs) as usize;
    assert!(
        rt.wait_for_results(total, Duration::from_secs(300)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.results.len(), total);

    let light: Vec<f64> = outcome
        .results
        .iter()
        .filter(|r| r.tenant == "light")
        .map(|r| r.total_ms)
        .collect();
    let heavy_max = outcome
        .results
        .iter()
        .filter(|r| r.tenant == "heavy")
        .map(|r| r.total_ms)
        .fold(0.0f64, f64::max);
    assert_eq!(light.len(), light_jobs as usize);
    let mut light = light;
    light.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let light_p99 = light[light.len() - 1];
    // DWRR interleaves the lanes: the light tenant must clear well before
    // the heavy backlog fully drains. Without fair queueing the light jobs
    // sit behind all 200 heavy ones and finish last.
    assert!(
        light_p99 < heavy_max,
        "light tenant p99 {light_p99:.1} ms must beat the heavy tail {heavy_max:.1} ms"
    );
    let snaps = outcome.tenants;
    let light_snap = snaps.iter().find(|t| t.tenant == "light").unwrap();
    assert_eq!(light_snap.admitted, light_jobs);
    assert_eq!(light_snap.rejected_quota, 0);
}

/// Per-tenant in-flight quotas reject with quota backpressure — a distinct
/// error from global queue-full — and release as jobs finish.
#[test]
fn quota_rejections_are_distinct_from_queue_full() {
    let mut policy = TenantPolicy::default();
    policy.overrides.insert(
        "capped".to_string(),
        TenantConfig {
            weight: 1,
            max_in_flight: 2,
        },
    );
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 64,
        workers_per_shard: 1,
        backends: vec![Backend::CpuEngine],
        shadow_percent: 0,
        batch: BatchPolicy::disabled(),
        tenants: policy,
        ..RuntimeConfig::default()
    });
    rt.submit(tenant_job(1, "capped")).unwrap();
    rt.submit(tenant_job(2, "capped")).unwrap();
    let refused = rt.submit(tenant_job(3, "capped"));
    match refused {
        Err(SubmitError::QuotaExceeded {
            tenant,
            max_in_flight,
        }) => {
            assert_eq!(tenant.name(), "capped");
            assert_eq!(max_in_flight, 2);
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // Other tenants are unaffected by the cap.
    rt.submit(tenant_job(4, "free")).unwrap();
    assert!(
        rt.wait_for_results(3, Duration::from_secs(60)),
        "jobs stuck"
    );
    // Slots freed: the capped tenant can submit again.
    rt.submit(tenant_job(5, "capped")).unwrap();
    assert!(
        rt.wait_for_results(4, Duration::from_secs(60)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    let capped = outcome
        .tenants
        .iter()
        .find(|t| t.tenant == "capped")
        .unwrap();
    assert_eq!(capped.admitted, 3);
    assert_eq!(capped.rejected_quota, 1);
    assert!(capped.in_flight_high_water <= 2, "cap never breached");
    assert_eq!(
        rt_count(&outcome, "capped"),
        3,
        "all admitted capped jobs terminal"
    );
}

fn rt_count(outcome: &stencil_runtime::DrainOutcome, tenant: &str) -> usize {
    outcome
        .results
        .iter()
        .filter(|r| r.tenant == tenant)
        .count()
}

/// Streaming submission delivers every terminal result exactly once over
/// the client's bounded channel, in completion order, ending cleanly when
/// the runtime drains.
#[test]
fn streamed_results_arrive_exactly_once() {
    let jobs = 64u64;
    let rt = batching_runtime(2, jobs as usize);
    let (tx, rx) = ResultStream::bounded(8); // deliberately tight: backpressure
    let consumer = std::thread::spawn(move || {
        let mut ids = Vec::new();
        for r in rx {
            ids.push(r.id);
        }
        ids
    });
    for id in 0..jobs {
        rt.submit_streaming(small(id), &tx).unwrap();
    }
    drop(tx);
    assert!(
        rt.wait_for_results(jobs as usize, Duration::from_secs(120)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    let mut streamed = consumer.join().unwrap();
    assert_eq!(streamed.len(), jobs as usize, "one line per terminal job");
    streamed.sort_unstable();
    streamed.dedup();
    assert_eq!(streamed.len(), jobs as usize, "no duplicates");
    assert_eq!(outcome.results.len(), jobs as usize, "sink unaffected");
}
