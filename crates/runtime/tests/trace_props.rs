//! Property tests for the per-job trace: every terminal job leaves exactly
//! one structured record, and every record's span arithmetic is internally
//! consistent with the [`stencil_runtime::JobResult`] the runtime returned.
//!
//! The contracts enforced over *random* synthetic workloads:
//!
//! 1. **Losslessness** — the bounded trace writer drains exactly one
//!    record per terminal job (`trace_records_written == results.len()`),
//!    and [`validate_trace_file`] agrees after re-reading the file.
//! 2. **Span ordering** — `enqueue <= plan-end <= exec_start <= done` for
//!    every record, with the sum of per-attempt execution spans bounded by
//!    the execution window.
//! 3. **Cross-consistency** — per id, the trace's attempt count and
//!    outcome label equal the `JobResult`'s.
//!
//! Deterministic companions prove that jobs expiring while queued
//! (TimedOut, zero attempts) and jobs run inside one multi-job batch
//! still hit the single record-emission site exactly once.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use stencil_runtime::trace::outcome_label;
use stencil_runtime::{
    synthetic_workload, validate_trace_file, Backend, BatchPolicy, JobResult, JobSpec, Runtime,
    RuntimeConfig, SyntheticParams, TenantConfig, TenantPolicy, TraceRecord,
};

/// Slack when comparing sums of measured sub-spans against an enclosing
/// span (mirrors the validator's own tolerance).
const EPS_MS: f64 = 0.5;

/// xorshift64* expansion of one proptest-drawn seed into a draw stream —
/// the vendored shim only offers scalar range strategies, so workload
/// shapes are derived deterministically from a seed.
struct Draws(u64);

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// A collision-free temp path for one test run's trace file.
fn temp_trace(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "stencil_trace_props_{}_{}_{}.jsonl",
        tag,
        std::process::id(),
        seed
    ))
}

/// Parses the records out of a trace file, skipping the footer line.
fn read_records(path: &PathBuf) -> Vec<TraceRecord> {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    text.lines()
        .filter(|line| !line.contains("\"trace_footer\""))
        .map(|line| serde_json::from_str::<TraceRecord>(line).expect("record parses"))
        .collect()
}

/// Asserts one record per result, then checks every record's span
/// arithmetic and its cross-consistency with the matching `JobResult`.
fn assert_trace_matches_results(records: &[TraceRecord], results: &[JobResult]) {
    let by_id: BTreeMap<u64, &TraceRecord> = records.iter().map(|r| (r.id, r)).collect();
    assert_eq!(
        by_id.len(),
        records.len(),
        "no id may be traced twice (exactly-once)"
    );
    assert_eq!(
        records.len(),
        results.len(),
        "one trace record per terminal job"
    );
    for result in results {
        let rec = by_id
            .get(&result.id)
            .unwrap_or_else(|| panic!("job {} has no trace record", result.id));
        assert_eq!(
            rec.outcome,
            outcome_label(result.outcome),
            "job {}: trace outcome mirrors the result",
            result.id
        );
        assert_eq!(
            rec.attempts.len() as u32,
            result.attempts,
            "job {}: attempts in trace == attempts in JobResult",
            result.id
        );
        assert_eq!(rec.tenant, result.tenant, "job {}: tenant", result.id);

        // enqueue <= plan-end <= exec_start <= done.
        assert!(
            rec.plan_ms >= 0.0 && rec.queue_wait_ms >= 0.0,
            "job {}: non-negative admission spans",
            result.id
        );
        assert!(
            rec.plan_ms + rec.queue_wait_ms <= rec.exec_start_ms - rec.enqueue_ms + EPS_MS,
            "job {}: plan + queue wait fit before exec_start",
            result.id
        );
        assert!(
            rec.exec_start_ms >= rec.enqueue_ms,
            "job {}: exec_start after enqueue",
            result.id
        );
        assert!(
            rec.done_ms >= rec.exec_start_ms,
            "job {}: done after exec_start",
            result.id
        );

        // Sum of per-attempt execution spans fits in the total span.
        let exec_total: f64 = rec.attempts.iter().map(|a| a.exec_ms).sum();
        assert!(
            exec_total <= rec.total_span_ms() + EPS_MS,
            "job {}: summed attempt spans {exec_total:.3}ms exceed total {:.3}ms",
            result.id,
            rec.total_span_ms()
        );
    }
}

/// Runs one random synthetic workload with a trace file attached and
/// checks losslessness plus every per-record property.
fn run_random_workload(seed: u64) {
    let mut d = Draws::new(seed);
    let params = SyntheticParams {
        jobs: d.range(8, 20),
        seed,
        quick: true,
        mean_arrival_us: d.range(20, 200) as u64,
        tenants: d.range(1, 3),
        programs: d.next() % 2 == 0,
        kernels: d.next() % 2 == 0,
    };
    let specs = synthetic_workload(&params);
    let path = temp_trace("rand", seed);
    let _ = std::fs::remove_file(&path);

    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: params.jobs.max(8),
        shadow_percent: d.range(0, 40) as u8,
        trace_out: Some(path.clone()),
        ..RuntimeConfig::default()
    });
    for spec in specs {
        rt.submit(spec).expect("admission");
    }
    assert!(
        rt.wait_for_results(params.jobs, Duration::from_secs(120)),
        "workload stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(
        outcome.trace_records_written,
        outcome.results.len() as u64,
        "writer drained one record per terminal job"
    );

    let stats = validate_trace_file(&path).expect("trace file validates");
    assert_eq!(stats.records, outcome.results.len() as u64);
    assert_eq!(
        stats.attempts,
        outcome
            .results
            .iter()
            .map(|r| u64::from(r.attempts))
            .sum::<u64>(),
        "total attempts reconcile"
    );

    let records = read_records(&path);
    assert_trace_matches_results(&records, &outcome.results);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workloads (size, arrival rate, tenancy, program mix, shadow
    /// sampling) always produce a lossless, span-consistent trace.
    #[test]
    fn random_workloads_trace_every_terminal_job_exactly_once(seed in 0u64..u64::MAX / 2) {
        run_random_workload(seed);
    }
}

/// Jobs whose deadline expires while queued never run, yet still get
/// exactly one trace record: outcome `TimedOut`, zero attempts, and a
/// terminal span that closes at the expiry sweep.
#[test]
fn queued_deadline_expiry_is_traced_once_with_no_attempts() {
    let path = temp_trace("timeout", 7);
    let _ = std::fs::remove_file(&path);

    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 32,
        workers_per_shard: 1,
        backends: vec![Backend::CpuEngine],
        shadow_percent: 0,
        batch: BatchPolicy::disabled(),
        trace_out: Some(path.clone()),
        ..RuntimeConfig::default()
    });
    // Two long-ish jobs occupy the single worker...
    for id in 0..2 {
        let mut s = JobSpec::new_2d(id, 1, 256, 128, 8);
        s.backend = Backend::CpuEngine;
        rt.submit(s).expect("admission");
    }
    // ...so these expire in the queue before any worker reaches them.
    for id in 2..7 {
        let mut s = JobSpec::new_2d(id, 1, 96, 32, 1);
        s.backend = Backend::CpuEngine;
        s.deadline_ms = 1;
        rt.submit(s).expect("admission");
    }
    assert!(
        rt.wait_for_results(7, Duration::from_secs(120)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.trace_records_written, 7);

    let stats = validate_trace_file(&path).expect("trace validates");
    assert_eq!(stats.records, 7);

    let records = read_records(&path);
    assert_trace_matches_results(&records, &outcome.results);
    let timed_out: Vec<&TraceRecord> = records.iter().filter(|r| r.outcome == "TimedOut").collect();
    assert_eq!(timed_out.len(), 5, "all five short-deadline jobs expired");
    for rec in timed_out {
        assert!(
            rec.attempts.is_empty(),
            "job {}: expired while queued, never ran",
            rec.id
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A burst that lands as one multi-job batch while both workers are busy
/// is traced exactly once per job, like every other job.
#[test]
fn batched_burst_is_traced_exactly_once() {
    let jobs = 10u64; // 2 blockers + one 8-job batch
    let path = temp_trace("batch", 0);
    let _ = std::fs::remove_file(&path);
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: jobs as usize,
        workers_per_shard: 2,
        backends: vec![Backend::CpuEngine],
        shadow_percent: 0,
        batch: BatchPolicy {
            max_batch: 8,
            small_cells: u64::MAX, // everything batches...
        },
        tenants: TenantPolicy {
            // ...and one DWRR quantum affords the whole burst, so the
            // first worker to free up pops it as one batch.
            default: TenantConfig {
                weight: 4096,
                max_in_flight: 0,
            },
            overrides: Default::default(),
        },
        trace_out: Some(path.clone()),
        ..RuntimeConfig::default()
    });
    for id in 0..2 {
        let mut s = JobSpec::new_2d(id, 1, 1024, 512, 120);
        s.backend = Backend::CpuEngine;
        rt.submit(s).expect("admission");
    }
    // Let both workers pick up the blockers before the burst lands.
    std::thread::sleep(Duration::from_millis(30));
    for id in 2..jobs {
        let mut s = JobSpec::new_2d(id, 1, 1024, 512, 30);
        s.backend = Backend::CpuEngine;
        rt.submit(s).expect("admission");
    }
    assert!(
        rt.wait_for_results(jobs as usize, Duration::from_secs(120)),
        "jobs stuck"
    );
    let outcome = rt.drain();
    assert_eq!(outcome.trace_records_written, jobs);

    let stats = validate_trace_file(&path).expect("trace validates");
    assert_eq!(stats.records, jobs, "lossless under a batched burst");

    let records = read_records(&path);
    assert_trace_matches_results(&records, &outcome.results);
    assert!(
        records.iter().all(|r| r.outcome == "Completed"),
        "burst jobs all complete"
    );
    let _ = std::fs::remove_file(&path);
}

/// `Completed` results always carry at least one attempt in the trace,
/// and retried jobs carry more than one — the per-attempt spans are real
/// measurements, not placeholders.
#[test]
fn completed_records_carry_real_attempt_spans() {
    let path = temp_trace("attempts", 3);
    let _ = std::fs::remove_file(&path);
    let params = SyntheticParams::new(16, 33, true);
    let specs = synthetic_workload(&params);
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 16,
        shadow_percent: 0,
        trace_out: Some(path.clone()),
        ..RuntimeConfig::default()
    });
    for spec in specs {
        rt.submit(spec).expect("admission");
    }
    assert!(rt.wait_for_results(16, Duration::from_secs(120)), "stuck");
    let outcome = rt.drain();
    let records = read_records(&path);
    assert_trace_matches_results(&records, &outcome.results);
    for rec in &records {
        if rec.outcome == "Completed" {
            assert!(!rec.attempts.is_empty(), "job {}: completed => ran", rec.id);
            let measured: f64 = rec.attempts.iter().map(|a| a.exec_ms).sum();
            assert!(
                measured.is_finite() && measured >= 0.0,
                "job {}: measured spans are finite",
                rec.id
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
