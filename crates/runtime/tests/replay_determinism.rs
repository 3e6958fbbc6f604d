//! Deterministic end-to-end replay harness.
//!
//! Runs the committed fixture workload through the full
//! queue → planner → shard → shadow pipeline twice, in-process, and asserts
//! the two runs produce byte-identical `JobResult` sets (ordering
//! insensitive). This is the serving layer's determinism contract: with
//! deadlines disabled, everything that can vary between two same-seed runs
//! is *timing* — queue interleaving, worker scheduling, which candidate the
//! planner's exploit arm prefers — and none of it may leak into what a job
//! computes or how it terminates.
//!
//! The projection compared covers outcome, attempts, committed cells, the
//! output checksum, the shadow verdict, and whether the planner's answer
//! was cached. Timing fields (`queue_wait_ms`, `run_ms`, `total_ms`) and
//! the *chosen candidate* are excluded by design: the exploit rule follows
//! measured throughput and in-flight load, which are timing-dependent —
//! but the repo-wide bit-exactness contract makes every valid candidate
//! produce the identical output grid, so checksums stay byte-stable
//! regardless of which plan won.

use std::path::PathBuf;
use std::time::Duration;
use stencil_runtime::workload::parse_jsonl;
use stencil_runtime::{JobSpec, PlanMode, Runtime, RuntimeConfig, TraceRecord};

fn fixture_specs() -> Vec<JobSpec> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/replay_small.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("committed fixture exists");
    let specs = parse_jsonl(&text).expect("fixture parses");
    assert_eq!(specs.len(), 40, "fixture is the committed 40-job workload");
    assert!(
        specs.iter().all(|s| s.deadline_ms == 0),
        "replay fixtures must not race wall-clock deadlines"
    );
    assert!(
        specs.iter().filter(|s| s.plan == PlanMode::Auto).count() >= 10,
        "fixture exercises the auto-planning path"
    );
    specs
}

/// One full pipeline run; returns the deterministic projection of every
/// `JobResult` as serialized lines, sorted by job id.
fn run_once(specs: Vec<JobSpec>) -> (Vec<String>, u64, u64, u64) {
    let n = specs.len();
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 2 * n,
        workers_per_shard: 2,
        shadow_percent: 10,
        ..RuntimeConfig::default()
    });
    for spec in specs {
        rt.submit(spec).expect("fixture jobs admit cleanly");
    }
    assert!(
        rt.wait_for_results(n, Duration::from_secs(120)),
        "all fixture jobs reach a terminal state"
    );
    let metrics = std::sync::Arc::clone(rt.metrics());
    let outcome = rt.drain();
    assert_eq!(outcome.wedged_workers, 0);
    assert_eq!(outcome.results.len(), n);

    let mut lines: Vec<(u64, String)> = outcome
        .results
        .into_iter()
        .map(|r| {
            let projected = format!(
                "{{\"id\":{},\"outcome\":\"{:?}\",\"attempts\":{},\"cells\":{},\
                 \"checksum\":{:?},\"shadow_match\":{:?},\"plan\":{:?}}}",
                r.id,
                r.outcome,
                r.attempts,
                r.cells_updated,
                r.checksum,
                r.shadow_match,
                r.plan.as_ref().map(|p| p.cached),
            );
            (r.id, projected)
        })
        .collect();
    lines.sort();
    (
        lines.into_iter().map(|(_, l)| l).collect(),
        metrics.counter("plans_requested").get(),
        metrics.counter("plan_cache_hits").get(),
        metrics.counter("plan_cache_misses").get(),
    )
}

#[test]
fn two_same_seed_runs_are_byte_identical() {
    let specs = fixture_specs();
    let auto_jobs = specs.iter().filter(|s| s.plan == PlanMode::Auto).count() as u64;

    let (first, req1, hits1, misses1) = run_once(specs.clone());
    let (second, req2, hits2, misses2) = run_once(specs);

    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "projected JobResult lines must be byte-identical");
    }

    // Planner accounting is part of the determinism contract: submission is
    // sequential, so the hit/miss sequence replays exactly.
    assert_eq!(req1, auto_jobs, "one plan request per auto job");
    assert_eq!((req1, hits1, misses1), (req2, hits2, misses2));
    assert_eq!(hits1 + misses1, req1);
    assert!(hits1 > 0, "the fixture revisits shape classes");
}

/// Runs the fixture with a trace file attached and returns the
/// *deterministic projection* of every trace record, sorted by id: the
/// placement decision (which worker, which replica count, whether a
/// sibling stole the job) and every wall-clock span are timing and are
/// projected out; what remains — identity, outcome, plan provenance,
/// attempt count and per-attempt panic flags, program shape, committed
/// cells, and whether shadow verification sampled the job — must replay
/// byte-for-byte.
fn run_traced(specs: Vec<JobSpec>, tag: &str) -> Vec<String> {
    let path = std::env::temp_dir().join(format!(
        "stencil_replay_trace_{}_{}.jsonl",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let n = specs.len();
    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 2 * n,
        workers_per_shard: 2,
        shadow_percent: 10,
        trace_out: Some(path.clone()),
        ..RuntimeConfig::default()
    });
    for spec in specs {
        rt.submit(spec).expect("fixture jobs admit cleanly");
    }
    assert!(rt.wait_for_results(n, Duration::from_secs(120)));
    let outcome = rt.drain();
    assert_eq!(outcome.trace_records_written, n as u64, "lossless trace");

    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    let mut lines: Vec<(u64, String)> = text
        .lines()
        .filter(|line| !line.contains("\"trace_footer\""))
        .map(|line| {
            let r: TraceRecord = serde_json::from_str(line).expect("record parses");
            let panics: Vec<bool> = r.attempts.iter().map(|a| a.panicked).collect();
            let projected = format!(
                "{{\"id\":{},\"tenant\":{:?},\"outcome\":{:?},\"provenance\":{:?},\
                 \"attempts\":{},\"panics\":{:?},\"program_nodes\":{},\"cells\":{},\
                 \"shadowed\":{}}}",
                r.id,
                r.tenant,
                r.outcome,
                r.provenance,
                r.attempts.len(),
                panics,
                r.program_nodes,
                r.cells,
                r.shadow_ms.is_some(),
            );
            (r.id, projected)
        })
        .collect();
    lines.sort();
    lines.into_iter().map(|(_, l)| l).collect()
}

/// Two same-seed runs leave byte-identical traces once wall-clock and
/// placement fields are projected out — the per-job ledger inherits the
/// serving layer's determinism contract.
#[test]
fn same_seed_runs_leave_byte_identical_trace_projections() {
    let specs = fixture_specs();
    let first = run_traced(specs.clone(), "a");
    let second = run_traced(specs, "b");
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "projected trace lines must be byte-identical");
    }
}

/// A warm-started run over the committed fixture computes exactly what
/// the cold run computed: same outcomes, attempts, cells, checksums, and
/// shadow verdicts. Only plan *provenance* may differ (the warm run's
/// first hit per seeded shape reads `warm` where the cold run missed) —
/// the sidecar seeds measured rates, never different answers.
#[test]
fn warm_start_replays_fixture_outcomes_identically_to_cold() {
    let sidecar: PathBuf =
        std::env::temp_dir().join(format!("stencil_replay_warm_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&sidecar);
    let specs = fixture_specs();

    let project = |rt: Runtime, n: usize| -> (Vec<String>, u64, u64) {
        assert!(rt.wait_for_results(n, Duration::from_secs(120)));
        let metrics = std::sync::Arc::clone(rt.metrics());
        let outcome = rt.drain();
        assert_eq!(outcome.results.len(), n);
        let mut lines: Vec<(u64, String)> = outcome
            .results
            .into_iter()
            .map(|r| {
                let projected = format!(
                    "{{\"id\":{},\"outcome\":\"{:?}\",\"attempts\":{},\"cells\":{},\
                     \"checksum\":{:?},\"shadow_match\":{:?}}}",
                    r.id, r.outcome, r.attempts, r.cells_updated, r.checksum, r.shadow_match,
                );
                (r.id, projected)
            })
            .collect();
        lines.sort();
        (
            lines.into_iter().map(|(_, l)| l).collect(),
            metrics.counter("planner_warm_shapes").get(),
            metrics.counter("plan_cache_warm_hits").get(),
        )
    };
    let start = |sidecar: &PathBuf| {
        Runtime::start(RuntimeConfig {
            queue_capacity: 2 * specs.len(),
            workers_per_shard: 2,
            shadow_percent: 10,
            planner_memory: Some(sidecar.clone()),
            ..RuntimeConfig::default()
        })
    };

    let cold_rt = start(&sidecar);
    for spec in specs.clone() {
        cold_rt.submit(spec).unwrap();
    }
    let (cold, cold_warm_shapes, _) = project(cold_rt, specs.len());
    assert_eq!(cold_warm_shapes, 0, "first run boots cold");

    let warm_rt = start(&sidecar);
    for spec in specs.clone() {
        warm_rt.submit(spec).unwrap();
    }
    let (warm, warm_shapes, warm_hits) = project(warm_rt, specs.len());
    let _ = std::fs::remove_file(&sidecar);

    assert!(warm_shapes > 0, "second run adopts the sidecar");
    assert!(warm_hits > 0, "seeded entries serve cache hits");
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c, w, "warm start must not change any job's answer");
    }
}

#[test]
fn fixture_results_are_complete_and_verified() {
    let specs = fixture_specs();
    let forced_shadow = specs.iter().filter(|s| s.shadow).count();
    let retried: Vec<u64> = specs
        .iter()
        .filter(|s| s.fail_times > 0)
        .map(|s| s.id)
        .collect();
    assert!(!retried.is_empty(), "fixture injects transient failures");

    let rt = Runtime::start(RuntimeConfig {
        queue_capacity: 2 * specs.len(),
        shadow_percent: 0, // only the fixture's forced-shadow jobs verify
        ..RuntimeConfig::default()
    });
    let n = specs.len();
    for spec in specs {
        rt.submit(spec).unwrap();
    }
    assert!(rt.wait_for_results(n, Duration::from_secs(120)));
    let outcome = rt.drain();

    let shadowed = outcome
        .results
        .iter()
        .filter(|r| r.shadow_match.is_some())
        .count();
    assert_eq!(shadowed, forced_shadow, "exactly the forced jobs verified");
    assert!(
        outcome
            .results
            .iter()
            .all(|r| r.shadow_match != Some(false)),
        "no shadow mismatches on the frozen oracle"
    );
    for r in &outcome.results {
        assert_eq!(format!("{:?}", r.outcome), "Completed", "job {}", r.id);
        if retried.contains(&r.id) {
            assert!(r.attempts > 1, "job {} retried its injected faults", r.id);
        } else {
            assert_eq!(r.attempts, 1, "job {} succeeded first try", r.id);
        }
    }
}
