//! End-to-end tests for `stencil_serve --check-report`: the schema gate
//! must accept the two golden reports (exit 0), reject mutations of them
//! (exit 2, naming the broken rule), enforce the `--min-pool-hit-rate`
//! gate, and keep the committed `BENCH_serve.json` and
//! `BENCH_serve_hbm.json` artifacts honest — mirroring `check_matrix.rs`
//! for the simulator matrix.
//!
//! Every rejection test corrupts a golden in memory rather than reading a
//! committed corrupted copy, so a schema bump regenerates only the two
//! goldens (run from the repository root):
//!
//! ```text
//! stencil_serve --synthetic --jobs 30 --seed 11 --quick --auto-plan --programs --kernels \
//!     --device ddr --out crates/bench/tests/fixtures/serve_report_golden.json
//! stencil_serve --synthetic --jobs 30 --seed 11 --quick --auto-plan --programs --kernels \
//!     --device hbm --out crates/bench/tests/fixtures/serve_report_golden_hbm.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use stencil_runtime::ServeReport;

const GOLDEN: &str = "serve_report_golden.json";
const GOLDEN_HBM: &str = "serve_report_golden_hbm.json";

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

fn golden_text(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

fn golden(name: &str) -> ServeReport {
    serde_json::from_str(&golden_text(name)).unwrap()
}

/// Runs `stencil_serve --check-report <file> [extra args]`; returns
/// (exit code, stderr).
fn check_with(path: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stencil_serve"))
        .args(["--check-report", path.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run stencil_serve");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn check(path: &Path) -> (i32, String) {
    check_with(path, &[])
}

/// Writes `text` to a fresh temp file and runs `--check-report` on it.
fn check_text(text: &str) -> (i32, String) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "serve_report_check_{}_{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).unwrap();
    let result = check(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// Checks a (mutated) report; asserts exit 2 with `needle` in the message.
fn assert_rejected(report: &ServeReport, needle: &str) {
    assert_rejected_text(&serde_json::to_string(report).unwrap(), needle);
}

fn assert_rejected_text(text: &str, needle: &str) {
    let (code, stderr) = check_text(text);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

/// The golden's text cut just before its top-level `key`, then closed.
fn strip_section(text: &str, key: &str) -> String {
    let start = text
        .find(&format!(",\n  \"{key}\":"))
        .unwrap_or_else(|| panic!("golden has {key}"));
    format!("{}\n}}\n", &text[..start])
}

#[test]
fn golden_report_passes_with_exit_0() {
    let (code, stderr) = check(&fixture(GOLDEN));
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn hbm_golden_report_passes_with_exit_0() {
    // The HBM golden carries replicated-chain winners; the validator must
    // accept replica counts that are powers of two within the claimed
    // channel budget.
    let (code, stderr) = check(&fixture(GOLDEN_HBM));
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn corrupted_planner_section_exits_2() {
    // hits + misses no longer equals plans_requested.
    let mut bad = golden(GOLDEN);
    bad.planner.cache_hits += 1;
    assert_rejected(&bad, "hits + misses");
}

#[test]
fn stripped_planner_section_exits_2() {
    // Schema v2 made `planner` mandatory: a report without it (schema
    // drift back toward v1) must be rejected.
    assert_rejected_text(&strip_section(&golden_text(GOLDEN), "planner"), "planner");
}

#[test]
fn corrupted_memory_section_exits_2() {
    // The hit rate no longer equals hits / (hits + misses).
    let mut bad = golden(GOLDEN);
    bad.memory.pool_hit_rate = 0.123;
    assert_rejected(&bad, "pool_hit_rate");
}

#[test]
fn corrupted_replica_axis_exits_2() {
    // 3 replicas: a count the tuner never enumerates.
    let mut bad = golden(GOLDEN_HBM);
    bad.planner.shapes[0].replicas = 3;
    assert_rejected(&bad, "replicas 3 invalid");
}

#[test]
fn corrupted_tenant_section_exits_2() {
    // The slices no longer sum to `jobs_quota_rejected`.
    let mut bad = golden(GOLDEN);
    bad.tenants[0].rejected_quota += 1;
    assert_rejected(&bad, "rejected_quota");
}

#[test]
fn missing_steal_counters_exit_2() {
    // Schema v5 made the scheduler's steal counters mandatory: a report
    // without `scheduler.steal_hits` (v4 drift) must fail the parse.
    let text = golden_text(GOLDEN).replacen("\"steal_hits\"", "\"steal_hits_gone\"", 1);
    assert_rejected_text(&text, "steal_hits");
}

#[test]
fn corrupted_dataflow_section_exits_2() {
    // A bounded channel claiming to have held more frames than its deepest
    // configured capacity.
    let mut bad = golden(GOLDEN);
    bad.dataflow.channel_high_water_max = bad.dataflow.channel_depth_max + 1;
    assert_rejected(&bad, "cannot overfill");
}

#[test]
fn inconsistent_dataflow_stage_accounting_exits_2() {
    // Per-stage cells must sum to the section's cells_updated total.
    let mut bad = golden(GOLDEN);
    assert!(
        !bad.dataflow.stages.is_empty(),
        "golden must carry program stages"
    );
    bad.dataflow.stages[0].cells_updated += 1;
    assert_rejected(&bad, "stage cells");
}

#[test]
fn stripped_dataflow_section_exits_2() {
    // Schema v6 made `dataflow` mandatory: a report without it (schema
    // drift back toward v5) must be rejected.
    assert_rejected_text(&strip_section(&golden_text(GOLDEN), "dataflow"), "dataflow");
}

#[test]
fn inconsistent_steal_counters_exit_2() {
    // steals != steal_hits + steal_misses is corrupted accounting.
    let mut bad = golden(GOLDEN);
    bad.scheduler.steals += 1;
    assert_rejected(&bad, "steal_hits");
}

/// Runs `stencil_serve --diff-winners <a> <b>`; returns (exit code, stdout,
/// stderr).
fn diff(a: &Path, b: &Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stencil_serve"))
        .args(["--diff-winners", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run stencil_serve");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn diff_winners_detects_profile_divergence() {
    // DDR and HBM goldens come from the same seeded workload; the memory
    // profile must change at least one shape class's winning plan.
    let ddr = fixture(GOLDEN);
    let hbm = fixture(GOLDEN_HBM);
    let (code, stdout, stderr) = diff(&ddr, &hbm);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("picked different winners"), "{stdout}");

    // A report diffed against itself agrees everywhere: exit 1.
    let (code, _, stderr) = diff(&ddr, &ddr);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("agreed on every common shape class"),
        "{stderr}"
    );

    // An invalid input is a usage error, not a disagreement.
    let (code, _, _) = diff(&ddr, Path::new("/nonexistent/no_such.json"));
    assert_eq!(code, 2);
}

#[test]
fn min_pool_hit_rate_gate() {
    // The golden fixture pools some but not all leases: a 0 threshold
    // passes, a perfect-rate demand fails (the first lease of every shape
    // class is always a miss, so 1.0 is unreachable by construction).
    let golden = fixture(GOLDEN);
    let (code, stderr) = check_with(&golden, &["--min-pool-hit-rate", "0.0"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let (code, stderr) = check_with(&golden, &["--min-pool-hit-rate", "1.0"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("pool hit rate"), "stderr: {stderr}");
}

#[test]
fn unreadable_file_and_garbage_exit_2() {
    assert_eq!(check(Path::new("/nonexistent/no_such_report.json")).0, 2);
    assert_eq!(check_text("this is not json\n").0, 2);
}

#[test]
fn committed_serve_artifact_is_valid() {
    // The repo commits both device profiles' overload runs; each must stay
    // schema-valid and keep the pooling it was committed with.
    for name in ["BENCH_serve.json", "BENCH_serve_hbm.json"] {
        let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        assert!(committed.exists(), "{name} is not committed");
        let (code, stderr) = check_with(&committed, &["--min-pool-hit-rate", "0.9"]);
        assert_eq!(code, 0, "committed {name} invalid: {stderr}");
    }
}
