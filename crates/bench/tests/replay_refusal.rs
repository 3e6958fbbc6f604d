//! `stencil_serve --workload` refuses a replay file whole: a line that
//! admission would refuse exits 2 naming `file:line` before the runtime
//! starts, so no job runs, nothing reaches stdout and no report is written.

use std::process::Command;

#[test]
fn an_oversize_grid_on_line_20_refuses_the_replay_before_any_job_runs() {
    // The first 19 lines of the replay fixture, then its line 20 with a
    // 2^30 x 2^30 grid: valid JSON that `JobSpec::validate` refuses.
    let fixture = include_str!("../../runtime/tests/fixtures/replay_small.jsonl");
    let mut lines: Vec<String> = fixture.lines().take(20).map(str::to_string).collect();
    let side = 1u64 << 30;
    let huge = lines[19].replacen(
        "\"nx\":71,\"ny\":29",
        &format!("\"nx\":{side},\"ny\":{side}"),
        1,
    );
    assert_ne!(huge, lines[19], "line 20 of the fixture names a 71x29 grid");
    lines[19] = huge;

    let dir = std::env::temp_dir();
    let workload = dir.join(format!("replay_refusal_{}.jsonl", std::process::id()));
    let report = dir.join(format!("replay_refusal_{}.json", std::process::id()));
    std::fs::write(&workload, lines.join("\n") + "\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_stencil_serve"))
        .args(["--workload", workload.to_str().unwrap(), "--quick"])
        .args(["--out", report.to_str().unwrap()])
        .output()
        .expect("run stencil_serve");
    std::fs::remove_file(&workload).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(":20: grid has 1152921504606846976 cells, more than the 67108864"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!report.exists(), "a refused replay writes no report");
}
