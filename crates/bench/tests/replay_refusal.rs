//! `stencil_serve --workload` refuses a replay file whole: a line that
//! admission would refuse exits 2 naming `file:line` before the runtime
//! starts, so no job runs, nothing reaches stdout and no report is written.

use std::process::Command;

const FIXTURE: &str = include_str!("../../runtime/tests/fixtures/replay_small.jsonl");

/// Replays `lines` with `--workload` and asserts the refusal: exit 2,
/// nothing on stdout and no report. Returns stderr.
fn refused(tag: &str, lines: &[String]) -> String {
    let file =
        |ext| std::env::temp_dir().join(format!("replay_{tag}_{}.{ext}", std::process::id()));
    let (workload, report) = (file("jsonl"), file("json"));
    std::fs::write(&workload, lines.join("\n") + "\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_stencil_serve"))
        .args(["--workload", workload.to_str().unwrap(), "--quick"])
        .args(["--out", report.to_str().unwrap()])
        .output()
        .expect("run stencil_serve");
    std::fs::remove_file(&workload).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    assert!(!report.exists(), "a refused replay writes no report");
    stderr
}

#[test]
fn an_oversize_grid_on_line_20_refuses_the_replay_before_any_job_runs() {
    // The first 19 lines of the replay fixture, then its line 20 with a
    // 2^30 x 2^30 grid: valid JSON that `JobSpec::validate` refuses.
    let mut lines: Vec<String> = FIXTURE.lines().take(20).map(str::to_string).collect();
    let side = 1u64 << 30;
    let huge = lines[19].replacen(
        "\"nx\":71,\"ny\":29",
        &format!("\"nx\":{side},\"ny\":{side}"),
        1,
    );
    assert_ne!(huge, lines[19], "line 20 of the fixture names a 71x29 grid");
    lines[19] = huge;
    let stderr = refused("grid", &lines);
    assert!(
        stderr.contains(":20: grid has 1152921504606846976 cells, more than the 67108864"),
        "{stderr}"
    );
}

#[test]
fn a_line_naming_the_retired_serial_ref_backend_refuses_the_replay() {
    // The frozen oracle only verifies: `SerialRef` is no backend, so the
    // line naming it is a parse error on its line, not an alias.
    let mut lines: Vec<String> = FIXTURE.lines().take(5).map(str::to_string).collect();
    let retired = lines[2].replacen("\"backend\":\"CpuEngine\"", "\"backend\":\"SerialRef\"", 1);
    assert_ne!(retired, lines[2], "line 3 of the fixture names CpuEngine");
    lines[2] = retired;
    let stderr = refused("serial_ref", &lines);
    let at = format!("replay_serial_ref_{}.jsonl:3: ", std::process::id());
    assert!(
        stderr.contains(&at) && stderr.contains("SerialRef"),
        "{stderr}"
    );
}
