//! Every `stencil_serve` command that parses JSON from a file must turn
//! pathologically nested input into a typed error (exit 2), not a stack
//! overflow: a JSONL workload line, a serve report and a trace file.

use std::process::Command;

#[test]
fn deeply_nested_input_exits_2_on_every_json_command() {
    for (name, open) in [("arrays", "["), ("objects", "{\"a\":")] {
        let path =
            std::env::temp_dir().join(format!("deep_json_{name}_{}.jsonl", std::process::id()));
        std::fs::write(&path, open.repeat(100_000) + "\n").unwrap();
        for flag in ["--workload", "--check-report", "--check-trace"] {
            let out = Command::new(env!("CARGO_BIN_EXE_stencil_serve"))
                .args([flag, path.to_str().unwrap()])
                .output()
                .expect("run stencil_serve");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} on {name}: {stderr}");
            assert!(
                stderr.contains("nesting deeper than 128"),
                "{flag}: {stderr}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
