//! Fuzz target for the JSONL workload boundary: a mutated `JobSpec` line
//! must parse to specs or to a `(line, message)` error — never a panic, a
//! stack overflow or a hang — every spec that parses must validate
//! without panicking, and every spec that validates must report its work
//! without panicking.
//!
//! Inputs are lines of the two committed replay fixtures, plus the first
//! fixture line with a 2³⁰ × 2³⁰ grid, with 1–8 random ASCII byte edits
//! (`parse_jsonl` takes `&str`, so the edits keep the text valid UTF-8).
//! `replay_programs.jsonl` carries the `program`,
//! `kernel` and `tenant` fields; it was written by `stencil_serve
//! --synthetic --jobs 16 --seed 5 --quick --programs --kernels --tenants 2
//! --emit-workload FILE`. A quarter of the cases are also wrapped in up to 200,000
//! leading `[`, deep enough to overflow the stack of a parser without a
//! nesting limit. Cases run on the test thread's default 2 MiB stack.

use proptest::prelude::*;
use stencil_runtime::job::MAX_GRID_CELLS;
use stencil_runtime::workload::parse_jsonl;
use stencil_runtime::PlanError;

const FIXTURE: &str = include_str!("fixtures/replay_small.jsonl");
const PROGRAM_FIXTURE: &str = include_str!("fixtures/replay_programs.jsonl");

/// The first fixture line with its 71×42 grid replaced by `nx` × `ny`.
fn first_line_with_grid(nx: u64, ny: u64) -> String {
    let line = FIXTURE.lines().next().unwrap();
    let resized = line.replacen(
        "\"nx\":71,\"ny\":42",
        &format!("\"nx\":{nx},\"ny\":{ny}"),
        1,
    );
    assert_ne!(resized, line, "the fixture's first line names a 71x42 grid");
    resized
}

/// One byte edit: (kind, position seed, byte seed), applied at
/// `position % (len + 1)`. Kinds 0–2 overwrite, 3–4 insert, 5–6 delete and
/// 7 truncates; truncation always breaks the line, so it is the rarest.
/// Byte seeds below 128 are that ASCII byte; the rest are digits, so an
/// edit inside a number often leaves a parseable spec for `validate()`.
type Edit = (u8, usize, u8);

fn mutate(line: &str, edits: &[Edit]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(kind, pos, seed) in edits {
        let at = pos % (bytes.len() + 1);
        let byte = if seed < 128 { seed } else { b'0' + seed % 10 };
        match kind {
            0..=2 if at < bytes.len() => bytes[at] = byte,
            0..=4 => bytes.insert(at, byte),
            5 | 6 if at < bytes.len() => {
                bytes.remove(at);
            }
            5 | 6 => {}
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of an ASCII line stay UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_jobspec_lines_parse_or_fail_typed(
        pick in any::<usize>(),
        edits in prop::collection::vec((0u8..8, any::<usize>(), any::<u8>()), 1..9),
        nest in (0usize..4, 0usize..=200_000),
    ) {
        let oversized = first_line_with_grid(1 << 30, 1 << 30);
        let lines: Vec<&str> = FIXTURE
            .lines()
            .chain(PROGRAM_FIXTURE.lines())
            .chain([oversized.as_str()])
            .collect();
        let line = lines[pick % lines.len()];
        prop_assert!(line.is_ascii());
        let depth = if nest.0 == 0 { nest.1 } else { 0 };
        let text = "[".repeat(depth) + &mutate(line, &edits);
        match parse_jsonl(&text) {
            Ok(specs) => {
                for spec in specs.iter().filter(|s| s.validate().is_ok()) {
                    let _ = spec.work_cells();
                }
            }
            Err((at, msg)) => {
                let last = text.split('\n').count();
                prop_assert!((1..=last).contains(&at), "line {at} of {last}: {msg}");
            }
        }
    }
}

#[test]
fn the_retired_threaded_backend_is_a_typed_error_on_its_line() {
    // Both retired wire names: `Threaded` (the threaded simulator) and
    // `SerialRef` (the frozen oracle, which now only verifies).
    let line = FIXTURE.lines().next().unwrap();
    let key = "\"backend\":\"";
    let start = line.find(key).unwrap() + key.len();
    let end = start + line[start..].find('"').unwrap();
    for retired in ["Threaded", "SerialRef"] {
        let named = format!("{}{retired}{}", &line[..start], &line[end..]);
        let (at, msg) = parse_jsonl(&named).unwrap_err();
        assert_eq!(at, 1);
        assert!(msg.contains(retired), "{msg}");
    }
}

#[test]
fn an_overflowing_grid_is_a_typed_validate_error() {
    let huge = first_line_with_grid(1 << 32, 1 << 32);
    let spec = parse_jsonl(&huge).unwrap().remove(0);
    assert_eq!(spec.validate().unwrap_err(), PlanError::WorkOverflow);
    // A grid whose cell count fits a u64 but not memory is refused too.
    let spec = parse_jsonl(&first_line_with_grid(1 << 30, 1 << 30))
        .unwrap()
        .remove(0);
    assert_eq!(
        spec.validate().unwrap_err(),
        PlanError::GridTooLarge {
            cells: 1 << 60,
            max: MAX_GRID_CELLS
        }
    );
    // A program whose frames overflow the work sum is refused the same way.
    let line = PROGRAM_FIXTURE
        .lines()
        .find(|l| l.contains("\"frames\":4,"))
        .unwrap();
    let spec = parse_jsonl(&line.replacen("\"frames\":4,", "\"frames\":4611686018427387904,", 1))
        .unwrap()
        .remove(0);
    assert_eq!(spec.validate().unwrap_err(), PlanError::WorkOverflow);
}
