//! The machine tag every result carries: core count, CPU model, cache
//! sizes and the source commit (when the checkout is a git repository).

use std::fs;
use std::path::Path;

/// One line describing the machine and the source the run measured.
pub fn tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" l2={} l3={} commit={}",
        cache_size(2),
        cache_size(3),
        commit().unwrap_or_else(|| "unknown".into())
    )
}

/// Size of cpu0's unified cache at `level`, as sysfs states it (`4096K`).
fn cache_size(level: u32) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() == "Unified"
        })
        .and_then(|dir| fs::read_to_string(format!("{dir}/size")).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
