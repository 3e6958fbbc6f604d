//! Fuzz target for the planner-memory sidecar: whatever the file holds,
//! `parse_planner_memory` and `Planner::warm_start` return `Ok` or a typed
//! `PersistError`, never a panic, and an adopting planner keeps planning
//! and exporting. Each case takes the real sidecar of a device profile (a
//! star and a desc shape, with feedback), edits one field and writes it
//! back through `save_planner_memory`, so the checksum holds and every
//! check behind it is reached, then applies 0–3 ASCII byte edits, which
//! mostly hit the header the checksum does not cover. The two inputs that
//! used to panic `Runtime::start` stay as regression tests.

use proptest::prelude::*;
use stencil_core::{BoundaryCond, KernelClass};
use stencil_runtime::job::KernelSpec;
use stencil_runtime::persist::parse_planner_memory;
use stencil_runtime::{
    save_planner_memory, Backend, DeviceProfile, JobSpec, MetricsRegistry, PersistError, PlanMode,
    Planner, PlannerMemory, Runtime, RuntimeConfig, StatMemory,
};

fn auto_job(dim: usize, rad: usize, n: [usize; 3], box_desc: bool) -> JobSpec {
    let mut s = JobSpec::new_3d(1, rad, n[0], n[1], n[2], 2);
    (s.dim, s.plan) = (dim, PlanMode::Auto);
    s.kernel = box_desc.then_some(KernelSpec {
        taps: KernelClass::Box,
        boundary: BoundaryCond::Periodic,
    });
    s
}

/// The sidecar of a `profile` planner that planned a 3D star shape and a
/// 2D box-desc shape and took one feedback sample on each.
fn real_memory(profile: DeviceProfile) -> PlannerMemory {
    let (planner, metrics) = (Planner::new(profile), MetricsRegistry::new());
    for (dim, n, desc) in [(3, [48, 24, 16], false), (2, [96, 32, 1], true)] {
        let asg = planner.plan(&auto_job(dim, 1, n, desc), &Backend::ALL, &metrics);
        planner.record_throughput(&asg.unwrap(), 3e7, &metrics);
    }
    planner.export_memory()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sidecar_fuzz_{tag}_{}", std::process::id()))
}

/// `memory` as `save_planner_memory` writes it to disk.
fn written(memory: &PlannerMemory, tag: &str) -> String {
    save_planner_memory(&temp_path(tag), memory).unwrap();
    let text = std::fs::read_to_string(temp_path(tag)).unwrap();
    std::fs::remove_file(temp_path(tag)).unwrap();
    text
}

/// Warm-starts a `profile` planner from `text` as `Runtime::start` does,
/// then plans and feeds back once per adopted shape and exports, as a run
/// and its drain do.
fn warm_start(profile: DeviceProfile, text: &str) -> Result<usize, PersistError> {
    let (planner, metrics) = (Planner::new(profile), MetricsRegistry::new());
    let adopted = planner.warm_start(&parse_planner_memory(text)?, &Backend::ALL)?;
    for k in planner.snapshot().into_iter().map(|shape| shape.key) {
        let n = [k.nx_class, k.ny_class, k.nz_class];
        let job = auto_job(k.dim, k.rad, n, k.kernel_class.is_some());
        let asg = planner.plan(&job, &Backend::ALL, &metrics).unwrap();
        planner.record_throughput(&asg, 1e6, &metrics);
    }
    planner.export_memory();
    Ok(adopted)
}

const EDGES: [u64; 8] = [0, 1, 2, 1 << 26, (1 << 26) + 1, 1 << 32, 1 << 63, u64::MAX];
const CLASSES: [&str; 6] = ["", "star", "asymmetric", "hex", "aéé", "ééééé"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_sidecars_warm_start_or_fail_typed(
        knobs in (0usize..2, 0usize..12, 0usize..2, any::<usize>(), any::<u64>()),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let (profile, field, shape, pick, value) = knobs;
        let profile = DeviceProfile::ALL[profile];
        let mut memory = real_memory(profile);
        let v = if pick % 2 == 0 { EDGES[pick / 2 % EDGES.len()] } else { value };
        let s = &mut memory.shapes[shape];
        match field {
            0..=6 => {
                *[&mut s.dim, &mut s.rad, &mut s.nx_class, &mut s.ny_class, &mut s.nz_class,
                  &mut s.fingerprint, &mut s.age][field] = v
            }
            7 => s.kernel_class = CLASSES[pick % CLASSES.len()].to_string(),
            8 => s.stats.push(StatMemory { sum_bits: v, samples: v }),
            9 => s.stats[0] = StatMemory { sum_bits: v, samples: u64::MAX },
            10 => memory.device = ["hbm", "", "aéé"][pick % 3].to_string(),
            _ => {}
        }
        let text = written(&memory, profile.name());
        prop_assert_eq!(parse_planner_memory(&text).as_ref(), Ok(&memory));
        let mut bytes = text.into_bytes();
        for (at, seed) in edits {
            // Odd seeds overwrite, even ones insert; high seeds are digits.
            let byte = if seed < 128 { seed } else { b'0' + seed % 10 };
            match at % (bytes.len() + 1) {
                i if seed % 2 == 1 && i < bytes.len() => bytes[i] = byte,
                i => bytes.insert(i, byte),
            }
        }
        let _ = warm_start(profile, &String::from_utf8(bytes).unwrap());
    }
}

/// `Runtime::start` meeting `text` on disk cold-starts and counts the
/// sidecar as rejected.
fn cold_starts(text: &str, tag: &str) {
    std::fs::write(temp_path(tag), text).unwrap();
    let rt = Runtime::start(RuntimeConfig {
        planner_memory: Some(temp_path(tag)),
        ..RuntimeConfig::default()
    });
    assert_eq!(rt.metrics().counter("planner_warm_rejected").get(), 1);
    assert_eq!(rt.drain().results.len(), 0);
    std::fs::remove_file(temp_path(tag)).unwrap();
}

/// Its label used to slice the class name a character apart.
#[test]
fn a_multibyte_kernel_class_is_shape_key_drift() {
    let mut memory = real_memory(DeviceProfile::Ddr);
    memory.shapes[0].kernel_class = "aéé".into();
    let text = written(&memory, "multibyte");
    let err = warm_start(DeviceProfile::Ddr, &text).unwrap_err();
    assert!(matches!(err, PersistError::ShapeKeyDrift { .. }), "{err}");
    cold_starts(&text, "multibyte");
}

/// The parser used to reserve room for the header's unchecked count.
#[test]
fn a_huge_declared_shape_count_is_truncation() {
    let real = written(&real_memory(DeviceProfile::Ddr), "real");
    assert_eq!(warm_start(DeviceProfile::Ddr, &real), Ok(2));
    let text = real.replacen("\"shapes\":2,", "\"shapes\":1000000000000000000,", 1);
    assert_eq!(
        warm_start(DeviceProfile::Ddr, &text),
        Err(PersistError::Truncated)
    );
    cold_starts(&text, "huge");
}
