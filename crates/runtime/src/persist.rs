//! Versioned, checksummed planner-memory sidecar: the plan cache's
//! measured-rate table, persisted at shutdown and warm-started at boot.
//!
//! The sidecar is deliberately line-oriented JSONL, like every other
//! artifact in this repo: a header line naming the magic string, schema
//! version, device profile, shape count, and an FNV-1a checksum over the
//! payload, followed by one line per shape class carrying the shape key,
//! a fingerprint of the candidate table the stats were measured against,
//! and the per-candidate throughput accumulators. Floats are stored as
//! their IEEE-754 bit patterns (`f64::to_bits`), so a save→load→save
//! round trip is byte-identical — text float formatting never enters the
//! picture.
//!
//! Loading is paranoid by design: a truncated file, a bad checksum, an
//! unknown schema version, malformed JSON, or drift between the sidecar
//! and the planner that tries to adopt it (different device profile,
//! different candidate table, malformed shape key) each surface as the
//! exact [`PersistError`] variant — and the runtime's response to *any*
//! of them is a cold start plus a `planner_warm_rejected` counter
//! increment, never a panic and never a partially-adopted table. Stale
//! learned rates silently steering a planner built from different
//! candidates would be far worse than relearning from scratch.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use stencil_core::util::fnv1a64;

/// Version stamped in the sidecar header. Bump whenever the header or
/// shape-line schema changes; [`load_planner_memory`] rejects any other
/// version with [`PersistError::WrongVersion`].
///
/// v2: shape lines gained `kernel_class` (desc-kernel shape classes get
/// their own candidate tables) and `age` (boots since the shape's rates
/// last saw fresh feedback — the input to warm-start age decay).
pub const PERSIST_SCHEMA_VERSION: u64 = 2;

/// The header magic naming the file format.
pub const PERSIST_MAGIC: &str = "stencil-planner-memory";

/// Why a planner-memory sidecar was rejected. Every variant maps to a
/// cold start; tests assert exact variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(String),
    /// The file ended before the header's declared shape count.
    Truncated,
    /// The payload checksum does not match the header's.
    BadChecksum {
        /// Checksum the header declared.
        expected: String,
        /// Checksum the payload actually hashes to.
        found: String,
    },
    /// The header carries a schema version this build does not speak.
    WrongVersion {
        /// The version found in the header.
        found: u64,
    },
    /// A line failed to parse, or the header is not a sidecar header.
    Malformed(String),
    /// The sidecar was learned on a different device profile.
    DeviceMismatch {
        /// Profile the adopting planner ranks candidates against.
        expected: String,
        /// Profile named in the sidecar header.
        found: String,
    },
    /// A persisted shape key is not one this planner could produce
    /// (wrong dimensionality or non-power-of-two extent classes).
    ShapeKeyDrift {
        /// The offending shape's label.
        label: String,
    },
    /// A persisted shape's candidate-table fingerprint or stat count
    /// does not match the table this planner builds for the same key —
    /// the measured rates describe candidates that no longer exist.
    RateTableDrift {
        /// The offending shape's label.
        label: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "sidecar io error: {e}"),
            PersistError::Truncated => write!(f, "sidecar truncated before declared shape count"),
            PersistError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "sidecar checksum mismatch: header {expected}, payload {found}"
                )
            }
            PersistError::WrongVersion { found } => write!(
                f,
                "sidecar schema version {found} (this build speaks {PERSIST_SCHEMA_VERSION})"
            ),
            PersistError::Malformed(e) => write!(f, "malformed sidecar: {e}"),
            PersistError::DeviceMismatch { expected, found } => {
                write!(
                    f,
                    "sidecar learned on device `{found}`, planner is `{expected}`"
                )
            }
            PersistError::ShapeKeyDrift { label } => {
                write!(f, "sidecar shape `{label}` is not a valid shape class")
            }
            PersistError::RateTableDrift { label } => write!(
                f,
                "sidecar shape `{label}` was measured against a different candidate table"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// One candidate's persisted throughput accumulator. The sum is stored
/// as IEEE-754 bits so round trips are byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatMemory {
    /// `f64::to_bits` of the summed measured cells/s.
    pub sum_bits: u64,
    /// Feedback samples accumulated.
    pub samples: u64,
}

impl StatMemory {
    /// The summed measured rate, back as a float.
    pub fn sum_cells_per_sec(&self) -> f64 {
        f64::from_bits(self.sum_bits)
    }
}

/// One shape class's persisted state: key, candidate-table fingerprint,
/// and per-candidate accumulators.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapeMemory {
    /// Shape dimensionality (2 or 3).
    pub dim: u64,
    /// Stencil radius.
    pub rad: u64,
    /// `nx` class (power of two).
    pub nx_class: u64,
    /// `ny` class (power of two).
    pub ny_class: u64,
    /// `nz` class (power of two; 1 for 2D).
    pub nz_class: u64,
    /// Kernel-class name for desc-kernel shape classes (`"star"`,
    /// `"box"`, `"asymmetric"`), empty for legacy star jobs.
    pub kernel_class: String,
    /// FNV-1a fingerprint of the candidate table the stats index into
    /// (see `Planner::export_memory`).
    pub fingerprint: u64,
    /// Jobs planned against the shape in the run that wrote the sidecar.
    pub planned: u64,
    /// Boots since the shape's rates last saw fresh feedback. Incremented
    /// at every export that recorded no feedback for the shape; the
    /// planner's warm start decays persisted means toward the backend
    /// prior by `0.5^(age / half_life)`.
    pub age: u64,
    /// Per-candidate accumulators, in candidate-table order.
    pub stats: Vec<StatMemory>,
}

impl ShapeMemory {
    /// The shape's stable label (`d2r3x128y64z1`, with a `k<class>`
    /// suffix for desc-kernel shapes), matching
    /// [`crate::planner::ShapeKey::label`].
    pub fn label(&self) -> String {
        let suffix = if self.kernel_class.is_empty() {
            String::new()
        } else {
            format!("k{}", &self.kernel_class[..self.kernel_class.len().min(4)])
        };
        format!(
            "d{}r{}x{}y{}z{}{suffix}",
            self.dim, self.rad, self.nx_class, self.ny_class, self.nz_class
        )
    }
}

/// Everything the planner persists between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerMemory {
    /// Device profile name the rates were measured under.
    pub device: String,
    /// Per-shape state, in shape-key order.
    pub shapes: Vec<ShapeMemory>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    schema_version: u64,
    device: String,
    shapes: u64,
    checksum: String,
}

/// Renders the sidecar to its exact on-disk bytes.
fn render(memory: &PlannerMemory) -> String {
    let mut payload = String::new();
    for shape in &memory.shapes {
        payload.push_str(&serde_json::to_string(shape).expect("shape memory serializes"));
        payload.push('\n');
    }
    let header = Header {
        magic: PERSIST_MAGIC.to_string(),
        schema_version: PERSIST_SCHEMA_VERSION,
        device: memory.device.clone(),
        shapes: memory.shapes.len() as u64,
        checksum: format!("{:016x}", fnv1a64(payload.bytes())),
    };
    let mut out = serde_json::to_string(&header).expect("sidecar header serializes");
    out.push('\n');
    out.push_str(&payload);
    out
}

/// Writes `memory` to `path`, replacing any previous sidecar.
///
/// # Errors
/// [`PersistError::Io`] on any filesystem failure.
pub fn save_planner_memory(path: &Path, memory: &PlannerMemory) -> Result<(), PersistError> {
    let io = |e: std::io::Error| PersistError::Io(format!("{}: {e}", path.display()));
    let mut out = BufWriter::new(File::create(path).map_err(io)?);
    out.write_all(render(memory).as_bytes()).map_err(io)?;
    out.flush().map_err(io)
}

/// Parses sidecar bytes (exposed separately from [`load_planner_memory`]
/// so corruption tests can exercise the format without touching disk).
///
/// # Errors
/// The exact [`PersistError`] variant describing the first problem found.
pub fn parse_planner_memory(text: &str) -> Result<PlannerMemory, PersistError> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or(PersistError::Truncated)?;
    let header: Header = serde_json::from_str(header_line)
        .map_err(|e| PersistError::Malformed(format!("header: {e}")))?;
    if header.magic != PERSIST_MAGIC {
        return Err(PersistError::Malformed(format!(
            "header magic `{}` is not `{PERSIST_MAGIC}`",
            header.magic
        )));
    }
    if header.schema_version != PERSIST_SCHEMA_VERSION {
        return Err(PersistError::WrongVersion {
            found: header.schema_version,
        });
    }
    // Checksum the payload exactly as written: every byte after the
    // header line's newline. Verify *before* parsing shape lines so a
    // flipped bit reports as corruption, not as a parse error.
    let payload = match text.find('\n') {
        Some(i) => &text[i + 1..],
        None => "",
    };
    let found = format!("{:016x}", fnv1a64(payload.bytes()));
    if found != header.checksum {
        // An empty payload with a non-matching checksum means the shape
        // lines were cut off, not corrupted.
        if payload.is_empty() && header.shapes > 0 {
            return Err(PersistError::Truncated);
        }
        return Err(PersistError::BadChecksum {
            expected: header.checksum,
            found,
        });
    }
    let mut shapes = Vec::with_capacity(header.shapes as usize);
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let shape: ShapeMemory = serde_json::from_str(line)
            .map_err(|e| PersistError::Malformed(format!("shape line: {e}")))?;
        shapes.push(shape);
    }
    if (shapes.len() as u64) < header.shapes {
        return Err(PersistError::Truncated);
    }
    if (shapes.len() as u64) > header.shapes {
        return Err(PersistError::Malformed(format!(
            "header declares {} shapes but {} are present",
            header.shapes,
            shapes.len()
        )));
    }
    Ok(PlannerMemory {
        device: header.device,
        shapes,
    })
}

/// Reads and parses the sidecar at `path`.
///
/// # Errors
/// [`PersistError::Io`] when unreadable, otherwise whatever
/// [`parse_planner_memory`] reports.
pub fn load_planner_memory(path: &Path) -> Result<PlannerMemory, PersistError> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))?;
    parse_planner_memory(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlannerMemory {
        PlannerMemory {
            device: "ddr".into(),
            shapes: vec![
                ShapeMemory {
                    dim: 2,
                    rad: 3,
                    nx_class: 128,
                    ny_class: 64,
                    nz_class: 1,
                    kernel_class: String::new(),
                    fingerprint: 0xdead_beef,
                    planned: 40,
                    age: 0,
                    stats: vec![
                        StatMemory {
                            sum_bits: 1.25e8f64.to_bits(),
                            samples: 12,
                        },
                        StatMemory {
                            sum_bits: 0,
                            samples: 0,
                        },
                    ],
                },
                ShapeMemory {
                    dim: 3,
                    rad: 1,
                    nx_class: 64,
                    ny_class: 64,
                    nz_class: 32,
                    kernel_class: "asymmetric".into(),
                    fingerprint: 7,
                    planned: 3,
                    age: 5,
                    stats: vec![StatMemory {
                        sum_bits: 0.1f64.to_bits(),
                        samples: 1,
                    }],
                },
            ],
        }
    }

    #[test]
    fn save_load_save_is_byte_stable() {
        let first = render(&sample());
        let loaded = parse_planner_memory(&first).unwrap();
        assert_eq!(loaded, sample());
        let second = render(&loaded);
        assert_eq!(first, second, "round trip must be byte-identical");
        // Sum recovered exactly, bits and all.
        assert_eq!(loaded.shapes[0].stats[0].sum_cells_per_sec(), 1.25e8);
        assert_eq!(loaded.shapes[1].stats[0].sum_cells_per_sec(), 0.1);
    }

    #[test]
    fn disk_round_trip() {
        let path =
            std::env::temp_dir().join(format!("planner_memory_test_{}.jsonl", std::process::id()));
        save_planner_memory(&path, &sample()).unwrap();
        let loaded = load_planner_memory(&path).unwrap();
        assert_eq!(loaded, sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_sidecar_is_rejected() {
        let text = render(&sample());
        // Cut off after the header: declared shapes never arrive.
        let header_only = text.lines().next().unwrap().to_string() + "\n";
        assert_eq!(
            parse_planner_memory(&header_only),
            Err(PersistError::Truncated)
        );
        // Empty file.
        assert_eq!(parse_planner_memory(""), Err(PersistError::Truncated));
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let text = render(&sample()).replace("\"planned\":40", "\"planned\":41");
        assert!(matches!(
            parse_planner_memory(&text),
            Err(PersistError::BadChecksum { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = render(&sample()).replace("\"schema_version\":2", "\"schema_version\":9");
        assert_eq!(
            parse_planner_memory(&text),
            Err(PersistError::WrongVersion { found: 9 })
        );
    }

    #[test]
    fn malformed_header_and_magic_are_rejected() {
        assert!(matches!(
            parse_planner_memory("not json\n"),
            Err(PersistError::Malformed(_))
        ));
        let text = render(&sample()).replace(PERSIST_MAGIC, "some-other-file");
        assert!(matches!(
            parse_planner_memory(&text),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn io_error_is_typed() {
        let missing = Path::new("/nonexistent/planner_memory.jsonl");
        assert!(matches!(
            load_planner_memory(missing),
            Err(PersistError::Io(_))
        ));
    }
}
