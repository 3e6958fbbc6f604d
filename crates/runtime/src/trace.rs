//! Per-job structured trace records and the bounded, lossless JSONL
//! trace writer.
//!
//! Every job that reaches a terminal state emits exactly one
//! [`TraceRecord`]: span timestamps for queue wait, planning, each
//! execution attempt (with its retry backoff), shadow verification, and
//! stream delivery, plus the tenant, backend, plan provenance
//! (`explicit`/`model`/`cached`/`explored`/`warm`), replica count, and
//! program placement size. Records are the per-job complement of the
//! aggregate [`crate::report::ServeReport`] — the same idea StencilFlow
//! and cyclotron-style performance logs use: one line per unit of work,
//! structured enough that an external tool (or the validator below) can
//! re-derive and *check* the aggregate claims.
//!
//! The writer is bounded and lossless: workers block (backpressure) when
//! the buffer is full rather than dropping records, and shutdown is
//! close-then-drain — [`TraceWriter::close`] wakes the writer thread,
//! drains every buffered record to the sink, appends a footer line
//! carrying the final record count, and only then returns. The footer is
//! what makes a trace file self-validating: a truncated or
//! record-dropping file fails [`validate_trace_file`] on a count
//! mismatch.
//!
//! All timestamps are milliseconds since the runtime's start instant
//! (the *epoch*); durations are plain milliseconds. Timing fields are
//! wall-clock and therefore vary run to run — determinism tests project
//! them out (see `tests/replay_determinism.rs`) — while every structural
//! field (ids, outcomes, attempt counts, provenance) replays exactly.

use crate::job::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Version stamped on every trace record and the footer. Bump when the
/// record schema changes shape; [`validate_trace_file`] rejects files
/// written by any other version. Version 2 dropped the `stolen` flag
/// when the runtime stopped stealing.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Buffered records the writer holds before emitters block. Small on
/// purpose: the writer thread drains a record in microseconds, and a
/// bounded buffer keeps a wedged sink from hiding unbounded memory
/// growth behind "lossless".
pub const TRACE_BUFFER_RECORDS: usize = 256;

/// One execution attempt's span within a job's trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptSpan {
    /// When the attempt began, ms since the runtime epoch.
    pub start_ms: f64,
    /// Wall time the attempt executed, ms.
    pub exec_ms: f64,
    /// Retry backoff slept *after* this attempt, ms (0 for the final
    /// attempt and for non-panicking attempts).
    pub backoff_ms: f64,
    /// Whether the attempt ended in a (transient, injected or real)
    /// panic absorbed at the shard boundary.
    pub panicked: bool,
}

/// One job's complete trace: spans, placement, and provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    /// [`TRACE_SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// The job's id.
    pub id: u64,
    /// The job's tenant name.
    pub tenant: String,
    /// Backend shard that served (or abandoned) the job.
    pub backend: String,
    /// Terminal outcome (`Completed`/`TimedOut`/`Cancelled`/`Failed`).
    pub outcome: String,
    /// Plan provenance: `explicit` (no planner involved), `model`
    /// (plan-cache miss, model ranking trusted), `cached` (hit on an
    /// entry built this run), `warm` (hit on a sidecar-seeded entry), or
    /// `explored` (epsilon draw).
    pub provenance: String,
    /// Spatially replicated chain count the job ran with.
    pub replicas: u64,
    /// Placed program nodes (0 for single-kernel jobs).
    pub program_nodes: u64,
    /// When the job arrived at submission, ms since the runtime epoch.
    pub enqueue_ms: f64,
    /// Planning span within admission, ms (0 for explicit jobs).
    pub plan_ms: f64,
    /// Queue-admission to worker-pickup wait, ms.
    pub queue_wait_ms: f64,
    /// When a worker began processing (first attempt start; for jobs
    /// that never ran, the terminalization instant), ms since epoch.
    pub exec_start_ms: f64,
    /// When the terminal result existed, ms since epoch.
    pub done_ms: f64,
    /// Per-attempt execution spans, in order. Empty when the job never
    /// started (cancelled or expired while queued).
    pub attempts: Vec<AttemptSpan>,
    /// Shadow-verification span, ms; `None` when the job was not
    /// sampled.
    pub shadow_ms: Option<f64>,
    /// Streaming reply delivery span, ms; `None` for batch submissions.
    pub stream_ms: Option<f64>,
    /// Useful cell updates committed (0 unless completed).
    pub cells: u64,
}

impl TraceRecord {
    /// The record's total span, admission to terminal state, ms.
    pub fn total_span_ms(&self) -> f64 {
        self.done_ms - self.enqueue_ms
    }

    /// Sum of the per-attempt execution spans, ms.
    pub fn exec_span_ms(&self) -> f64 {
        self.attempts.iter().map(|a| a.exec_ms).sum()
    }
}

/// The [`Outcome`] rendered the way trace records carry it.
pub fn outcome_label(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Completed => "Completed",
        Outcome::TimedOut => "TimedOut",
        Outcome::Cancelled => "Cancelled",
        Outcome::Failed => "Failed",
    }
}

/// Footer line closing a trace file: the writer's final record count,
/// used by [`validate_trace_file`] to prove losslessness.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TraceFooter {
    trace_footer: bool,
    schema_version: u64,
    records: u64,
}

struct WriterState {
    buf: VecDeque<TraceRecord>,
    closed: bool,
}

struct WriterShared {
    state: Mutex<WriterState>,
    /// Emitters wait here when the buffer is full.
    space: Condvar,
    /// The writer thread waits here when the buffer is empty.
    items: Condvar,
    capacity: usize,
}

/// Bounded, lossless, close-then-drain JSONL trace writer.
///
/// Construction ([`TraceWriter::spawn`]) opens the sink eagerly and
/// starts one writer thread; [`TraceWriter::emit`] blocks under
/// backpressure instead of dropping; [`TraceWriter::close`] drains every
/// buffered record, appends the footer, and returns the count written.
/// A writer spawned without a path counts records but writes nothing —
/// the runtime always traces (the serve report's `trace` section needs
/// the counts) even when no `--trace-out` file was requested.
pub struct TraceWriter {
    shared: Arc<WriterShared>,
    thread: Option<JoinHandle<u64>>,
}

impl TraceWriter {
    /// Starts a writer draining to `path` (or a counting sink when
    /// `None`).
    ///
    /// # Errors
    /// Any error creating the output file, surfaced eagerly so a bad
    /// `--trace-out` path fails at startup rather than at drain.
    pub fn spawn(path: Option<PathBuf>) -> std::io::Result<TraceWriter> {
        let mut sink = match path {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                buf: VecDeque::new(),
                closed: false,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            capacity: TRACE_BUFFER_RECORDS,
        });
        let inner = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("trace-writer".into())
            .spawn(move || {
                let mut written = 0u64;
                loop {
                    let rec = {
                        let mut st = inner.state.lock().unwrap();
                        loop {
                            if let Some(rec) = st.buf.pop_front() {
                                inner.space.notify_all();
                                break Some(rec);
                            }
                            if st.closed {
                                break None;
                            }
                            st = inner.items.wait(st).unwrap();
                        }
                    };
                    match rec {
                        Some(rec) => {
                            if let Some(out) = sink.as_mut() {
                                let line =
                                    serde_json::to_string(&rec).expect("trace record serializes");
                                // Sink errors must not wedge the worker
                                // pool; the footer count still reflects
                                // every record the writer consumed, and
                                // the validator catches short files.
                                let _ = writeln!(out, "{line}");
                            }
                            written += 1;
                        }
                        None => break,
                    }
                }
                if let Some(out) = sink.as_mut() {
                    let footer = TraceFooter {
                        trace_footer: true,
                        schema_version: TRACE_SCHEMA_VERSION,
                        records: written,
                    };
                    let line = serde_json::to_string(&footer).expect("trace footer serializes");
                    let _ = writeln!(out, "{line}");
                    let _ = out.flush();
                }
                written
            })
            .expect("spawn trace writer");
        Ok(TraceWriter {
            shared,
            thread: Some(thread),
        })
    }

    /// Queues one record, blocking while the bounded buffer is full.
    /// Records emitted after [`TraceWriter::close`] are dropped (the
    /// runtime closes the writer only after every worker has joined, so
    /// this never loses a job's record in practice).
    pub fn emit(&self, rec: TraceRecord) {
        let mut st = self.shared.state.lock().unwrap();
        while st.buf.len() >= self.shared.capacity && !st.closed {
            st = self.shared.space.wait(st).unwrap();
        }
        if st.closed {
            return;
        }
        st.buf.push_back(rec);
        drop(st);
        self.shared.items.notify_all();
    }

    /// Close-then-drain: stops admissions, drains the buffer, writes the
    /// footer, joins the writer thread, and returns the records written.
    pub fn close(mut self) -> u64 {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.items.notify_all();
        self.shared.space.notify_all();
        self.thread
            .take()
            .expect("close is called once")
            .join()
            .expect("trace writer thread never panics")
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.shared.state.lock().unwrap().closed = true;
            self.shared.items.notify_all();
            self.shared.space.notify_all();
            let _ = t.join();
        }
    }
}

/// Everything [`validate_trace_file`] proves about a healthy trace file,
/// plus the raw span samples `--trace-summary` computes exact
/// percentiles from.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Records validated (excludes the footer).
    pub records: u64,
    /// Records by outcome label, in [`crate::job::Outcome`] declaration
    /// order: completed, timed out, cancelled, failed.
    pub by_outcome: [u64; 4],
    /// Total execution attempts across all records.
    pub attempts: u64,
    /// Records with `warm` provenance.
    pub warm: u64,
    /// Queue-wait span per record, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Summed per-attempt execution span per record, ms.
    pub exec_ms: Vec<f64>,
    /// Total admission-to-terminal span per record, ms.
    pub total_ms: Vec<f64>,
}

/// Slack allowed when comparing sums of measured sub-spans against an
/// enclosing span: each `Instant` read truncates independently to f64
/// milliseconds, so nested spans can exceed the enclosing measurement by
/// rounding noise only.
const SPAN_EPS_MS: f64 = 0.5;

/// Validates one parsed trace record's span arithmetic and field sanity.
fn validate_record(rec: &TraceRecord, lineno: usize) -> Result<(), String> {
    let at = |msg: String| format!("record at line {lineno} (job {}): {msg}", rec.id);
    if rec.schema_version != TRACE_SCHEMA_VERSION {
        return Err(at(format!(
            "unknown trace schema version {} (expected {TRACE_SCHEMA_VERSION})",
            rec.schema_version
        )));
    }
    match rec.outcome.as_str() {
        "Completed" | "TimedOut" | "Cancelled" | "Failed" => {}
        other => return Err(at(format!("unknown outcome `{other}`"))),
    }
    match rec.provenance.as_str() {
        "explicit" | "model" | "cached" | "warm" | "explored" => {}
        other => return Err(at(format!("unknown provenance `{other}`"))),
    }
    let durations = [
        ("plan_ms", rec.plan_ms),
        ("queue_wait_ms", rec.queue_wait_ms),
        ("enqueue_ms", rec.enqueue_ms),
        ("exec_start_ms", rec.exec_start_ms),
        ("done_ms", rec.done_ms),
        ("shadow_ms", rec.shadow_ms.unwrap_or(0.0)),
        ("stream_ms", rec.stream_ms.unwrap_or(0.0)),
    ];
    for (name, v) in durations {
        if !v.is_finite() || v < 0.0 {
            return Err(at(format!("negative or non-finite {name}: {v}")));
        }
    }
    // The headline span ordering: enqueue <= (plan happens within
    // admission) <= exec_start <= done.
    if rec.exec_start_ms < rec.enqueue_ms {
        return Err(at(format!(
            "exec_start_ms {} precedes enqueue_ms {}",
            rec.exec_start_ms, rec.enqueue_ms
        )));
    }
    if rec.done_ms < rec.exec_start_ms {
        return Err(at(format!(
            "done_ms {} precedes exec_start_ms {}",
            rec.done_ms, rec.exec_start_ms
        )));
    }
    // Plan and queue wait are disjoint sub-intervals of admission-to-
    // pickup, so their sum fits inside it (modulo clock-read rounding).
    if rec.plan_ms + rec.queue_wait_ms > rec.exec_start_ms - rec.enqueue_ms + SPAN_EPS_MS {
        return Err(at(format!(
            "plan_ms {} + queue_wait_ms {} exceed admission-to-pickup span {}",
            rec.plan_ms,
            rec.queue_wait_ms,
            rec.exec_start_ms - rec.enqueue_ms
        )));
    }
    let mut prev_start = rec.exec_start_ms - SPAN_EPS_MS;
    for (i, a) in rec.attempts.iter().enumerate() {
        if !a.start_ms.is_finite() || !a.exec_ms.is_finite() || !a.backoff_ms.is_finite() {
            return Err(at(format!("attempt {i} has a non-finite span")));
        }
        if a.exec_ms < 0.0 || a.backoff_ms < 0.0 {
            return Err(at(format!(
                "attempt {i} has a negative duration (exec {} backoff {})",
                a.exec_ms, a.backoff_ms
            )));
        }
        if a.start_ms < prev_start {
            return Err(at(format!("attempt {i} starts before its predecessor")));
        }
        prev_start = a.start_ms;
    }
    // Execution attempts are disjoint intervals inside [exec_start,
    // done], so their sum cannot exceed the enclosing span.
    let exec_total = rec.exec_span_ms();
    if exec_total > rec.done_ms - rec.exec_start_ms + SPAN_EPS_MS {
        return Err(at(format!(
            "summed attempt spans {exec_total} exceed exec window {}",
            rec.done_ms - rec.exec_start_ms
        )));
    }
    if rec.outcome == "Completed" && rec.attempts.is_empty() {
        return Err(at("completed job carries no attempt spans".into()));
    }
    Ok(())
}

/// Validates a whole trace stream: every line parses, every record
/// passes per-record validation, no job id appears twice, and the file
/// ends with a footer whose count matches the records seen (the
/// lossless-writer proof). Returns the accumulated [`TraceStats`].
///
/// # Errors
/// A human-readable description of the first violation.
pub fn validate_trace_reader<R: BufRead>(reader: R) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut seen = std::collections::BTreeSet::new();
    let mut footer: Option<(usize, TraceFooter)> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| format!("line {lineno}: read error: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            return Err(format!("line {lineno}: content after the trace footer"));
        }
        if line.contains("\"trace_footer\"") {
            let f: TraceFooter = serde_json::from_str(&line)
                .map_err(|e| format!("line {lineno}: bad trace footer: {e}"))?;
            if f.schema_version != TRACE_SCHEMA_VERSION {
                return Err(format!(
                    "line {lineno}: unknown trace schema version {} (expected {TRACE_SCHEMA_VERSION})",
                    f.schema_version
                ));
            }
            footer = Some((lineno, f));
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(&line)
            .map_err(|e| format!("line {lineno}: bad trace record: {e}"))?;
        validate_record(&rec, lineno)?;
        if !seen.insert(rec.id) {
            return Err(format!(
                "line {lineno}: duplicate trace record for job {}",
                rec.id
            ));
        }
        stats.records += 1;
        let slot = match rec.outcome.as_str() {
            "Completed" => 0,
            "TimedOut" => 1,
            "Cancelled" => 2,
            _ => 3,
        };
        stats.by_outcome[slot] += 1;
        stats.attempts += rec.attempts.len() as u64;
        if rec.provenance == "warm" {
            stats.warm += 1;
        }
        stats.queue_wait_ms.push(rec.queue_wait_ms);
        stats.exec_ms.push(rec.exec_span_ms());
        stats.total_ms.push(rec.total_span_ms());
    }
    match footer {
        None => Err("trace file has no footer (truncated or writer never closed)".into()),
        Some((lineno, f)) if f.records != stats.records => Err(format!(
            "line {lineno}: footer claims {} records but the file holds {} — record-count mismatch",
            f.records, stats.records
        )),
        Some(_) => Ok(stats),
    }
}

/// [`validate_trace_reader`] over a file on disk.
///
/// # Errors
/// Unreadable file, or any violation [`validate_trace_reader`] reports.
pub fn validate_trace_file(path: &Path) -> Result<TraceStats, String> {
    let f = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    validate_trace_reader(BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> TraceRecord {
        TraceRecord {
            schema_version: TRACE_SCHEMA_VERSION,
            id,
            tenant: "default".into(),
            backend: "functional".into(),
            outcome: "Completed".into(),
            provenance: "cached".into(),
            replicas: 1,
            program_nodes: 0,
            enqueue_ms: 1.0,
            plan_ms: 0.25,
            queue_wait_ms: 0.5,
            exec_start_ms: 2.0,
            done_ms: 6.0,
            attempts: vec![AttemptSpan {
                start_ms: 2.0,
                exec_ms: 3.0,
                backoff_ms: 0.0,
                panicked: false,
            }],
            shadow_ms: Some(0.5),
            stream_ms: None,
            cells: 1024,
        }
    }

    fn render(records: &[TraceRecord]) -> String {
        let mut out = String::new();
        for r in records {
            out.push_str(&serde_json::to_string(r).unwrap());
            out.push('\n');
        }
        let footer = TraceFooter {
            trace_footer: true,
            schema_version: TRACE_SCHEMA_VERSION,
            records: records.len() as u64,
        };
        out.push_str(&serde_json::to_string(&footer).unwrap());
        out.push('\n');
        out
    }

    #[test]
    fn writer_round_trips_records_losslessly() {
        let path = std::env::temp_dir().join(format!("trace_test_{}.jsonl", std::process::id()));
        let w = TraceWriter::spawn(Some(path.clone())).unwrap();
        for id in 0..100 {
            w.emit(record(id));
        }
        let written = w.close();
        assert_eq!(written, 100);
        let stats = validate_trace_file(&path).unwrap();
        assert_eq!(stats.records, 100);
        assert_eq!(stats.by_outcome[0], 100);
        assert_eq!(stats.attempts, 100);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pathless_writer_counts_without_writing() {
        let w = TraceWriter::spawn(None).unwrap();
        for id in 0..7 {
            w.emit(record(id));
        }
        assert_eq!(w.close(), 7);
    }

    #[test]
    fn writer_blocks_rather_than_drops_under_load() {
        // Many producers, far more records than the buffer holds: every
        // record must still land exactly once.
        let path = std::env::temp_dir().join(format!("trace_flood_{}.jsonl", std::process::id()));
        let w = Arc::new(TraceWriter::spawn(Some(path.clone())).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..(TRACE_BUFFER_RECORDS as u64 * 2) {
                        w.emit(record(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let w = Arc::into_inner(w).expect("all producers done");
        let written = w.close();
        assert_eq!(written, 4 * TRACE_BUFFER_RECORDS as u64 * 2);
        let stats = validate_trace_file(&path).unwrap();
        assert_eq!(stats.records, written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_accepts_healthy_and_rejects_corrupt() {
        let recs: Vec<TraceRecord> = (0..5).map(record).collect();
        let good = render(&recs);
        validate_trace_reader(good.as_bytes()).unwrap();

        // Missing span field.
        let broken = good.replacen("\"queue_wait_ms\":0.5,", "", 1);
        let err = validate_trace_reader(broken.as_bytes()).unwrap_err();
        assert!(err.contains("missing field"), "{err}");

        // Negative duration.
        let mut neg = recs.clone();
        neg[2].attempts[0].exec_ms = -1.0;
        let err = validate_trace_reader(render(&neg).as_bytes()).unwrap_err();
        assert!(err.contains("negative"), "{err}");

        // Unknown schema version.
        let mut vers = recs.clone();
        vers[0].schema_version = 99;
        let err = validate_trace_reader(render(&vers).as_bytes()).unwrap_err();
        assert!(err.contains("schema version"), "{err}");

        // Record-count mismatch (drop a record, keep the footer).
        let dropped: String = good
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let err = validate_trace_reader(dropped.as_bytes()).unwrap_err();
        assert!(err.contains("record-count mismatch"), "{err}");

        // Missing footer entirely.
        let unclosed: String = good
            .lines()
            .take(recs.len())
            .map(|l| format!("{l}\n"))
            .collect();
        let err = validate_trace_reader(unclosed.as_bytes()).unwrap_err();
        assert!(err.contains("footer"), "{err}");

        // Duplicate job id.
        let mut dup = recs.clone();
        dup[4].id = dup[3].id;
        let err = validate_trace_reader(render(&dup).as_bytes()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn validator_enforces_span_ordering() {
        // done before exec_start.
        let mut r = record(1);
        r.done_ms = r.exec_start_ms - 1.0;
        let err = validate_trace_reader(render(&[r]).as_bytes()).unwrap_err();
        assert!(err.contains("precedes"), "{err}");

        // exec_start before enqueue.
        let mut r = record(2);
        r.exec_start_ms = r.enqueue_ms - 1.0;
        r.attempts.clear();
        r.done_ms = r.enqueue_ms;
        r.outcome = "Cancelled".into();
        let err = validate_trace_reader(render(&[r]).as_bytes()).unwrap_err();
        assert!(err.contains("precedes"), "{err}");

        // Attempt spans overflowing the exec window.
        let mut r = record(3);
        r.attempts[0].exec_ms = (r.done_ms - r.exec_start_ms) + 10.0;
        let err = validate_trace_reader(render(&[r]).as_bytes()).unwrap_err();
        assert!(err.contains("exceed exec window"), "{err}");

        // Completed with no attempts.
        let mut r = record(4);
        r.attempts.clear();
        let err = validate_trace_reader(render(&[r]).as_bytes()).unwrap_err();
        assert!(err.contains("no attempt spans"), "{err}");
    }
}
