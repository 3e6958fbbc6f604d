//! Property tests for the multi-device dataflow subsystem.
//!
//! Two contracts are enforced over *random* program DAGs (2–5 nodes,
//! radii 1–4, 2D and 3D frames, channel depths down to 1):
//!
//! 1. **Bit-exactness** — a program job's frames, computed by the
//!    worker's frame loop at each node's placed configuration, are
//!    identical to the topological serial_ref interpreter's. Program jobs
//!    are always shadow-verified against the interpreter, so a completed
//!    job with `shadow_match == Some(true)` *is* the proof, end to end
//!    through admission, placement, and the worker.
//! 2. **Replay stability** — two runs of the cluster schedule model with
//!    an identical spec (including seed) produce byte-identical event
//!    logs, and the schedule obeys its structural identities (high-water
//!    within capacity, pipelined makespan never above the one-device
//!    serial makespan, one-device devices never idle).

use std::time::Duration;

use fpga_sim::cluster::{self, ClusterNode, ClusterSpec};
use proptest::prelude::*;
use stencil_runtime::{
    Backend, JobSpec, Outcome, ProgramEdge, ProgramNode, Runtime, RuntimeConfig, StencilProgram,
};

/// xorshift64* expansion of one proptest-drawn seed into a draw stream —
/// the vendored shim only offers scalar range strategies, so structured
/// values (DAGs, placements) are derived deterministically from a seed.
struct Draws(u64);

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Builds a random valid program DAG: 2–5 nodes, every non-source node
/// consuming one or two distinct earlier nodes (edges only point from a
/// lower to a higher index, so acyclicity holds by construction), radii
/// spanning the full 1–4 range, and channel depths including the
/// tightest-backpressure depth of 1.
fn random_program(seed: u64) -> StencilProgram {
    let mut d = Draws::new(seed);
    let n = d.range(2, 5);
    let frames = d.range(1, 3);
    let nodes = (0..n)
        .map(|i| ProgramNode {
            name: format!("n{i}"),
            rad: d.range(1, 4),
            iters: d.range(1, 2),
        })
        .collect::<Vec<_>>();
    let mut edges = Vec::new();
    for i in 1..n {
        let first = d.range(0, i - 1);
        edges.push(ProgramEdge {
            from: format!("n{first}"),
            to: format!("n{i}"),
            depth: d.range(1, 2),
        });
        if i >= 2 && d.next() % 2 == 0 {
            let mut second = d.range(0, i - 1);
            if second == first {
                second = (second + 1) % i;
            }
            edges.push(ProgramEdge {
                from: format!("n{second}"),
                to: format!("n{i}"),
                depth: d.range(1, 2),
            });
        }
    }
    let program = StencilProgram {
        frames,
        nodes,
        edges,
    };
    program.validate().expect("generated DAG must validate");
    program
}

/// Submits one random program job through the full runtime and asserts
/// the always-on shadow verification (program output vs the serial_ref
/// interpreter) reports a bit-exact match.
fn assert_cluster_matches_interpreter(seed: u64, dim3: bool) {
    let program = random_program(seed);
    let mut d = Draws::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut spec = if dim3 {
        // Extents >= 9 cover the largest halo (2·4 + 1) the DAG can draw.
        JobSpec::new_3d(1, 1, d.range(9, 14), d.range(9, 14), d.range(9, 14), 1)
    } else {
        JobSpec::new_2d(1, 1, d.range(24, 48), d.range(16, 32), 1)
    };
    spec.backend = Backend::Functional;
    spec.seed = seed;
    spec.program = Some(program);
    spec.validate().expect("program job must admit");

    let rt = Runtime::start(RuntimeConfig {
        workers_per_shard: 1,
        backends: vec![Backend::Functional],
        shadow_percent: 0, // programs shadow regardless; prove the override
        ..RuntimeConfig::default()
    });
    rt.submit(spec).expect("admission");
    assert!(
        rt.wait_for_results(1, Duration::from_secs(120)),
        "program job stuck (seed {seed})"
    );
    let outcome = rt.drain();
    let r = &outcome.results[0];
    assert_eq!(r.outcome, Outcome::Completed, "seed {seed}");
    assert_eq!(
        r.shadow_match,
        Some(true),
        "program output diverged from the serial_ref interpreter (seed {seed})"
    );
}

/// Builds a random placed cluster spec directly (bypassing the planner):
/// 2–6 nodes, devices dense from 0, depths including 1, uneven exec
/// ticks so stages genuinely contend.
fn random_cluster(seed: u64) -> ClusterSpec {
    let mut d = Draws::new(seed);
    let n = d.range(2, 6);
    let devices = d.range(1, n);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mut preds = Vec::new();
        if i > 0 {
            preds.push(d.range(0, i - 1));
            if i >= 2 && d.next() % 2 == 0 {
                let mut second = d.range(0, i - 1);
                if second == preds[0] {
                    second = (second + 1) % i;
                }
                preds.push(second);
            }
        }
        let depths = preds.iter().map(|_| d.range(1, 2)).collect();
        nodes.push(ClusterNode {
            device: i % devices,
            preds,
            depths,
            exec_ticks: d.range(1, 7) as u64,
        });
    }
    ClusterSpec {
        nodes,
        frames: d.range(1, 4),
        seed: d.next(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 2D programs: the worker's execution is bit-exact against the
    /// topological serial_ref interpreter for random DAGs.
    #[test]
    fn cluster_matches_serial_interpreter_2d(seed in 0u64..u64::MAX / 2) {
        assert_cluster_matches_interpreter(seed, false);
    }

    /// 3D programs: same bit-exactness contract with volumetric frames.
    #[test]
    fn cluster_matches_serial_interpreter_3d(seed in 0u64..u64::MAX / 2) {
        assert_cluster_matches_interpreter(seed, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two same-seed scheduler runs produce identical event orders (and
    /// identical reports wholesale), and every run satisfies the
    /// structural schedule identities the serve-report validator later
    /// re-checks in aggregate.
    #[test]
    fn same_seed_runs_replay_identically(seed in 0u64..u64::MAX / 2) {
        let spec = random_cluster(seed);
        let a = cluster::run(&spec);
        let b = cluster::run(&spec);
        assert_eq!(a.events, b.events, "event order diverged (seed {seed})");
        assert_eq!(a, b, "reports diverged (seed {seed})");

        for ch in &a.channels {
            assert!(
                ch.high_water <= ch.capacity,
                "channel {}->{} overfilled (seed {seed})",
                ch.from,
                ch.to
            );
        }
        for (i, &fired) in a.fired.iter().enumerate() {
            assert_eq!(fired, spec.frames, "node {i} dropped frames (seed {seed})");
        }

        // One-device serialization: same nodes, all on device 0. Its
        // makespan is the sum of all busy ticks (a lone device never
        // idles) and the pipelined makespan can never exceed it.
        let mut serial = spec.clone();
        for node in &mut serial.nodes {
            node.device = 0;
        }
        let s = cluster::run(&serial);
        let busy: u64 = s.busy_ticks.iter().sum();
        assert_eq!(s.makespan_ticks, busy, "a lone device must never idle (seed {seed})");
        assert!(
            a.makespan_ticks <= s.makespan_ticks,
            "pipelined makespan {} above serial {} (seed {seed})",
            a.makespan_ticks,
            s.makespan_ticks
        );
        assert_eq!(a.busy_ticks, s.busy_ticks, "busy ticks are schedule-independent (seed {seed})");
    }
}
