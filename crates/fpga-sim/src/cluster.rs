//! Multi-device cluster schedule model — a deterministic discrete-event
//! model of stencil *programs* (DAGs of operators) placed across N
//! simulated devices.
//!
//! The single-device simulators in this crate execute one kernel on one
//! accelerator. StencilFlow-style workloads are instead small dataflow
//! graphs: each operator is placed on its own spatial device, and frames
//! flow between devices over **bounded channels** (back-pressure included).
//! This module models that cluster's schedule with a discrete-event
//! scheduler:
//!
//! * a min-heap of wake-ups keyed by `(time, seq)` — `seq` is a monotonic
//!   tie-breaker, so event order is a total order and two runs with the
//!   same seed replay the identical event log;
//! * each device is busy for `exec_ticks` virtual ticks per operator
//!   firing (the caller derives ticks from the perf model's stage-rate
//!   estimate), and serializes the operators placed on it;
//! * an operator fires only when every input channel holds a frame *and*
//!   every output channel has space — a full downstream channel stalls the
//!   producer exactly like FIFO back-pressure in the event-driven pipeline
//!   model ([`crate::event`]).
//!
//! The model carries no payloads: channels count frames instead of holding
//! them, because the schedule never depends on the data. The serving
//! runtime computes a program's frames separately and runs this model once
//! per completed program for the placed makespan and channel high-waters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stencil_core::util::splitmix64;

/// One operator node of a placed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterNode {
    /// Device the node is placed on (dense ids from 0).
    pub device: usize,
    /// Predecessor node indices, one bounded channel per entry.
    pub preds: Vec<usize>,
    /// Capacity (in frames) of each predecessor channel; same length as
    /// `preds`, every entry >= 1.
    pub depths: Vec<usize>,
    /// Virtual ticks one firing occupies the device for.
    pub exec_ticks: u64,
}

/// A placed program plus run parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Nodes in topological order (every `preds` entry indexes an earlier
    /// node).
    pub nodes: Vec<ClusterNode>,
    /// Frames each source generates and each node processes.
    pub frames: usize,
    /// Seed for the dispatch scan permutation. Two runs with equal spec
    /// (including seed) produce byte-identical event logs.
    pub seed: u64,
}

/// Occupancy accounting for one bounded channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
    /// Configured capacity in frames.
    pub capacity: usize,
    /// Maximum frames ever resident — `high_water <= capacity` is a
    /// validator-enforced identity all the way up to the serve report.
    pub high_water: usize,
}

/// What one cluster run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Virtual time the last firing completed.
    pub makespan_ticks: u64,
    /// Ticks each node occupied its device, in node order.
    pub busy_ticks: Vec<u64>,
    /// Frames each node completed, in node order.
    pub fired: Vec<usize>,
    /// Number of distinct devices referenced by the placement.
    pub devices: usize,
    /// Per-channel capacity/high-water, in (node, pred-slot) order.
    pub channels: Vec<ChannelStats>,
    /// Dispatch log: `(time, seq, node)` per firing, in event order. Two
    /// same-seed runs produce identical logs (the replay-stability
    /// contract; proptest-enforced).
    pub events: Vec<(u64, u64, usize)>,
}

struct Channel {
    from: usize,
    capacity: usize,
    high_water: usize,
    /// Frames delivered and not yet consumed.
    queued: usize,
}

/// Runs a placed program's schedule to completion and returns the
/// schedule/occupancy report.
///
/// # Panics
/// Panics when the spec is malformed: `preds`/`depths` length mismatch, a
/// zero channel depth, a predecessor index that is not an earlier node, or
/// zero frames. The serving layer validates programs before placement;
/// this model asserts rather than re-validating.
pub fn run(spec: &ClusterSpec) -> ClusterReport {
    assert!(spec.frames > 0, "cluster run needs at least one frame");
    let n = spec.nodes.len();
    assert!(n > 0, "cluster run needs at least one node");

    // Per-node input channels, keyed (node, pred slot).
    let mut channels: Vec<Vec<Channel>> = Vec::with_capacity(n);
    // Consumers of each node: (consumer, slot) pairs, in consumer order.
    let mut consumers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut devices = 0usize;
    for (i, node) in spec.nodes.iter().enumerate() {
        assert_eq!(node.preds.len(), node.depths.len(), "preds/depths mismatch");
        devices = devices.max(node.device + 1);
        let mut ins = Vec::with_capacity(node.preds.len());
        for (slot, (&p, &d)) in node.preds.iter().zip(&node.depths).enumerate() {
            assert!(p < i, "preds must index earlier nodes (topological order)");
            assert!(d >= 1, "zero-depth channel");
            consumers[p].push((i, slot));
            ins.push(Channel {
                from: p,
                capacity: d,
                high_water: 0,
                queued: 0,
            });
        }
        channels.push(ins);
    }

    // Deterministic, seed-permuted dispatch scan order over nodes. The
    // permutation is fixed for the whole run: same seed, same scan, same
    // event log.
    let mut scan: Vec<usize> = (0..n).collect();
    let mut s = spec.seed | 1;
    for i in (1..n).rev() {
        s = splitmix64(s);
        scan.swap(i, (s % (i as u64 + 1)) as usize);
    }

    let mut device_free: Vec<u64> = vec![0; devices];
    let mut fired: Vec<usize> = vec![0; n];
    let mut busy: Vec<u64> = vec![0; n];
    // In-flight completion time per node.
    let mut pending: Vec<Option<u64>> = vec![None; n];

    // Min-heap of wake-ups keyed (time, seq) — Reverse for min ordering.
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    heap.push(Reverse((0, seq)));
    let mut events: Vec<(u64, u64, usize)> = Vec::new();
    let mut makespan = 0u64;

    while let Some(Reverse((now, _))) = heap.pop() {
        // Deliver every completion due by `now`: one frame lands on each
        // consumer channel (bounded capacity was reserved at dispatch).
        for i in 0..n {
            let Some(t) = pending[i].filter(|&t| t <= now) else {
                continue;
            };
            pending[i] = None;
            makespan = makespan.max(t);
            for &(c, slot) in &consumers[i] {
                let ch = &mut channels[c][slot];
                ch.queued += 1;
                ch.high_water = ch.high_water.max(ch.queued);
            }
        }

        // Dispatch every node that is ready at `now`, scanning in the
        // seed-fixed permutation until a full pass fires nothing.
        loop {
            let mut progressed = false;
            for &i in &scan {
                if !ready(i, &channels, &consumers, &pending, spec, &fired)
                    || device_free[spec.nodes[i].device] > now
                    || pending[i].is_some()
                {
                    continue;
                }
                for ch in &mut channels[i] {
                    ch.queued -= 1;
                }
                let ticks = spec.nodes[i].exec_ticks.max(1);
                let done = now + ticks;
                device_free[spec.nodes[i].device] = done;
                busy[i] += ticks;
                fired[i] += 1;
                pending[i] = Some(done);
                events.push((now, seq, i));
                seq += 1;
                heap.push(Reverse((done, seq)));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    let mut stats = Vec::new();
    for (i, ins) in channels.iter().enumerate() {
        for ch in ins {
            stats.push(ChannelStats {
                from: ch.from,
                to: i,
                capacity: ch.capacity,
                high_water: ch.high_water,
            });
        }
    }
    ClusterReport {
        makespan_ticks: makespan,
        busy_ticks: busy,
        fired,
        devices,
        channels: stats,
        events,
    }
}

/// A node is ready when it still has frames to process, every input
/// channel holds a frame, and every output channel has space for the
/// result (counting capacity reserved by an in-flight producer firing is
/// unnecessary: a node's device is busy until its previous result lands).
fn ready(
    i: usize,
    channels: &[Vec<Channel>],
    consumers: &[Vec<(usize, usize)>],
    pending: &[Option<u64>],
    spec: &ClusterSpec,
    fired: &[usize],
) -> bool {
    if fired[i] >= spec.frames {
        return false;
    }
    if channels[i].iter().any(|ch| ch.queued == 0) {
        return false;
    }
    consumers[i].iter().all(|&(c, slot)| {
        let ch = &channels[c][slot];
        // An undelivered in-flight frame from this producer still owns one
        // slot of every consumer channel.
        let reserved = usize::from(pending[i].is_some());
        ch.queued + reserved < ch.capacity
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(devices: &[usize], depth: usize, frames: usize) -> ClusterSpec {
        let nodes = devices
            .iter()
            .enumerate()
            .map(|(i, &d)| ClusterNode {
                device: d,
                preds: if i == 0 { vec![] } else { vec![i - 1] },
                depths: if i == 0 { vec![] } else { vec![depth] },
                exec_ticks: 10,
            })
            .collect();
        ClusterSpec {
            nodes,
            frames,
            seed: 7,
        }
    }

    #[test]
    fn pipelined_chain_overlaps_sequential_does_not() {
        let pipe = run(&chain(&[0, 1, 2], 2, 4));
        let seq = run(&chain(&[0, 0, 0], 2, 4));
        // 3 stages x 10 ticks x 4 frames fully serialized = 120; the
        // pipeline's makespan is fill (2 stages) + 4 frames at the
        // bottleneck = 60.
        assert_eq!(seq.makespan_ticks, 120);
        assert_eq!(pipe.makespan_ticks, 60);
        assert!(pipe.makespan_ticks <= seq.makespan_ticks);
        assert_eq!(pipe.fired, vec![4, 4, 4]);
        assert_eq!(pipe.events.len(), 12);
    }

    #[test]
    fn depth_one_channels_still_complete_all_frames() {
        let rep = run(&chain(&[0, 1, 2], 1, 5));
        assert_eq!(rep.fired, vec![5, 5, 5]);
        assert!(rep.channels.iter().all(|c| c.high_water <= c.capacity));
        assert!(rep.channels.iter().all(|c| c.high_water == 1));
    }

    #[test]
    fn same_seed_replays_identical_event_log() {
        let spec = chain(&[0, 1, 2], 2, 3);
        assert_eq!(run(&spec).events, run(&spec).events);
    }

    #[test]
    fn fan_out_duplicates_and_fan_in_joins() {
        // 0 -> {1, 2} -> 3 (diamond): node 0's frames land on both
        // branches, and node 3 fires once per frame pair.
        let node = |device: usize, preds: Vec<usize>, depths: Vec<usize>| ClusterNode {
            device,
            preds,
            depths,
            exec_ticks: 1,
        };
        let spec = ClusterSpec {
            nodes: vec![
                node(0, vec![], vec![]),
                node(1, vec![0], vec![2]),
                node(2, vec![0], vec![2]),
                node(3, vec![1, 2], vec![1, 1]),
            ],
            frames: 2,
            seed: 1,
        };
        let rep = run(&spec);
        assert_eq!(rep.fired, vec![2, 2, 2, 2]);
        assert_eq!(rep.devices, 4);
        assert_eq!(rep.channels.len(), 4);
        assert!(rep.channels.iter().all(|c| c.high_water <= c.capacity));
    }

    #[test]
    fn busy_ticks_sum_equals_sequential_makespan() {
        let seq = run(&chain(&[0, 0, 0, 0], 3, 3));
        assert_eq!(seq.busy_ticks.iter().sum::<u64>(), seq.makespan_ticks);
    }
}
