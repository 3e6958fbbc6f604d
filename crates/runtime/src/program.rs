//! Stencil *programs* — DAGs of dependent stencil operators — and their
//! reference interpreter.
//!
//! A [`StencilProgram`] is the graph IR carried inside a
//! [`crate::job::JobSpec`]: named operator nodes (each a star stencil of
//! some radius run for some number of time steps) connected by edges that
//! carry whole grid frames over bounded channels. The planner places each
//! node on its own simulated device; the worker computes the frames and
//! prices the placement with the multi-device cluster schedule model
//! ([`fpga_sim::cluster`]), which streams frames through the pipeline.
//!
//! Semantics (shared by the worker's frame loop and the serial
//! interpreter, which must agree bit-exactly):
//!
//! * every node's stencil coefficients derive from the job seed and the
//!   node *name* ([`StencilProgram::node_seed`]);
//! * a **source** node (no incoming edge) generates frame `f` from a
//!   deterministic fill keyed by its node seed and `f`;
//! * a node with several incoming edges consumes one frame per edge and
//!   sums them element-wise in edge order before applying its stencil;
//! * the program's output frame is the element-wise sum of every **sink**
//!   node's output, in node order — that combined frame is what shadow
//!   verification compares and what the job checksum folds over.
//!
//! Validation is a typed [`ProgramError`] enum mirroring
//! [`crate::planner::PlanError`]: every reason a graph cannot be placed
//! (cycle, unknown node reference, zero-depth channel, shape/halo
//! mismatch, …) is an exact variant with its own test.

use serde::{Deserialize, Serialize};
use stencil_core::exec;
use stencil_core::util::{fnv1a64, splitmix64};
use stencil_core::{Grid2D, Grid3D, Stencil2D, Stencil3D};

/// Upper bound on program size: the serve report aggregates per-stage
/// accounting into fixed topological slots, and real StencilFlow-style
/// pipelines are short.
pub const MAX_NODES: usize = 8;

/// One operator of a stencil program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramNode {
    /// Unique name; also salts the node's stencil coefficients.
    pub name: String,
    /// Star-stencil radius (1–4).
    pub rad: usize,
    /// Time steps this operator applies per frame.
    pub iters: usize,
}

/// A directed edge: `from`'s output frames stream to `to` over a bounded
/// channel holding at most `depth` frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramEdge {
    /// Producer node name.
    pub from: String,
    /// Consumer node name.
    pub to: String,
    /// Channel capacity in frames (>= 1).
    pub depth: usize,
}

/// A validated-on-admission DAG of stencil operators plus the frame count
/// streamed through it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StencilProgram {
    /// Frames each source generates and each node processes (>= 1).
    pub frames: usize,
    /// Operator nodes.
    pub nodes: Vec<ProgramNode>,
    /// Channels between them.
    pub edges: Vec<ProgramEdge>,
}

/// Every reason a [`StencilProgram`] cannot be validated or placed — the
/// graph-level sibling of [`crate::planner::PlanError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no nodes.
    Empty,
    /// More nodes than [`MAX_NODES`].
    TooLarge {
        /// Node count in the offending program.
        nodes: usize,
    },
    /// Two nodes share a name.
    DuplicateNode {
        /// The duplicated name.
        name: String,
    },
    /// An edge endpoint names a node that does not exist.
    UnknownNode {
        /// The unresolved name.
        name: String,
    },
    /// An edge declares a channel that can hold no frames.
    ZeroDepthChannel {
        /// Producer endpoint.
        from: String,
        /// Consumer endpoint.
        to: String,
    },
    /// The graph is not acyclic; `node` lies on a cycle.
    Cycle {
        /// A node on the cycle.
        node: String,
    },
    /// A node's stencil radius is outside the supported 1–4 range.
    BadRadius {
        /// The offending node.
        node: String,
        /// Its radius.
        rad: usize,
    },
    /// A node performs no time steps.
    ZeroIters {
        /// The offending node.
        node: String,
    },
    /// The program streams no frames.
    ZeroFrames,
    /// The job's grid is too small for a node's halo: every spatial
    /// extent must cover the stencil's full support (`2·rad + 1`).
    ShapeMismatch {
        /// The node whose halo does not fit.
        node: String,
        /// Its radius.
        rad: usize,
        /// The smallest grid extent the frame shape offers.
        extent: usize,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no nodes"),
            ProgramError::TooLarge { nodes } => {
                write!(f, "program has {nodes} nodes (max {MAX_NODES})")
            }
            ProgramError::DuplicateNode { name } => {
                write!(f, "duplicate node name {name:?}")
            }
            ProgramError::UnknownNode { name } => {
                write!(f, "edge references unknown node {name:?}")
            }
            ProgramError::ZeroDepthChannel { from, to } => {
                write!(f, "channel {from:?} -> {to:?} has zero depth")
            }
            ProgramError::Cycle { node } => {
                write!(f, "program graph has a cycle through {node:?}")
            }
            ProgramError::BadRadius { node, rad } => {
                write!(f, "node {node:?} has unsupported radius {rad} (1-4)")
            }
            ProgramError::ZeroIters { node } => {
                write!(f, "node {node:?} performs zero time steps")
            }
            ProgramError::ZeroFrames => write!(f, "program streams zero frames"),
            ProgramError::ShapeMismatch { node, rad, extent } => {
                write!(
                    f,
                    "node {node:?} (radius {rad}) needs extents >= {}, grid offers {extent}",
                    2 * rad + 1
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl StencilProgram {
    /// The canned 2-stage 2D pipeline: a radius-1 heat diffusion operator
    /// feeding a radius-1 gradient operator over a depth-2 channel.
    pub fn heat_gradient_2d(frames: usize) -> StencilProgram {
        StencilProgram {
            frames,
            nodes: vec![
                ProgramNode {
                    name: "heat".to_string(),
                    rad: 1,
                    iters: 2,
                },
                ProgramNode {
                    name: "gradient".to_string(),
                    rad: 1,
                    iters: 1,
                },
            ],
            edges: vec![ProgramEdge {
                from: "heat".to_string(),
                to: "gradient".to_string(),
                depth: 2,
            }],
        }
    }

    /// The canned 3-stage 3D pipeline: seismic source injection → radius-2
    /// wavefield update → radius-1 absorbing boundary pass, with a depth-1
    /// (fully synchronous) final channel.
    pub fn seismic_3d(frames: usize) -> StencilProgram {
        StencilProgram {
            frames,
            nodes: vec![
                ProgramNode {
                    name: "source".to_string(),
                    rad: 2,
                    iters: 1,
                },
                ProgramNode {
                    name: "update".to_string(),
                    rad: 2,
                    iters: 2,
                },
                ProgramNode {
                    name: "absorb".to_string(),
                    rad: 1,
                    iters: 1,
                },
            ],
            edges: vec![
                ProgramEdge {
                    from: "source".to_string(),
                    to: "update".to_string(),
                    depth: 2,
                },
                ProgramEdge {
                    from: "update".to_string(),
                    to: "absorb".to_string(),
                    depth: 1,
                },
            ],
        }
    }

    /// Index of the node called `name`.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Predecessor edges of node `i`, in edge-list order (the order inputs
    /// are summed in).
    pub fn in_edges(&self, i: usize) -> Vec<usize> {
        let name = &self.nodes[i].name;
        (0..self.edges.len())
            .filter(|&e| self.edges[e].to == *name)
            .collect()
    }

    /// Successor edges of node `i`, in edge-list order.
    pub fn out_edges(&self, i: usize) -> Vec<usize> {
        let name = &self.nodes[i].name;
        (0..self.edges.len())
            .filter(|&e| self.edges[e].from == *name)
            .collect()
    }

    /// Sink nodes (no outgoing edge), in node order.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.out_edges(i).is_empty())
            .collect()
    }

    /// Deterministic topological order (Kahn's algorithm, smallest node
    /// index first).
    ///
    /// # Errors
    /// [`ProgramError::Cycle`] naming a node on a cycle, or the endpoint
    /// errors when an edge is unresolvable.
    pub fn topo_order(&self) -> Result<Vec<usize>, ProgramError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            let from = self
                .node_index(&e.from)
                .ok_or_else(|| ProgramError::UnknownNode {
                    name: e.from.clone(),
                })?;
            let to = self
                .node_index(&e.to)
                .ok_or_else(|| ProgramError::UnknownNode { name: e.to.clone() })?;
            succs[from].push(to);
            indeg[to] += 1;
        }
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        while order.len() < n {
            let Some(next) = (0..n).find(|&i| !placed[i] && indeg[i] == 0) else {
                let node = (0..n).find(|&i| !placed[i]).expect("unplaced node");
                return Err(ProgramError::Cycle {
                    node: self.nodes[node].name.clone(),
                });
            };
            placed[next] = true;
            order.push(next);
            for &s in &succs[next] {
                indeg[s] -= 1;
            }
        }
        Ok(order)
    }

    /// Graph-level validation: every structural reason the program cannot
    /// execute, as the exact [`ProgramError`] variant.
    ///
    /// # Errors
    /// The first violated rule, in the documented check order.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.nodes.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.nodes.len() > MAX_NODES {
            return Err(ProgramError::TooLarge {
                nodes: self.nodes.len(),
            });
        }
        if self.frames == 0 {
            return Err(ProgramError::ZeroFrames);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|m| m.name == node.name) {
                return Err(ProgramError::DuplicateNode {
                    name: node.name.clone(),
                });
            }
            if node.rad == 0 || node.rad > 4 {
                return Err(ProgramError::BadRadius {
                    node: node.name.clone(),
                    rad: node.rad,
                });
            }
            if node.iters == 0 {
                return Err(ProgramError::ZeroIters {
                    node: node.name.clone(),
                });
            }
        }
        for e in &self.edges {
            for name in [&e.from, &e.to] {
                if self.node_index(name).is_none() {
                    return Err(ProgramError::UnknownNode { name: name.clone() });
                }
            }
            if e.depth == 0 {
                return Err(ProgramError::ZeroDepthChannel {
                    from: e.from.clone(),
                    to: e.to.clone(),
                });
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Port/shape compatibility: every node's halo must fit inside the
    /// frame shape the edges carry.
    ///
    /// # Errors
    /// [`ProgramError::ShapeMismatch`] for the first node whose stencil
    /// support exceeds an extent.
    pub fn validate_shape(
        &self,
        dim: usize,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Result<(), ProgramError> {
        let min_extent = if dim == 3 {
            nx.min(ny).min(nz)
        } else {
            nx.min(ny)
        };
        for node in &self.nodes {
            if min_extent < 2 * node.rad + 1 {
                return Err(ProgramError::ShapeMismatch {
                    node: node.name.clone(),
                    rad: node.rad,
                    extent: min_extent,
                });
            }
        }
        Ok(())
    }

    /// Stencil-coefficient seed for node `i` under job seed `seed` — the
    /// job seed salted with the node name, so renaming a node changes its
    /// operator but two jobs with equal seed and program are bit-identical
    /// work.
    pub fn node_seed(&self, seed: u64, i: usize) -> u64 {
        splitmix64(seed ^ fnv1a64(self.nodes[i].name.bytes()))
    }

    /// Fill seed for frame `frame` of source node `i`.
    pub fn frame_seed(&self, seed: u64, i: usize, frame: usize) -> u64 {
        splitmix64(self.node_seed(seed, i) ^ (frame as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Useful cell updates one full run on a grid of `cells` cells
    /// performs: `Σ_nodes cells · iters · frames`, or `None` when the sum
    /// overflows a u64.
    pub fn work_cells(&self, cells: u64) -> Option<u64> {
        self.nodes.iter().try_fold(0u64, |sum, n| {
            let node = cells
                .checked_mul(n.iters as u64)?
                .checked_mul(self.frames as u64)?;
            sum.checked_add(node)
        })
    }
}

/// Writes the deterministic source frame for `(seed)` into `g` — the
/// program-source analogue of the single-kernel job fill, shared by the
/// worker's frame loop and the serial interpreter.
pub fn fill_source_2d(g: &mut Grid2D<f32>, seed: u64) {
    let s = seed as usize;
    let (nx, ny) = (g.nx(), g.ny());
    let data = g.as_mut_slice();
    for y in 0..ny {
        for (x, v) in data[y * nx..(y + 1) * nx].iter_mut().enumerate() {
            *v = ((x * 31 + y * 17 + s) % 103) as f32;
        }
    }
}

/// 3D variant of [`fill_source_2d`].
pub fn fill_source_3d(g: &mut Grid3D<f32>, seed: u64) {
    let s = seed as usize;
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let data = g.as_mut_slice();
    for z in 0..nz {
        for y in 0..ny {
            let base = (z * ny + y) * nx;
            for (x, v) in data[base..base + nx].iter_mut().enumerate() {
                *v = ((x + 3 * y + 7 * z + s) % 53) as f32;
            }
        }
    }
}

/// Adds `src` into `dst` element-wise (the fan-in join).
pub(crate) fn add_into_2d(dst: &mut Grid2D<f32>, src: &Grid2D<f32>) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += *s;
    }
}

pub(crate) fn add_into_3d(dst: &mut Grid3D<f32>, src: &Grid3D<f32>) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += *s;
    }
}

/// Runs the program **serially in topological order on one device** — the
/// reference interpreter every program job must match bit-exactly.
/// Calls `on_frame(frame, combined_sink_grid)` once per frame.
///
/// # Panics
/// Panics when the program fails [`StencilProgram::validate`] — callers
/// validate at admission.
pub fn interpret_2d(
    program: &StencilProgram,
    nx: usize,
    ny: usize,
    seed: u64,
    mut on_frame: impl FnMut(usize, &Grid2D<f32>),
) {
    let order = program.topo_order().expect("validated program");
    let stencils: Vec<Stencil2D<f32>> = (0..program.nodes.len())
        .map(|i| {
            Stencil2D::<f32>::random(program.nodes[i].rad, program.node_seed(seed, i))
                .expect("validated radius")
        })
        .collect();
    let sinks = program.sinks();
    for frame in 0..program.frames {
        let mut outs: Vec<Option<Grid2D<f32>>> = vec![None; program.nodes.len()];
        for &i in &order {
            let ins = program.in_edges(i);
            let input = if ins.is_empty() {
                let mut g = Grid2D::zeros(nx, ny).expect("validated shape");
                fill_source_2d(&mut g, program.frame_seed(seed, i, frame));
                g
            } else {
                let first = program
                    .node_index(&program.edges[ins[0]].from)
                    .expect("validated edge");
                let mut g = outs[first].clone().expect("topological order");
                for &e in &ins[1..] {
                    let p = program
                        .node_index(&program.edges[e].from)
                        .expect("validated edge");
                    add_into_2d(&mut g, outs[p].as_ref().expect("topological order"));
                }
                g
            };
            outs[i] = Some(exec::run_2d(&stencils[i], &input, program.nodes[i].iters));
        }
        let mut combined = outs[sinks[0]].take().expect("sink computed");
        for &s in &sinks[1..] {
            add_into_2d(&mut combined, outs[s].as_ref().expect("sink computed"));
        }
        on_frame(frame, &combined);
    }
}

/// 3D variant of [`interpret_2d`].
///
/// # Panics
/// Panics when the program fails [`StencilProgram::validate`].
pub fn interpret_3d(
    program: &StencilProgram,
    nx: usize,
    ny: usize,
    nz: usize,
    seed: u64,
    mut on_frame: impl FnMut(usize, &Grid3D<f32>),
) {
    let order = program.topo_order().expect("validated program");
    let stencils: Vec<Stencil3D<f32>> = (0..program.nodes.len())
        .map(|i| {
            Stencil3D::<f32>::random(program.nodes[i].rad, program.node_seed(seed, i))
                .expect("validated radius")
        })
        .collect();
    let sinks = program.sinks();
    for frame in 0..program.frames {
        let mut outs: Vec<Option<Grid3D<f32>>> = vec![None; program.nodes.len()];
        for &i in &order {
            let ins = program.in_edges(i);
            let input = if ins.is_empty() {
                let mut g = Grid3D::zeros(nx, ny, nz).expect("validated shape");
                fill_source_3d(&mut g, program.frame_seed(seed, i, frame));
                g
            } else {
                let first = program
                    .node_index(&program.edges[ins[0]].from)
                    .expect("validated edge");
                let mut g = outs[first].clone().expect("topological order");
                for &e in &ins[1..] {
                    let p = program
                        .node_index(&program.edges[e].from)
                        .expect("validated edge");
                    add_into_3d(&mut g, outs[p].as_ref().expect("topological order"));
                }
                g
            };
            outs[i] = Some(exec::run_3d(&stencils[i], &input, program.nodes[i].iters));
        }
        let mut combined = outs[sinks[0]].take().expect("sink computed");
        for &s in &sinks[1..] {
            add_into_3d(&mut combined, outs[s].as_ref().expect("sink computed"));
        }
        on_frame(frame, &combined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> StencilProgram {
        StencilProgram::heat_gradient_2d(2)
    }

    #[test]
    fn canned_programs_validate() {
        StencilProgram::heat_gradient_2d(3).validate().unwrap();
        StencilProgram::seismic_3d(2).validate().unwrap();
        StencilProgram::heat_gradient_2d(3)
            .validate_shape(2, 64, 32, 1)
            .unwrap();
        StencilProgram::seismic_3d(2)
            .validate_shape(3, 24, 24, 24)
            .unwrap();
    }

    #[test]
    fn cycle_is_the_exact_variant() {
        let mut p = two_node();
        p.edges.push(ProgramEdge {
            from: "gradient".to_string(),
            to: "heat".to_string(),
            depth: 1,
        });
        assert!(matches!(p.validate(), Err(ProgramError::Cycle { .. })));
    }

    #[test]
    fn unknown_node_ref_is_the_exact_variant() {
        let mut p = two_node();
        p.edges[0].to = "missing".to_string();
        assert_eq!(
            p.validate(),
            Err(ProgramError::UnknownNode {
                name: "missing".to_string()
            })
        );
    }

    #[test]
    fn zero_depth_channel_is_the_exact_variant() {
        let mut p = two_node();
        p.edges[0].depth = 0;
        assert_eq!(
            p.validate(),
            Err(ProgramError::ZeroDepthChannel {
                from: "heat".to_string(),
                to: "gradient".to_string()
            })
        );
    }

    #[test]
    fn shape_mismatch_is_the_exact_variant() {
        let p = StencilProgram::seismic_3d(1);
        assert_eq!(
            p.validate_shape(3, 64, 64, 4),
            Err(ProgramError::ShapeMismatch {
                node: "source".to_string(),
                rad: 2,
                extent: 4
            })
        );
    }

    #[test]
    fn duplicate_bad_radius_zero_iters_empty_frames_variants() {
        let mut p = two_node();
        p.nodes[1].name = "heat".to_string();
        assert!(matches!(
            p.validate(),
            Err(ProgramError::DuplicateNode { .. })
        ));

        let mut p = two_node();
        p.nodes[0].rad = 5;
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadRadius {
                node: "heat".to_string(),
                rad: 5
            })
        );

        let mut p = two_node();
        p.nodes[1].iters = 0;
        assert!(matches!(p.validate(), Err(ProgramError::ZeroIters { .. })));

        let p = StencilProgram {
            frames: 1,
            nodes: vec![],
            edges: vec![],
        };
        assert_eq!(p.validate(), Err(ProgramError::Empty));

        let mut p = two_node();
        p.frames = 0;
        assert_eq!(p.validate(), Err(ProgramError::ZeroFrames));
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        let p = StencilProgram::seismic_3d(1);
        assert_eq!(p.topo_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn interpreter_is_deterministic() {
        let p = two_node();
        let mut a = Vec::new();
        let mut b = Vec::new();
        interpret_2d(&p, 24, 16, 42, |f, g| a.push((f, g.as_slice().to_vec())));
        interpret_2d(&p, 24, 16, 42, |f, g| b.push((f, g.as_slice().to_vec())));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn frames_differ_and_seeds_differ() {
        let p = two_node();
        let mut frames = Vec::new();
        interpret_2d(&p, 16, 16, 7, |_, g| frames.push(g.as_slice().to_vec()));
        assert_ne!(frames[0], frames[1], "frames must carry distinct data");
        let mut other = Vec::new();
        interpret_2d(&p, 16, 16, 8, |_, g| other.push(g.as_slice().to_vec()));
        assert_ne!(frames[0], other[0], "job seed must change the data");
    }

    #[test]
    fn work_cells_counts_every_stage() {
        let p = StencilProgram::seismic_3d(2);
        // (1 + 2 + 1) iters x 8^3 cells x 2 frames.
        assert_eq!(p.work_cells(512), Some(4 * 512 * 2));
        assert_eq!(p.work_cells(u64::MAX / 4), None, "overflow is reported");
    }

    #[test]
    fn program_roundtrips_through_json() {
        let p = StencilProgram::seismic_3d(3);
        let json = serde_json::to_string(&p).unwrap();
        let back: StencilProgram = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
