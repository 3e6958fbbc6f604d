//! The boundary-condition code generator.
//!
//! §III.B: "Boundary conditions were modified so that all out-of-bound
//! neighboring cells correctly fall back on the cell that is on the border.
//! Since this could not be efficiently realized using unrolled loops and
//! branches, we created a code generator that generates and inserts the
//! boundary conditions into the base kernel."
//!
//! This module is that generator: for every direction and distance it emits
//! straight-line OpenCL that computes the shift-register tap index for each
//! vector lane, with the clamp folded into a ternary select (which the HLS
//! compiler maps to a mux rather than a branch). Clamp is the paper's
//! condition and the only one emitted; the selects implement the same
//! formula the host executors resolve taps through
//! ([`stencil_core::BoundaryCond::Clamp`]), which the tests check position
//! by position.

use std::fmt::Write;

/// One generated tap: variable name plus the code that computes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tap {
    /// C identifier the kernel uses for the tap value.
    pub name: String,
    /// OpenCL statements that define it.
    pub code: String,
}

/// The select expression for a *backward* tap offset (west / south / below)
/// of distance `d` at position expression `pos` on an axis of any extent
/// `len`: the emitted value `off` satisfies
/// `pos - off == BoundaryCond::Clamp.resolve(pos - d, len)`.
fn lo_offset_expr(d: usize, pos: &str) -> String {
    format!("({pos} >= {d}) ? {d} : {pos}")
}

/// The select expression for a *forward* tap offset (east / north / above)
/// on an axis of extent macro `len`: the emitted value `off` satisfies
/// `pos + off == BoundaryCond::Clamp.resolve(pos + d, len)`.
fn hi_offset_expr(d: usize, pos: &str, len: &str) -> String {
    format!("({pos} < {len} - {d}) ? {d} : ({len} - 1 - {pos})")
}

/// Generates the x-direction taps (west/east) for one vector lane.
///
/// `gx<lane>` is the lane's global x expression, `NX` the grid-width macro,
/// `sr` the shift-register array and `sr_center_l<lane>` the lane's
/// shift-register index expression. West taps subtract from the index, east
/// taps add.
pub fn x_taps(rad: usize, lane: usize) -> Vec<Tap> {
    let mut out = Vec::with_capacity(2 * rad);
    let pos = format!("gx{lane}");
    for d in 1..=rad {
        let name = format!("west_{d}_l{lane}");
        let mut code = String::new();
        writeln!(
            code,
            "    const int {name}_off = {}; // clamp: out-of-bound index select",
            lo_offset_expr(d, &pos)
        )
        .unwrap();
        writeln!(
            code,
            "    const float {name} = sr[sr_center_l{lane} - {name}_off];"
        )
        .unwrap();
        out.push(Tap { name, code });

        let name = format!("east_{d}_l{lane}");
        let mut code = String::new();
        writeln!(
            code,
            "    const int {name}_off = {};",
            hi_offset_expr(d, &pos, "NX")
        )
        .unwrap();
        writeln!(
            code,
            "    const float {name} = sr[sr_center_l{lane} + {name}_off];"
        )
        .unwrap();
        out.push(Tap { name, code });
    }
    out
}

/// Generates the streamed-dimension taps (south/north for 2D, below/above
/// for 3D): whole-row offsets of `±d · row_stride`, index-selected against
/// the stream position.
pub fn stream_taps(
    rad: usize,
    lane: usize,
    dim_len_macro: &str,
    pos_var: &str,
    stride_macro: &str,
    lo_name: &str,
    hi_name: &str,
) -> Vec<Tap> {
    let mut out = Vec::with_capacity(2 * rad);
    for d in 1..=rad {
        let name = format!("{lo_name}_{d}_l{lane}");
        let mut code = String::new();
        writeln!(
            code,
            "    const int {name}_off = {};",
            lo_offset_expr(d, pos_var)
        )
        .unwrap();
        writeln!(
            code,
            "    const float {name} = sr[sr_center_l{lane} - {name}_off * {stride_macro}];"
        )
        .unwrap();
        out.push(Tap { name, code });

        let name = format!("{hi_name}_{d}_l{lane}");
        let mut code = String::new();
        writeln!(
            code,
            "    const int {name}_off = {};",
            hi_offset_expr(d, pos_var, dim_len_macro)
        )
        .unwrap();
        writeln!(
            code,
            "    const float {name} = sr[sr_center_l{lane} + {name}_off * {stride_macro}];"
        )
        .unwrap();
        out.push(Tap { name, code });
    }
    out
}

/// Generates the y-direction taps for a 3D kernel (blocked dimension inside
/// the plane): `±d · BSIZE_X` index selects against the global y.
pub fn y_taps_3d(rad: usize, lane: usize) -> Vec<Tap> {
    stream_taps(rad, lane, "NY", "gy", "BSIZE_X", "south", "north")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::BoundaryCond;

    #[test]
    fn tap_count_is_two_per_distance() {
        for rad in 1..=4 {
            assert_eq!(x_taps(rad, 0).len(), 2 * rad);
            assert_eq!(y_taps_3d(rad, 0).len(), 2 * rad);
        }
    }

    #[test]
    fn west_tap_clamps_at_zero() {
        let taps = x_taps(2, 0);
        let west2 = taps.iter().find(|t| t.name == "west_2_l0").unwrap();
        // The overshoot fallback: offset is gx itself when gx < d.
        assert!(west2.code.contains("(gx0 >= 2) ? 2 : gx0"));
        assert!(west2.code.contains("sr[sr_center_l0 - west_2_l0_off]"));
    }

    #[test]
    fn east_tap_clamps_at_nx() {
        let taps = x_taps(3, 1);
        let east3 = taps.iter().find(|t| t.name == "east_3_l1").unwrap();
        assert!(east3.code.contains("(gx1 < NX - 3) ? 3 : (NX - 1 - gx1)"));
    }

    /// The emitted select expressions must implement the exact
    /// [`BoundaryCond::Clamp`] resolve arithmetic — this evaluates each
    /// formula (as emitted, branch for branch) over every in-range position
    /// and compares with the shared IR, so OpenCL emission and host
    /// execution provably agree.
    #[test]
    fn offset_selects_match_shared_resolve() {
        let bc = BoundaryCond::Clamp;
        for n in [1i64, 2, 5, 9] {
            for d in 1..=4i64 {
                for pos in 0..n {
                    // lo (west/south/below): emitted `pos - off`.
                    let off = if pos >= d { d } else { pos };
                    assert_eq!(
                        (pos - off) as usize,
                        bc.resolve(pos - d, n),
                        "lo n={n} d={d} pos={pos}"
                    );
                    // hi (east/north/above): emitted `pos + off`.
                    let off = if pos < n - d { d } else { n - 1 - pos };
                    assert_eq!(
                        (pos + off) as usize,
                        bc.resolve(pos + d, n),
                        "hi n={n} d={d} pos={pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_taps_scale_by_stride() {
        let taps = stream_taps(2, 0, "NZ", "gz", "PLANE", "below", "above");
        assert!(taps[0].code.contains("gz >= 1"));
        assert!(taps[1].code.contains("above_1_l0_off * PLANE"));
        assert!(taps[3].code.contains("(gz < NZ - 2) ? 2 : (NZ - 1 - gz)"));
    }

    #[test]
    fn names_are_unique_per_lane_and_distance() {
        let mut names: Vec<String> = (0..4)
            .flat_map(|lane| x_taps(4, lane).into_iter().map(|t| t.name))
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn generated_code_is_deterministic() {
        assert_eq!(x_taps(3, 2), x_taps(3, 2));
    }
}
