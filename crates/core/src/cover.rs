//! Dynamic-programming tree covering with pluggable cost functions.
//!
//! This is Keutzer's optimal tree covering, extended exactly as Section
//! 3.2 of the paper describes: beside the area term (Eq. 1), each match
//! carries a wire term made of `WIRE1` — the distance between the match's
//! centre of mass and the centres of mass of its fanin matches (Eq. 2) —
//! and `WIRE2` — the stored wire cost of those fanins (Eq. 3). The
//! combined objective is `COST(m, v) = AREA(m, v) + K · WIRE(m, v)`
//! (Eq. 5), with `K = 0` degenerating to plain minimum-area DAGON.
//!
//! Wire cost is deliberately *local* (fanins and their children only, not
//! transitive fanins to the primary inputs): the paper argues at length
//! that Pedram–Bhat's transitive formulation perturbs the cost function
//! unpredictably.
//!
//! Matches that cover *through* a multi-fanout vertex hide a shared
//! signal, forcing a duplicate cover to be emitted for the other fanouts;
//! such matches are charged the estimated duplicated area and wire
//! (the subtree's cover cost minus whatever the match's own leaves
//! already share). Under minimum-area covering duplication is therefore
//! never chosen gratuitously — `K = 0` behaves exactly like DAGON — while
//! a strong wire term can justify it, reproducing the paper's cell-count
//! growth at large K.

use crate::matcher::{matches_at, Match, MatchBuf, MatchRef, SharedPolicy};
use crate::partition::{Tree, TreeNode};
use casyn_library::Library;
use casyn_netlist::Point;
use casyn_obs as obs;

/// The covering objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostKind {
    /// Minimum cell area — DAGON's objective (and the paper's `K = 0`).
    Area,
    /// The paper's congestion-aware objective `AREA + K × WIRE`.
    AreaWire {
        /// The congestion minimization factor K (µm² per µm of wire).
        k: f64,
    },
}

/// The chosen solution at one tree node.
#[derive(Debug, Clone)]
pub struct NodeSolution {
    /// The selected match (`None` at leaves).
    pub chosen: Option<Match>,
    /// Minimum combined cost at this node.
    pub cost: f64,
    /// Area component (`areaCost(v)` of Eq. 1).
    pub area: f64,
    /// Wire component (`wireCost(v)` of Eqs. 2–4).
    pub wire: f64,
    /// Centre of mass of the chosen match (`pos(match(v), v)`); for
    /// leaves, the placed position of the referenced subject vertex.
    pub pos: Point,
}

/// The DP table of a covered tree.
#[derive(Debug, Clone)]
pub struct TreeCover {
    /// One solution per tree node.
    pub solutions: Vec<NodeSolution>,
}

impl TreeCover {
    /// The solution at the root.
    pub fn root(&self) -> &NodeSolution {
        self.solutions.last().expect("tree has nodes")
    }
}

/// Covers `tree` bottom-up. `positions` holds the placed position of
/// every subject vertex (the tech-independent placement); they anchor
/// both leaf positions and match centres of mass. Every node enumerates
/// its matches into the caller's `buf`, so that one buffer serves every
/// tree of a mapping.
///
/// # Panics
///
/// Panics if some internal node has no match (the library must contain at
/// least an inverter and a NAND2).
pub fn cover_tree<'l>(
    tree: &Tree,
    lib: &'l Library,
    positions: &[Point],
    shared: &[bool],
    cost: CostKind,
    buf: &mut MatchBuf<'l>,
) -> TreeCover {
    let starts = tree.subtree_starts();
    let mut solutions: Vec<NodeSolution> = Vec::with_capacity(tree.nodes.len());
    // batched locally; one registry flush per covered tree
    let mut matches_tried = 0u64;
    let wants_wire = matches!(cost, CostKind::AreaWire { .. });
    // K = 0 must degenerate to DAGON exactly, so a zero wire weight also
    // forbids duplication
    let policy = match cost {
        CostKind::Area | CostKind::AreaWire { k: 0.0 } => SharedPolicy::Forbid,
        CostKind::AreaWire { .. } => SharedPolicy::Price,
    };
    for (idx, node) in tree.nodes.iter().enumerate() {
        match node {
            TreeNode::Leaf { signal } => solutions.push(NodeSolution {
                chosen: None,
                cost: 0.0,
                area: 0.0,
                wire: 0.0,
                pos: positions[signal.index()],
            }),
            _ => {
                matches_at(tree, idx as u32, lib, shared, policy, buf);
                assert!(!buf.is_empty(), "no match at internal node {idx}");
                matches_tried += buf.len() as u64;
                // the first match of minimum (cost, area) wins
                let mut best: Option<(usize, NodeSolution)> = None;
                for (i, m) in buf.iter().enumerate() {
                    let cand = evaluate(m, lib, positions, &solutions, &starts, cost);
                    let better = match &best {
                        None => true,
                        Some((_, b)) => {
                            cand.cost < b.cost || (cand.cost == b.cost && cand.area < b.area)
                        }
                    };
                    if better {
                        best = Some((i, cand));
                    }
                }
                let (i, mut solution) = best.expect("at least one match");
                solution.chosen = Some(buf.get(i).to_match());
                solutions.push(solution);
            }
        }
    }
    if obs::enabled() {
        let writes = [
            obs::Write::Counter("map.matches_tried", matches_tried),
            obs::Write::Record("map.tree_nodes", tree.nodes.len() as f64),
            obs::Write::Counter("map.wire_evals", matches_tried),
        ];
        obs::write_batch(if wants_wire { &writes } else { &writes[..2] });
    }
    TreeCover { solutions }
}

/// Computes AREA (Eq. 1), WIRE1/WIRE2 (Eqs. 2–4) and the combined cost
/// (Eq. 5) of one candidate match. The returned solution carries the
/// numbers only: `chosen` stays `None` until the DP has a winner.
fn evaluate(
    m: MatchRef<'_>,
    lib: &Library,
    positions: &[Point],
    solutions: &[NodeSolution],
    starts: &[u32],
    cost: CostKind,
) -> NodeSolution {
    let cell = lib.cell(m.cell);
    // centre of mass of the covered base gates, from the tech-independent
    // placement (pos(m, v) in the paper)
    let com = {
        let mut x = 0.0;
        let mut y = 0.0;
        for g in m.covered {
            x += positions[g.index()].x;
            y += positions[g.index()].y;
        }
        let n = m.covered.len().max(1) as f64;
        Point::new(x / n, y / n)
    };
    let mut area = cell.area;
    let mut wire1 = 0.0;
    let mut wire2 = 0.0;
    for &leaf in m.leaves {
        let s = &solutions[leaf as usize];
        area += s.area;
        wire1 += com.manhattan(s.pos);
        wire2 += s.wire;
    }
    // duplication charge: every shared node covered through will be
    // re-emitted as its own cover; its leaves that this match reuses are
    // shared, everything else is duplicated
    let mut dup_area = 0.0;
    let mut dup_wire = 0.0;
    for &w in m.through {
        let ws = &solutions[w as usize];
        let mut shared_area = 0.0;
        let mut shared_wire = 0.0;
        for &l in m.leaves {
            if l >= starts[w as usize] && l < w {
                shared_area += solutions[l as usize].area;
                shared_wire += solutions[l as usize].wire;
            }
        }
        dup_area += (ws.area - shared_area).max(0.0);
        dup_wire += (ws.wire - shared_wire).max(0.0);
    }
    let area = area + dup_area;
    let wire = wire1 + wire2 + dup_wire;
    let combined = match cost {
        CostKind::Area => area,
        CostKind::AreaWire { k } => area + k * wire,
    };
    NodeSolution { chosen: None, cost: combined, area, wire, pos: com }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, Forest, PartitionScheme};
    use casyn_library::corelib018;
    use casyn_netlist::subject::SubjectGraph;

    /// Covers the forest's first tree, nothing in it shared.
    fn cover_first(f: &Forest, lib: &Library, positions: &[Point], cost: CostKind) -> TreeCover {
        cover_tree(&f.trees[0], lib, positions, &[], cost, &mut MatchBuf::new())
    }

    /// The AND-gate tree: min-area cover must pick AN2 (4 sites) over
    /// ND2+IV (5 sites).
    #[test]
    fn min_area_prefers_complex_cell() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i = g.add_inv(n);
        g.add_output("o", i);
        let lib = corelib018();
        let positions = vec![Point::default(); g.num_vertices()];
        let f = partition(&g, PartitionScheme::Dagon, &[]);
        let cover = cover_first(&f, &lib, &positions, CostKind::Area);
        let root = cover.root();
        let cell = lib.cell(root.chosen.as_ref().unwrap().cell);
        assert_eq!(cell.name, "AN2");
        assert!((root.area - cell.area).abs() < 1e-9);
    }

    /// With K = 0 the AreaWire objective must equal pure area cost.
    #[test]
    fn k_zero_equals_dagon() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let i1 = g.add_inv(n1);
        let n2 = g.add_nand2(i1, c);
        let root = g.add_inv(n2);
        g.add_output("o", root);
        let lib = corelib018();
        let positions: Vec<Point> =
            (0..g.num_vertices()).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let f = partition(&g, PartitionScheme::Dagon, &[]);
        let a_cover = cover_first(&f, &lib, &positions, CostKind::Area);
        let w_cover = cover_first(&f, &lib, &positions, CostKind::AreaWire { k: 0.0 });
        assert_eq!(a_cover.root().area, w_cover.root().area);
    }

    /// A large K must be able to change the chosen cover when the
    /// geometry punishes the min-area cell.
    #[test]
    fn wire_term_can_override_area() {
        // Structure: and(a, b) where a and b sit far from the AND's gates
        // in *opposite* directions. Covering with AN2 puts one cell at the
        // centre of mass; covering with ND2+IV lets the DP keep the same
        // wiring but costs more area — so instead build the Figure-1-style
        // case: or(and(a,b), c)-ish tree where AOI/complex cells
        // concentrate everything at one far centroid while small cells
        // stay near their fanins.
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let ic = g.add_inv(c);
        let n2 = g.add_nand2(n1, ic);
        let root = g.add_inv(n2);
        g.add_output("o", root);
        let lib = corelib018();
        // geometry: a,b cluster at x=0; c at x=1000; internal gates spread
        let mut positions = vec![Point::default(); g.num_vertices()];
        positions[a.index()] = Point::new(0.0, 0.0);
        positions[b.index()] = Point::new(0.0, 10.0);
        positions[n1.index()] = Point::new(5.0, 5.0);
        positions[c.index()] = Point::new(1000.0, 0.0);
        positions[ic.index()] = Point::new(995.0, 0.0);
        positions[n2.index()] = Point::new(500.0, 0.0);
        positions[root.index()] = Point::new(500.0, 5.0);
        let f = partition(&g, PartitionScheme::Dagon, &[]);
        let area_cover = cover_first(&f, &lib, &positions, CostKind::Area);
        let wire_cover = cover_first(&f, &lib, &positions, CostKind::AreaWire { k: 10.0 });
        let area_cell = lib.cell(area_cover.root().chosen.as_ref().unwrap().cell);
        assert_eq!(area_cell.name, "AOI21", "min-area picks the complex cell");
        // the heavy-K cover must have strictly less wire
        assert!(
            wire_cover.root().wire <= area_cover.root().wire,
            "wire {} vs {}",
            wire_cover.root().wire,
            area_cover.root().wire
        );
        // and (given the punishing geometry) a different structure
        assert!(wire_cover.root().area >= area_cover.root().area);
    }

    /// Dynamic-programming consistency: the root area equals the cell
    /// areas of the extracted cover.
    #[test]
    fn root_area_equals_sum_of_chosen_cells() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let n1 = g.add_nand2(a, b);
        let n2 = g.add_nand2(c, d);
        let i1 = g.add_inv(n1);
        let i2 = g.add_inv(n2);
        let n3 = g.add_nand2(i1, i2);
        g.add_output("o", n3);
        let lib = corelib018();
        let positions = vec![Point::default(); g.num_vertices()];
        let f = partition(&g, PartitionScheme::Dagon, &[]);
        let cover = cover_first(&f, &lib, &positions, CostKind::Area);
        // walk the chosen cover from the root and sum areas
        let mut total = 0.0;
        let mut stack = vec![f.trees[0].root()];
        while let Some(n) = stack.pop() {
            let s = &cover.solutions[n as usize];
            if let Some(m) = &s.chosen {
                total += lib.cell(m.cell).area;
                for &l in &m.leaves {
                    stack.push(l);
                }
            }
        }
        assert!((total - cover.root().area).abs() < 1e-9);
        // the whole structure is ND4: 4-input NAND
        let root_cell = lib.cell(cover.root().chosen.as_ref().unwrap().cell);
        assert_eq!(root_cell.name, "ND4");
    }
}
