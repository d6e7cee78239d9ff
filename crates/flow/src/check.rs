//! Stage-boundary invariant checks.
//!
//! Each check inspects the artifact a pipeline stage just produced and
//! returns a [`FlowError`] with [`crate::FlowErrorKind::Invariant`] when the
//! artifact is corrupt, instead of letting a downstream stage trip over
//! it with an opaque panic or — worse — silently produce wrong results.
//! The flow runs them after every stage when
//! [`crate::FlowOptions::validate`] is set (the default in debug builds,
//! `--validate` in release); each check also bumps the `check.passed` /
//! `check.failed` observability counters so validation coverage shows up
//! in telemetry.

use crate::error::{FlowError, Stage};
use casyn_core::partition::{Forest, TreeNode};
use casyn_netlist::mapped::{MappedNetlist, SignalRef};
use casyn_netlist::subject::{BaseKind, SubjectGraph};
use casyn_netlist::Point;
use casyn_obs as obs;
use casyn_place::Floorplan;
use casyn_route::RouteResult;

/// Slack allowed when testing "inside the die": positions sit exactly on
/// the die boundary after clamping, and row arithmetic can leave them a
/// rounding error outside it.
const BOUNDS_EPS: f64 = 1e-6;

/// Records the check verdict in the metrics registry and warns on failure.
fn report(name: &str, result: Result<(), FlowError>) -> Result<(), FlowError> {
    match &result {
        Ok(()) => obs::counter_add("check.passed", 1),
        Err(e) => {
            obs::counter_add("check.failed", 1);
            obs::log::warn(&format!("invariant check {name} failed: {e}"));
        }
    }
    result
}

/// Checks that a subject graph is a well-formed DAG: every fanin of a
/// gate precedes the gate (the append-only construction order downstream
/// passes rely on), arities match the gate kinds, and every primary
/// output names an existing vertex. Blamed on `stage` (decomposition or
/// optimization, whichever produced the graph).
pub fn subject_dag(stage: Stage, graph: &SubjectGraph) -> Result<(), FlowError> {
    report("subject_dag", subject_dag_inner(stage, graph))
}

fn subject_dag_inner(stage: Stage, graph: &SubjectGraph) -> Result<(), FlowError> {
    let n = graph.num_vertices();
    for id in graph.ids() {
        let fanins = graph.fanins(id);
        let arity = match graph.kind(id) {
            BaseKind::Input => 0,
            BaseKind::Inv => 1,
            BaseKind::Nand2 => 2,
        };
        if fanins.len() != arity {
            return Err(FlowError::invariant(
                stage,
                format!("gate {id} has {} fanins, expected {arity}", fanins.len()),
            ));
        }
        for f in fanins {
            if f.index() >= id.index() {
                return Err(FlowError::invariant(
                    stage,
                    format!("gate {id} reads {f}, which does not precede it (cycle or forward reference)"),
                ));
            }
        }
    }
    for (name, id) in graph.outputs() {
        if id.index() >= n {
            return Err(FlowError::invariant(
                stage,
                format!("output {name} names vertex {id} but the graph has {n} vertices"),
            ));
        }
    }
    Ok(())
}

/// Checks that every position is finite and inside the die (within
/// `BOUNDS_EPS`). Used after initial placement and again after
/// legalization, hence the explicit `stage`.
pub fn placement_in_bounds(
    stage: Stage,
    positions: &[Point],
    fp: &Floorplan,
) -> Result<(), FlowError> {
    report("placement_in_bounds", placement_in_bounds_inner(stage, positions, fp))
}

fn placement_in_bounds_inner(
    stage: Stage,
    positions: &[Point],
    fp: &Floorplan,
) -> Result<(), FlowError> {
    for (i, p) in positions.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(FlowError::invariant(
                stage,
                format!("position {i} is not finite: ({}, {})", p.x, p.y),
            ));
        }
        if p.x < -BOUNDS_EPS
            || p.y < -BOUNDS_EPS
            || p.x > fp.die_width + BOUNDS_EPS
            || p.y > fp.die_height + BOUNDS_EPS
        {
            return Err(FlowError::invariant(
                stage,
                format!(
                    "position {i} at ({:.3}, {:.3}) lies outside the {:.3} x {:.3} die",
                    p.x, p.y, fp.die_width, fp.die_height
                ),
            ));
        }
    }
    Ok(())
}

/// Checks that a partition covers the subject graph completely: every
/// gate (non-input vertex) is hosted as an internal node of exactly the
/// tree recorded in `host`, and every tree's internal nodes point back at
/// real gates. A gate the forest lost would silently vanish from the
/// mapped netlist.
pub fn partition_covers(graph: &SubjectGraph, forest: &Forest) -> Result<(), FlowError> {
    report("partition_covers", partition_covers_inner(graph, forest))
}

fn partition_covers_inner(graph: &SubjectGraph, forest: &Forest) -> Result<(), FlowError> {
    let n = graph.num_vertices();
    if forest.host.len() != n || forest.father.len() != n {
        return Err(FlowError::invariant(
            Stage::Partition,
            format!(
                "forest tracks {} vertices (host) / {} (father) but the graph has {n}",
                forest.host.len(),
                forest.father.len()
            ),
        ));
    }
    for id in graph.ids() {
        let v = id.index();
        match (graph.kind(id), forest.host[v]) {
            (BaseKind::Input, Some(_)) => {
                return Err(FlowError::invariant(
                    Stage::Partition,
                    format!("primary input {id} is hosted as an internal tree node"),
                ));
            }
            (BaseKind::Input, None) => {}
            (_, None) => {
                return Err(FlowError::invariant(
                    Stage::Partition,
                    format!("gate {id} is not covered by any tree"),
                ));
            }
            (_, Some((t, node))) => {
                let tree = forest.trees.get(t as usize).ok_or_else(|| {
                    FlowError::invariant(
                        Stage::Partition,
                        format!(
                            "gate {id} claims tree {t} but the forest has {}",
                            forest.trees.len()
                        ),
                    )
                })?;
                let hosted = match tree.nodes.get(node as usize) {
                    Some(TreeNode::Inv { gate, .. }) | Some(TreeNode::Nand { gate, .. }) => {
                        Some(*gate)
                    }
                    _ => None,
                };
                if hosted != Some(id) {
                    return Err(FlowError::invariant(
                        Stage::Partition,
                        format!("gate {id} claims tree {t} node {node}, which hosts {hosted:?}"),
                    ));
                }
            }
        }
    }
    for (t, tree) in forest.trees.iter().enumerate() {
        if tree.nodes.is_empty() {
            return Err(FlowError::invariant(Stage::Partition, format!("tree {t} is empty")));
        }
        if tree.root_gate.index() >= n {
            return Err(FlowError::invariant(
                Stage::Partition,
                format!("tree {t} is rooted at {}, outside the graph", tree.root_gate),
            ));
        }
    }
    Ok(())
}

/// Checks that a mapped netlist is internally consistent: every signal
/// reference names an existing input or cell, and the cell graph is
/// acyclic (via a non-panicking Kahn pass — the netlist's own
/// `topological_order` asserts). Blamed on `stage` (map or legalize).
pub fn mapped_netlist(stage: Stage, nl: &MappedNetlist) -> Result<(), FlowError> {
    mapped_netlist_cut(stage, nl, |_| false)
}

/// [`mapped_netlist`] for sequential netlists: cells for which
/// `is_source` returns true (flip-flops) act as pure sources, so
/// register loops through them are legal while purely combinational
/// cycles still fail.
pub fn mapped_netlist_cut(
    stage: Stage,
    nl: &MappedNetlist,
    is_source: impl Fn(usize) -> bool,
) -> Result<(), FlowError> {
    report("mapped_netlist", mapped_netlist_inner(stage, nl, is_source))
}

fn mapped_netlist_inner(
    stage: Stage,
    nl: &MappedNetlist,
    is_source: impl Fn(usize) -> bool,
) -> Result<(), FlowError> {
    let num_cells = nl.num_cells();
    let num_inputs = nl.input_names().len();
    let check_ref = |what: String, s: SignalRef| -> Result<(), FlowError> {
        match s {
            SignalRef::Pi(i) if (i as usize) < num_inputs => Ok(()),
            SignalRef::Cell(i) if (i as usize) < num_cells => Ok(()),
            SignalRef::Pi(i) => Err(FlowError::invariant(
                stage,
                format!("{what} reads primary input {i} but the netlist has {num_inputs}"),
            )),
            SignalRef::Cell(i) => Err(FlowError::invariant(
                stage,
                format!("{what} reads cell {i} but the netlist has {num_cells}"),
            )),
        }
    };
    for (ci, cell) in nl.cells().iter().enumerate() {
        for (pi, src) in cell.inputs.iter().enumerate() {
            check_ref(format!("cell {ci} ({}) pin {pi}", cell.name), *src)?;
        }
    }
    for (name, src) in nl.outputs() {
        check_ref(format!("output {name}"), *src)?;
    }
    // Kahn's algorithm, tolerant of corruption: whatever is left
    // unordered at the end sits on a cycle.
    let mut indeg = vec![0usize; num_cells];
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); num_cells];
    for (ci, cell) in nl.cells().iter().enumerate() {
        if is_source(ci) {
            continue;
        }
        for src in &cell.inputs {
            if let SignalRef::Cell(d) = src {
                indeg[ci] += 1;
                fanout[*d as usize].push(ci);
            }
        }
    }
    let mut queue: Vec<usize> = (0..num_cells).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(ci) = queue.pop() {
        seen += 1;
        for &f in &fanout[ci] {
            indeg[f] -= 1;
            if indeg[f] == 0 {
                queue.push(f);
            }
        }
    }
    if seen != num_cells {
        return Err(FlowError::invariant(
            stage,
            format!("netlist has a combinational cycle through {} cells", num_cells - seen),
        ));
    }
    Ok(())
}

/// Checks that the router produced a result covering every net: one
/// finite, non-negative wirelength entry per input net.
pub fn route_complete(num_nets: usize, route: &RouteResult) -> Result<(), FlowError> {
    report("route_complete", route_complete_inner(num_nets, route))
}

fn route_complete_inner(num_nets: usize, route: &RouteResult) -> Result<(), FlowError> {
    if route.net_wirelength.len() != num_nets {
        return Err(FlowError::invariant(
            Stage::Route,
            format!(
                "route result covers {} nets but the netlist has {num_nets}",
                route.net_wirelength.len()
            ),
        ));
    }
    for (i, wl) in route.net_wirelength.iter().enumerate() {
        if !wl.is_finite() || *wl < 0.0 {
            return Err(FlowError::invariant(
                Stage::Route,
                format!("net {i} has invalid routed wirelength {wl}"),
            ));
        }
    }
    if !route.total_wirelength.is_finite() || route.total_wirelength < 0.0 {
        return Err(FlowError::invariant(
            Stage::Route,
            format!("total routed wirelength {} is invalid", route.total_wirelength),
        ));
    }
    Ok(())
}

/// Convenience: asserts the error is an invariant failure at `stage`
/// (test helper used by this crate's own tests).
#[cfg(test)]
fn assert_invariant_at(e: &FlowError, stage: Stage) {
    assert_eq!(e.stage, stage);
    assert_eq!(e.kind, crate::error::FlowErrorKind::Invariant);
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_core::partition::{partition, PartitionScheme};
    use casyn_netlist::mapped::MappedCell;

    fn tiny_graph() -> SubjectGraph {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let y = g.add_inv(n);
        g.add_output("y", y);
        g
    }

    #[test]
    fn good_subject_graph_passes() {
        assert!(subject_dag(Stage::Decompose, &tiny_graph()).is_ok());
    }

    #[test]
    fn placement_bounds_catch_nan_and_escapees() {
        let fp = Floorplan { die_width: 10.0, die_height: 10.0, num_rows: 2 };
        let good = vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)];
        assert!(placement_in_bounds(Stage::Place, &good, &fp).is_ok());
        let nan = vec![Point::new(f64::NAN, 1.0)];
        assert_invariant_at(
            &placement_in_bounds(Stage::Place, &nan, &fp).unwrap_err(),
            Stage::Place,
        );
        let out = vec![Point::new(11.0, 1.0)];
        let e = placement_in_bounds(Stage::Legalize, &out, &fp).unwrap_err();
        assert_invariant_at(&e, Stage::Legalize);
        assert!(e.detail.contains("outside"));
    }

    #[test]
    fn partition_cover_passes_and_detects_loss() {
        let g = tiny_graph();
        let mut forest = partition(&g, PartitionScheme::Dagon, &[]);
        assert!(partition_covers(&g, &forest).is_ok());
        // Pretend the NAND (vertex 2) was never hosted.
        forest.host[2] = None;
        let e = partition_covers(&g, &forest).unwrap_err();
        assert_invariant_at(&e, Stage::Partition);
        assert!(e.detail.contains("not covered"));
    }

    #[test]
    fn mapped_netlist_catches_dangling_refs_and_cycles() {
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("a");
        let x = nl.add_cell(MappedCell {
            lib_cell: 0,
            name: "IV".into(),
            inputs: vec![a],
            area: 1.0,
            width: 1.0,
            pos: Point::default(),
            source_tree: None,
        });
        nl.add_output("y", x);
        assert!(mapped_netlist(Stage::Map, &nl).is_ok());
        // Dangling reference.
        nl.cells_mut()[0].inputs[0] = SignalRef::Cell(7);
        let e = mapped_netlist(Stage::Map, &nl).unwrap_err();
        assert_invariant_at(&e, Stage::Map);
        assert!(e.detail.contains("cell 7"));
        // Self-loop: cell 0 reads its own output.
        nl.cells_mut()[0].inputs[0] = SignalRef::Cell(0);
        let e = mapped_netlist(Stage::Map, &nl).unwrap_err();
        assert!(e.detail.contains("cycle"));
    }

    #[test]
    fn route_completeness_requires_one_length_per_net() {
        let fp = Floorplan { die_width: 40.0, die_height: 40.0, num_rows: 4 };
        let cfg = casyn_route::RouteConfig::default();
        let nets =
            vec![vec![Point::new(1.0, 1.0), Point::new(30.0, 30.0)], vec![Point::new(5.0, 5.0)]];
        let mut r = casyn_route::route_pin_sets(&nets, &fp, &cfg).unwrap();
        assert!(route_complete(2, &r).is_ok());
        assert_invariant_at(&route_complete(3, &r).unwrap_err(), Stage::Route);
        r.net_wirelength[0] = f64::NAN;
        assert!(route_complete(2, &r).unwrap_err().detail.contains("invalid"));
    }
}
