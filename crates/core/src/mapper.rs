//! The mapping driver: partition → cover → demand-driven emission.
//!
//! After covering every tree, the mapper emits library cells for exactly
//! the signals the design needs: primary outputs first, then every signal
//! referenced as a match leaf. A vertex absorbed inside another tree but
//! still required externally gets its own cover extracted from the same
//! DP table — logic duplication, as in MIS cone partitioning. Each
//! emitted cell is placed at the centre of mass of the base gates it
//! covers, realizing the paper's incremental companion-placement update.

use crate::cover::{cover_tree, CostKind, TreeCover};
use crate::matcher::MatchBuf;
use crate::partition::{partition, Forest, PartitionScheme, Tree, TreeNode};
use casyn_library::Library;
use casyn_netlist::mapped::{MappedCell, MappedNetlist, SignalRef};
use casyn_netlist::subject::{GateId, SubjectGraph};
use casyn_netlist::Point;
use casyn_obs as obs;

/// Mapping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapOptions {
    /// How the subject DAG is partitioned into trees.
    pub scheme: PartitionScheme,
    /// The covering objective.
    pub cost: CostKind,
}

impl Default for MapOptions {
    /// DAGON defaults: multi-fanout partitioning, minimum area.
    fn default() -> Self {
        MapOptions { scheme: PartitionScheme::Dagon, cost: CostKind::Area }
    }
}

/// Statistics of one mapping run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapStats {
    /// Number of subject trees.
    pub num_trees: usize,
    /// External signal demands served from covers rooted *inside* another
    /// tree (at a multi-fanout barrier node). With barrier-respecting
    /// matching these covers are shared, not duplicated; the count
    /// measures how often placement-driven absorption crossed tree
    /// boundaries.
    pub duplicated_covers: usize,
    /// Total estimated wirelength of the emitted netlist (star model over
    /// centre-of-mass positions), in micrometres.
    pub est_wirelength: f64,
}

/// The result of technology mapping.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapped, centre-of-mass-placed netlist.
    pub netlist: MappedNetlist,
    /// Run statistics.
    pub stats: MapStats,
}

/// Maps `graph` onto `lib`. `positions` is the technology-independent
/// placement (one point per subject vertex); it drives both the
/// placement-driven partitioning and the wire term of the cost function.
///
/// # Panics
///
/// Panics if `positions.len() != graph.num_vertices()`, or if the library
/// cannot cover some tree (it must contain an inverter and a NAND2).
pub fn map(
    graph: &SubjectGraph,
    positions: &[Point],
    lib: &Library,
    opts: &MapOptions,
) -> MapResult {
    assert_eq!(positions.len(), graph.num_vertices(), "one position per subject vertex");
    let forest = {
        let mut span = obs::trace::span("map.partition");
        let forest = partition(graph, opts.scheme, positions);
        span.attr_num("trees", forest.trees.len() as f64);
        forest
    };
    let fanout_counts = graph.fanout_counts();
    let covers: Vec<TreeCover> = {
        let mut span = obs::trace::span("map.cover");
        span.attr_num("trees", forest.trees.len() as f64);
        // every node of every tree enumerates its matches into this one
        let mut matches = MatchBuf::new();
        forest
            .trees
            .iter()
            .map(|t| {
                // per-tree spans only for non-trivial trees: small trees
                // dominate the count but not the time, and would swamp
                // the trace
                let mut tree_span = (t.nodes.len() >= 16).then(|| {
                    let mut s = obs::trace::span("map.cover_tree");
                    s.attr_num("nodes", t.nodes.len() as f64);
                    s
                });
                let shared = shared_nodes(t, &fanout_counts);
                let cover = cover_tree(t, lib, positions, &shared, opts.cost, &mut matches);
                tree_span.take();
                cover
            })
            .collect()
    };
    let mut emitter = Emitter {
        lib,
        forest: &forest,
        covers: &covers,
        netlist: MappedNetlist::new(),
        gate_signal: vec![None; graph.num_vertices()],
        node_signal: vec![None; graph.num_vertices()],
        duplicated: 0,
    };
    for (i, (name, gate)) in graph.inputs().iter().enumerate() {
        emitter.netlist.add_input(name.clone());
        // a primary input's signal is its (first) port
        emitter.gate_signal[gate.index()].get_or_insert(SignalRef::Pi(i as u32));
        // seed the port at the subject vertex position; a floorplan pass
        // (assign_mapped_ports) overrides this with real pad locations
        emitter.netlist.set_input_pos(i as u32, positions[gate.index()]);
    }
    for (o, (name, gate)) in graph.outputs().iter().enumerate() {
        let sig = emitter.signal_of_gate(*gate);
        emitter.netlist.add_output(name.clone(), sig);
        emitter.netlist.set_output_pos(o as u32, positions[gate.index()]);
    }
    let est_wirelength = star_wirelength(&emitter.netlist);
    if obs::enabled() {
        obs::counter_add("partition.trees", forest.trees.len() as u64);
        obs::counter_add("map.duplicated_covers", emitter.duplicated as u64);
        obs::counter_add("map.cells_emitted", emitter.netlist.num_cells() as u64);
        obs::gauge_set("map.est_wirelength", est_wirelength);
    }
    obs::log::debug(&format!(
        "map: {} trees, {} cells, {} duplicated covers, est wirelength {est_wirelength:.1}",
        forest.trees.len(),
        emitter.netlist.num_cells(),
        emitter.duplicated
    ));
    MapResult {
        stats: MapStats {
            num_trees: forest.trees.len(),
            duplicated_covers: emitter.duplicated,
            est_wirelength,
        },
        netlist: emitter.netlist,
    }
}

/// Marks the tree nodes whose signal is demanded outside any single
/// cover: internal vertices with more than one fanout (including
/// primary-output references). A match covering through one of these is
/// charged the estimated duplication cost by the covering DP.
pub(crate) fn shared_nodes(tree: &Tree, fanout_counts: &[u32]) -> Vec<bool> {
    tree.nodes
        .iter()
        .map(|n| match n {
            TreeNode::Leaf { .. } => false,
            TreeNode::Inv { gate, .. } | TreeNode::Nand { gate, .. } => {
                fanout_counts[gate.index()] > 1
            }
        })
        .collect()
}

/// Total star wirelength (driver-to-sink Manhattan) over the netlist's
/// current positions.
pub fn star_wirelength(nl: &MappedNetlist) -> f64 {
    let mut total = 0.0;
    for net in nl.nets() {
        let d = nl.signal_pos(net.driver);
        for (c, _) in &net.sinks {
            total += d.manhattan(nl.cells()[*c as usize].pos);
        }
        for o in &net.po_sinks {
            total += d.manhattan(nl.output_pos(*o));
        }
    }
    total
}

struct Emitter<'a> {
    lib: &'a Library,
    forest: &'a Forest,
    covers: &'a [TreeCover],
    netlist: MappedNetlist,
    /// Emitted signal per subject vertex (for externally required
    /// signals); primary inputs are seeded with their ports.
    gate_signal: Vec<Option<SignalRef>>,
    /// Emitted signal per internal tree node, indexed by the subject gate
    /// the node hosts (every gate is hosted by exactly one node).
    node_signal: Vec<Option<SignalRef>>,
    duplicated: usize,
}

impl Emitter<'_> {
    /// The mapped signal computing subject vertex `g`, emitting its cover
    /// on demand.
    fn signal_of_gate(&mut self, g: GateId) -> SignalRef {
        if let Some(s) = self.gate_signal[g.index()] {
            return s;
        }
        let (t, n) = self.forest.host[g.index()].expect("gate hosted in a tree");
        if n != self.forest.trees[t as usize].root() {
            // externally required but internal to another cover: the
            // duplication case
            self.duplicated += 1;
        }
        let sig = self.extract(t, n);
        self.gate_signal[g.index()] = Some(sig);
        sig
    }

    /// Emits the chosen cover rooted at tree node `(t, n)`.
    fn extract(&mut self, t: u32, n: u32) -> SignalRef {
        let tree = &self.forest.trees[t as usize];
        let gate = match &tree.nodes[n as usize] {
            TreeNode::Leaf { signal } => return self.signal_of_gate(*signal),
            TreeNode::Inv { gate, .. } | TreeNode::Nand { gate, .. } => *gate,
        };
        if let Some(s) = self.node_signal[gate.index()] {
            return s;
        }
        let sol = &self.covers[t as usize].solutions[n as usize];
        let m = sol.chosen.as_ref().expect("internal node has a match");
        let inputs: Vec<SignalRef> = m.leaves.iter().map(|&leaf| self.extract(t, leaf)).collect();
        let cell = self.lib.cell(m.cell);
        let sig = self.netlist.add_cell(MappedCell {
            lib_cell: m.cell,
            name: cell.name.clone(),
            inputs,
            area: cell.area,
            width: cell.width,
            pos: sol.pos,
            source_tree: Some(t),
        });
        self.node_signal[gate.index()] = Some(sig);
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_library::corelib018;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_positions(g: &SubjectGraph) -> Vec<Point> {
        let n = g.num_vertices();
        let cols = (n as f64).sqrt().ceil() as usize;
        (0..n).map(|i| Point::new((i % cols) as f64 * 10.0, (i / cols) as f64 * 10.0)).collect()
    }

    fn assert_mapped_equivalent(g: &SubjectGraph, nl: &MappedNetlist, lib: &Library, seed: u64) {
        let n = g.inputs().len();
        let trials: Vec<Vec<bool>> = if n <= 10 {
            (0..(1u64 << n)).map(|m| (0..n).map(|i| m >> i & 1 == 1).collect()).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200).map(|_| (0..n).map(|_| rng.gen()).collect()).collect()
        };
        for asg in trials {
            assert_eq!(
                g.simulate_outputs(&asg),
                nl.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg),
                "mismatch at {asg:?}"
            );
        }
    }

    fn and_or_circuit() -> SubjectGraph {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let ab = g.add_and2(a, b);
        let cd = g.add_and2(c, d);
        let o = g.add_or2(ab, cd);
        g.add_output("o", o);
        g
    }

    #[test]
    fn min_area_mapping_is_equivalent() {
        let g = and_or_circuit();
        let lib = corelib018();
        let pos = grid_positions(&g);
        let r = map(&g, &pos, &lib, &MapOptions::default());
        assert_mapped_equivalent(&g, &r.netlist, &lib, 1);
        assert!(r.netlist.num_cells() >= 1);
        assert!(r.netlist.cell_area() > 0.0);
    }

    #[test]
    fn all_schemes_and_costs_are_equivalent() {
        let g = and_or_circuit();
        let lib = corelib018();
        let pos = grid_positions(&g);
        for scheme in
            [PartitionScheme::Dagon, PartitionScheme::Cone, PartitionScheme::PlacementDriven]
        {
            for cost in
                [CostKind::Area, CostKind::AreaWire { k: 0.001 }, CostKind::AreaWire { k: 1.0 }]
            {
                let r = map(&g, &pos, &lib, &MapOptions { scheme, cost });
                assert_mapped_equivalent(&g, &r.netlist, &lib, 2);
            }
        }
    }

    #[test]
    fn multifanout_shared_gate_is_emitted_once_in_dagon() {
        // y1 = !(ab), y2 = !!(ab): nand shared by both outputs
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i = g.add_inv(n);
        g.add_output("y1", n);
        g.add_output("y2", i);
        let lib = corelib018();
        let pos = grid_positions(&g);
        let r = map(&g, &pos, &lib, &MapOptions::default());
        assert_mapped_equivalent(&g, &r.netlist, &lib, 3);
        // DAGON: nand is a tree root, emitted once: 1 ND2 + 1 IV
        assert_eq!(r.netlist.num_cells(), 2);
        assert_eq!(r.stats.duplicated_covers, 0);
    }

    #[test]
    fn placement_driven_duplicates_absorbed_logic_when_needed() {
        // n = nand(a,b) has two fanouts placed far apart; PDP absorbs it
        // into the nearest one and must duplicate for the other — unless
        // the cover happens to leave the signal visible.
        let mut g = SubjectGraph::without_hashing();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i1 = g.add_inv(n);
        let i2 = g.add_inv(n);
        g.add_output("o1", i1);
        g.add_output("o2", i2);
        let lib = corelib018();
        let mut pos = vec![Point::default(); g.num_vertices()];
        pos[a.index()] = Point::new(0.0, 0.0);
        pos[b.index()] = Point::new(0.0, 8.0);
        pos[n.index()] = Point::new(4.0, 4.0);
        pos[i1.index()] = Point::new(6.0, 4.0); // nearest
        pos[i2.index()] = Point::new(400.0, 4.0);
        let r = map(
            &g,
            &pos,
            &lib,
            &MapOptions { scheme: PartitionScheme::PlacementDriven, cost: CostKind::Area },
        );
        assert_mapped_equivalent(&g, &r.netlist, &lib, 4);
        // i1's tree contains n internally: min-area cover of inv(nand) is
        // AN2, hiding n — so o2's need for n forces a duplicate cover
        assert!(r.stats.duplicated_covers >= 1);
    }

    #[test]
    fn cells_get_center_of_mass_positions() {
        let g = and_or_circuit();
        let lib = corelib018();
        let pos = grid_positions(&g);
        let r = map(&g, &pos, &lib, &MapOptions::default());
        // every cell position must be inside the bounding box of the
        // placed subject gates
        let (mut maxx, mut maxy) = (0.0f64, 0.0f64);
        for p in &pos {
            maxx = maxx.max(p.x);
            maxy = maxy.max(p.y);
        }
        for c in r.netlist.cells() {
            assert!(c.pos.x >= 0.0 && c.pos.x <= maxx);
            assert!(c.pos.y >= 0.0 && c.pos.y <= maxy);
        }
    }

    /// With a strong wire term, the mapper may cover *through* a shared
    /// vertex and duplicate it (the paper's area-for-congestion trade);
    /// at K = 0 the same circuit maps without duplication.
    #[test]
    fn wire_term_can_buy_duplication() {
        // shared AND feeding two far-apart inverting consumers
        let mut g = SubjectGraph::without_hashing();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i1 = g.add_inv(n);
        let i2 = g.add_inv(n);
        g.add_output("o1", i1);
        g.add_output("o2", i2);
        let lib = corelib018();
        let mut pos = vec![Point::default(); g.num_vertices()];
        pos[a.index()] = Point::new(0.0, 0.0);
        pos[b.index()] = Point::new(0.0, 10.0);
        pos[n.index()] = Point::new(5.0, 5.0);
        pos[i1.index()] = Point::new(10.0, 5.0);
        pos[i2.index()] = Point::new(500.0, 5.0);
        let k0 = map(
            &g,
            &pos,
            &lib,
            &MapOptions { scheme: PartitionScheme::PlacementDriven, cost: CostKind::Area },
        );
        let kbig = map(
            &g,
            &pos,
            &lib,
            &MapOptions {
                scheme: PartitionScheme::PlacementDriven,
                cost: CostKind::AreaWire { k: 50.0 },
            },
        );
        assert_mapped_equivalent(&g, &k0.netlist, &lib, 11);
        assert_mapped_equivalent(&g, &kbig.netlist, &lib, 12);
        // K=0 never duplicates: ND2 + 2 IV (3 cells)
        assert_eq!(k0.netlist.num_cells(), 3);
        // the high-K mapping is allowed to duplicate; area must be >= K0
        assert!(kbig.netlist.cell_area() >= k0.netlist.cell_area());
    }

    #[test]
    fn dead_logic_is_not_emitted() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let dead = g.add_nand2(a, b);
        let _deader = g.add_inv(dead);
        let live = g.add_inv(a);
        g.add_output("o", live);
        let lib = corelib018();
        let pos = grid_positions(&g);
        let r = map(&g, &pos, &lib, &MapOptions::default());
        assert_eq!(r.netlist.num_cells(), 1);
        assert_eq!(lib.cell(r.netlist.cells()[0].lib_cell).name, "IV");
    }

    #[test]
    fn po_driven_by_pi_maps_directly() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        g.add_output("o", a);
        let lib = corelib018();
        let pos = grid_positions(&g);
        let r = map(&g, &pos, &lib, &MapOptions::default());
        assert_eq!(r.netlist.num_cells(), 0);
        assert_eq!(r.netlist.outputs()[0].1, SignalRef::Pi(0));
    }

    #[test]
    fn larger_random_circuit_all_schemes() {
        use casyn_logic::decompose;
        use casyn_netlist::bench::{random_pla, PlaGenConfig};
        let pla = random_pla(&PlaGenConfig {
            inputs: 8,
            outputs: 4,
            terms: 16,
            min_literals: 2,
            max_literals: 5,
            mean_outputs_per_term: 1.4,
            seed: 77,
        });
        let net = pla.to_network();
        let dec = decompose(&net);
        let lib = corelib018();
        let pos = grid_positions(&dec.graph);
        for scheme in
            [PartitionScheme::Dagon, PartitionScheme::Cone, PartitionScheme::PlacementDriven]
        {
            let r = map(
                &dec.graph,
                &pos,
                &lib,
                &MapOptions { scheme, cost: CostKind::AreaWire { k: 0.01 } },
            );
            assert_mapped_equivalent(&dec.graph, &r.netlist, &lib, 5);
        }
    }
}
