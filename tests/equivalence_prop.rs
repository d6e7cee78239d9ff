//! Property-based tests: for random PLAs and random multi-level networks,
//! the whole synthesis pipeline is a semantics-preserving transformation,
//! and structural invariants of its intermediate artifacts hold.

use casyn::core::{map, partition, CostKind, MapOptions, PartitionScheme, TreeNode};
use casyn::library::corelib018;
use casyn::logic::{decompose, optimize, OptimizeOptions};
use casyn::netlist::bench::{random_network, random_pla, NetGenConfig, PlaGenConfig};
use casyn::netlist::subject::BaseKind;
use casyn::netlist::Point;
use proptest::prelude::*;

fn pla_strategy() -> impl Strategy<Value = PlaGenConfig> {
    (2usize..7, 1usize..5, 4usize..24, 1u64..1000).prop_map(|(inputs, outputs, terms, seed)| {
        PlaGenConfig {
            inputs,
            outputs,
            terms,
            min_literals: 1,
            max_literals: inputs.min(4),
            mean_outputs_per_term: 1.3,
            seed,
        }
    })
}

fn net_strategy() -> impl Strategy<Value = NetGenConfig> {
    (2usize..7, 1usize..5, 4usize..32, 1u64..1000).prop_map(|(inputs, outputs, nodes, seed)| {
        NetGenConfig {
            inputs,
            outputs,
            nodes,
            max_fanins: 3,
            max_cubes: 3,
            locality_window: 8,
            seed,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PLA → network → decomposition preserves the function exhaustively.
    #[test]
    fn decomposition_preserves_pla_function(cfg in pla_strategy()) {
        let pla = random_pla(&cfg);
        let net = pla.to_network();
        let dec = decompose(&net);
        for m in 0..(1u32 << cfg.inputs) {
            let asg: Vec<bool> = (0..cfg.inputs).map(|i| m >> i & 1 == 1).collect();
            prop_assert_eq!(pla.eval(&asg), dec.graph.simulate_outputs(&asg));
        }
    }

    /// Extraction preserves the function of multi-level networks.
    #[test]
    fn extraction_preserves_function(cfg in net_strategy()) {
        let golden = random_network(&cfg);
        let mut net = golden.clone();
        optimize(&mut net, &OptimizeOptions::default());
        prop_assert!(net.literal_count() <= golden.literal_count());
        for m in 0..(1u32 << cfg.inputs) {
            let asg: Vec<bool> = (0..cfg.inputs).map(|i| m >> i & 1 == 1).collect();
            prop_assert_eq!(golden.simulate_outputs(&asg), net.simulate_outputs(&asg));
        }
    }

    /// Mapping with any scheme/cost is exhaustively equivalent to the
    /// subject graph.
    #[test]
    fn mapping_preserves_function(
        cfg in pla_strategy(),
        scheme_idx in 0usize..3,
        k in prop::sample::select(vec![0.0, 0.001, 0.1, 5.0]),
    ) {
        let pla = random_pla(&cfg);
        let dec = decompose(&pla.to_network());
        let (graph, _) = dec.graph.sweep();
        let lib = corelib018();
        let n = graph.num_vertices();
        let positions: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 10) as f64 * 5.0, (i / 10) as f64 * 6.4))
            .collect();
        let scheme = [
            PartitionScheme::Dagon,
            PartitionScheme::Cone,
            PartitionScheme::PlacementDriven,
        ][scheme_idx];
        let r = map(&graph, &positions, &lib, &MapOptions { scheme, cost: CostKind::AreaWire { k } });
        for m in 0..(1u32 << cfg.inputs) {
            let asg: Vec<bool> = (0..cfg.inputs).map(|i| m >> i & 1 == 1).collect();
            prop_assert_eq!(
                graph.simulate_outputs(&asg),
                r.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg)
            );
        }
    }

    /// Partitioning invariants: every non-input vertex is hosted by
    /// exactly one internal tree node; leaves reference real vertices;
    /// fathers are actual fanouts.
    #[test]
    fn partition_forms_a_covering_forest(
        cfg in pla_strategy(),
        scheme_idx in 0usize..3,
    ) {
        let pla = random_pla(&cfg);
        let dec = decompose(&pla.to_network());
        let (graph, _) = dec.graph.sweep();
        let n = graph.num_vertices();
        let positions: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 7 % 50) as f64, (i * 13 % 50) as f64))
            .collect();
        let scheme = [
            PartitionScheme::Dagon,
            PartitionScheme::Cone,
            PartitionScheme::PlacementDriven,
        ][scheme_idx];
        let forest = partition(&graph, scheme, &positions);
        let fanouts = graph.fanout_lists();
        let mut hosted = 0usize;
        for id in graph.ids() {
            match graph.kind(id) {
                BaseKind::Input => prop_assert!(forest.host[id.index()].is_none()),
                _ => {
                    let (t, nidx) = forest.host[id.index()].expect("hosted");
                    let node = &forest.trees[t as usize].nodes[nidx as usize];
                    match node {
                        TreeNode::Inv { gate, .. } | TreeNode::Nand { gate, .. } => {
                            prop_assert_eq!(*gate, id);
                        }
                        TreeNode::Leaf { .. } => prop_assert!(false, "host must be internal"),
                    }
                    hosted += 1;
                    if let Some(f) = forest.father[id.index()] {
                        prop_assert!(
                            fanouts[id.index()].contains(&f),
                            "father must be a fanout"
                        );
                    }
                }
            }
        }
        prop_assert_eq!(hosted, graph.num_gates());
        // every leaf references an existing vertex
        for tree in &forest.trees {
            for node in &tree.nodes {
                if let TreeNode::Leaf { signal } = node {
                    prop_assert!(signal.index() < n);
                }
            }
        }
    }

    /// Sweep keeps only live logic and preserves outputs.
    #[test]
    fn sweep_preserves_function(cfg in pla_strategy()) {
        let pla = random_pla(&cfg);
        let dec = decompose(&pla.to_network());
        let (clean, _) = dec.graph.sweep();
        prop_assert!(clean.num_gates() <= dec.graph.num_gates());
        for m in 0..(1u32 << cfg.inputs) {
            let asg: Vec<bool> = (0..cfg.inputs).map(|i| m >> i & 1 == 1).collect();
            prop_assert_eq!(dec.graph.simulate_outputs(&asg), clean.simulate_outputs(&asg));
        }
    }
}
