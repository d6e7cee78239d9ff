//! Compare every partitioning scheme × cost function on one design:
//! cell count, area, estimated wirelength, tree statistics.
//!
//! Run with: `cargo run --release --example mapping_explorer`

use casyn::core::{map, CostKind, MapOptions, PartitionScheme};
use casyn::flow::FlowOptions;
use casyn::library::corelib018;
use casyn::logic::decompose;
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::place::{place_subject, Floorplan};

fn main() {
    let pla = random_pla(&PlaGenConfig {
        inputs: 12,
        outputs: 8,
        terms: 160,
        min_literals: 3,
        max_literals: 7,
        mean_outputs_per_term: 1.4,
        seed: 9,
    });
    let network = pla.to_network();
    let dec = decompose(&network);
    let (graph, _) = dec.graph.sweep();
    let lib = corelib018();
    let fp = Floorplan::with_area(graph.num_gates() as f64 * 12.0 / 0.6, 1.0);
    let opts = FlowOptions::default();
    let positions = place_subject(&graph, &fp, &opts.placer).expect("placement failed");
    println!(
        "design: {} base gates, {} inputs, {} outputs; die {:.0} um^2\n",
        graph.num_gates(),
        graph.inputs().len(),
        graph.outputs().len(),
        fp.die_area()
    );
    println!(
        "{:<18} {:<16} {:>7} {:>12} {:>10} {:>8} {:>8}",
        "partitioning", "cost", "cells", "area (um2)", "est. WL", "trees", "shared"
    );
    for (sname, scheme) in [
        ("dagon", PartitionScheme::Dagon),
        ("cone", PartitionScheme::Cone),
        ("placement-driven", PartitionScheme::PlacementDriven),
    ] {
        for (cname, cost) in [
            ("area", CostKind::Area),
            ("area+0.01*wire", CostKind::AreaWire { k: 0.01 }),
            ("area+1.0*wire", CostKind::AreaWire { k: 1.0 }),
        ] {
            let r = map(&graph, &positions, &lib, &MapOptions { scheme, cost });
            println!(
                "{:<18} {:<16} {:>7} {:>12.1} {:>10.0} {:>8} {:>8}",
                sname,
                cname,
                r.netlist.num_cells(),
                r.netlist.cell_area(),
                r.stats.est_wirelength,
                r.stats.num_trees,
                r.stats.duplicated_covers
            );
        }
    }
    println!("\ncell mix of the placement-driven area+wire mapping:");
    let r = map(
        &graph,
        &positions,
        &lib,
        &MapOptions {
            scheme: PartitionScheme::PlacementDriven,
            cost: CostKind::AreaWire { k: 0.01 },
        },
    );
    let mut hist: Vec<(&str, usize)> = r.netlist.cell_histogram().into_iter().collect();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, count) in hist {
        println!("  {name:<6} x{count}");
    }
}
