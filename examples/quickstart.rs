//! Quickstart: build a tiny circuit, map it for minimum area and with the
//! congestion-aware cost, and print both gate-level netlists.
//!
//! Run with: `cargo run --example quickstart`

use casyn::core::{map, CostKind, MapOptions, PartitionScheme};
use casyn::library::corelib018;
use casyn::netlist::subject::SubjectGraph;
use casyn::netlist::Point;

fn main() {
    // y = (a & b) | c, z = !(a & b) — the NAND (a & b) has two fanouts.
    let mut g = SubjectGraph::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let nab = g.add_nand2(a, b);
    let ic = g.add_inv(c);
    let n2 = g.add_nand2(nab, ic);
    g.add_output("y", n2); // ab + c
    g.add_output("z", nab); // !(ab)
    println!("subject graph: {} base gates, depth {}", g.num_gates(), g.depth());

    // a hand placement: a, b cluster bottom-left; c sits far right
    let mut pos = vec![Point::default(); g.num_vertices()];
    pos[a.index()] = Point::new(0.0, 0.0);
    pos[b.index()] = Point::new(0.0, 12.8);
    pos[c.index()] = Point::new(160.0, 6.4);
    pos[nab.index()] = Point::new(6.4, 6.4);
    pos[ic.index()] = Point::new(153.6, 6.4);
    pos[n2.index()] = Point::new(80.0, 6.4);

    let lib = corelib018();
    let min_area = map(&g, &pos, &lib, &MapOptions::default());
    println!("\n== minimum-area mapping (DAGON) ==");
    println!(
        "area {:.3} um^2, est. wirelength {:.1} um",
        min_area.netlist.cell_area(),
        min_area.stats.est_wirelength
    );
    print!("{}", min_area.netlist);

    let congestion = map(
        &g,
        &pos,
        &lib,
        &MapOptions {
            scheme: PartitionScheme::PlacementDriven,
            cost: CostKind::AreaWire { k: 2.0 },
        },
    );
    println!("\n== congestion-aware mapping (K = 2.0) ==");
    println!(
        "area {:.3} um^2, est. wirelength {:.1} um",
        congestion.netlist.cell_area(),
        congestion.stats.est_wirelength
    );
    print!("{}", congestion.netlist);

    // both netlists implement the same functions
    for m in 0..8u32 {
        let asg = [m & 1 == 1, m & 2 == 2, m & 4 == 4];
        let want = g.simulate_outputs(&asg);
        let got_a = min_area.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg);
        let got_b = congestion.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg);
        assert_eq!(want, got_a);
        assert_eq!(want, got_b);
    }
    println!("\nfunctional equivalence verified on all 8 input patterns.");
}
