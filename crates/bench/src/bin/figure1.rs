//! **Figure 1** of the paper: minimum-area vs. congestion-aware mapping
//! of one small unbound netlist whose fanin gates sit far from their
//! fanout on the layout image.
//!
//! The paper's instance (on ST's CORELIB8DHS) maps to `ND3 + AOI21 + 2×IV
//! = 53.248 µm²` for minimum area and `2×OR2 + 2×ND2 + IV = 65.536 µm²`
//! for the congestion mapping. Our library is a synthetic stand-in, so
//! the minimum-area cover differs in cell mix (it finds an OAI22), but
//! the figure's *message* reproduces exactly: the congestion-aware cover
//! pays cell area — landing on the very `2×OR2 + 2×ND2 + IV = 65.536 µm²`
//! solution of the paper — to keep every fanin next to its fanout,
//! cutting the estimated wirelength.
//!
//! Run: `cargo run --release -p casyn-bench --bin figure1`

use casyn_core::{map, CostKind, MapOptions, PartitionScheme};
use casyn_library::corelib018;
use casyn_netlist::subject::SubjectGraph;
use casyn_netlist::Point;

fn main() {
    // unbound netlist: y = !( (a+b) · (c+d) · e )
    // subject: two OR structures (nand of inverters), an AND join, and a
    // final NAND with e
    let mut g = SubjectGraph::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let d = g.add_input("d");
    let e = g.add_input("e");
    let ia = g.add_inv(a);
    let ib = g.add_inv(b);
    let or_ab = g.add_nand2(ia, ib); // a + b
    let ic = g.add_inv(c);
    let id = g.add_inv(d);
    let or_cd = g.add_nand2(ic, id); // c + d
    let n = g.add_nand2(or_ab, or_cd); // !( (a+b)(c+d) )
    let w = g.add_inv(n); // (a+b)(c+d)
    let y = g.add_nand2(w, e); // !( (a+b)(c+d)e )
    g.add_output("y", y);

    // the figure's geometry: the a/b pair in the lower-left corner, the
    // c/d pair in the upper-right, e in between — so the minimum-area
    // cover's big cell must centre itself far from half its fanins
    let mut pos = vec![Point::default(); g.num_vertices()];
    let place = |pos: &mut Vec<Point>, id: casyn_netlist::subject::GateId, x: f64, y: f64| {
        pos[id.index()] = Point::new(x, y)
    };
    place(&mut pos, a, 0.0, 0.0);
    place(&mut pos, b, 0.0, 12.8);
    place(&mut pos, ia, 6.4, 3.2);
    place(&mut pos, ib, 6.4, 9.6);
    place(&mut pos, or_ab, 12.8, 6.4);
    place(&mut pos, c, 192.0, 115.2);
    place(&mut pos, d, 192.0, 128.0);
    place(&mut pos, ic, 185.6, 118.4);
    place(&mut pos, id, 185.6, 124.8);
    place(&mut pos, or_cd, 179.2, 121.6);
    place(&mut pos, n, 96.0, 64.0);
    place(&mut pos, w, 102.4, 64.0);
    place(&mut pos, e, 96.0, 6.4);
    place(&mut pos, y, 108.8, 57.6);

    let lib = corelib018();
    println!("Figure 1 — minimum area vs. congestion mapping");
    println!("(paper, CORELIB8DHS: 53.248 um^2 min-area vs 65.536 um^2 congestion)\n");
    let report = |tag: &str, r: &casyn_core::MapResult| {
        let mut mix: Vec<(&str, usize)> = r.netlist.cell_histogram().into_iter().collect();
        mix.sort();
        let mix: Vec<String> = mix.iter().map(|(n, c)| format!("{c}x{n}")).collect();
        println!(
            "{tag}: area {:>7.3} um^2, est. wirelength {:>7.1} um, cells: {}",
            r.netlist.cell_area(),
            r.stats.est_wirelength,
            mix.join(" + ")
        );
    };
    let min_area = map(&g, &pos, &lib, &MapOptions::default());
    report("1. minimum area mapping      ", &min_area);
    let congestion = map(
        &g,
        &pos,
        &lib,
        &MapOptions {
            scheme: PartitionScheme::PlacementDriven,
            cost: CostKind::AreaWire { k: 0.5 },
        },
    );
    report("2. congestion minimization   ", &congestion);
    assert!(
        congestion.netlist.cell_area() > min_area.netlist.cell_area(),
        "the congestion mapping must pay area"
    );
    assert!(
        congestion.stats.est_wirelength < min_area.stats.est_wirelength,
        "the congestion mapping must cut wirelength"
    );
    // functional equivalence of both mappings
    for m in 0..32u32 {
        let asg: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
        let want = g.simulate_outputs(&asg);
        assert_eq!(want, min_area.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg));
        assert_eq!(
            want,
            congestion.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg)
        );
    }
    println!("\nequivalence verified; congestion mapping trades area for wirelength,");
    println!("reproducing the Figure 1 trade-off.");
}
