//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. partitioning scheme (DAGON / cone / placement-driven) at a fixed
//!    in-window K;
//! 2. seeded legalization vs. from-scratch re-placement of the mapped
//!    netlist;
//! 3. duplication pricing: the congestion-aware cover with and without
//!    the ability to duplicate shared logic (K = 0 forbids it by
//!    definition, so the comparison runs at the window K).
//!
//! Run: `cargo run --release -p casyn-bench --bin ablation`

use casyn_bench::*;
use casyn_core::{CostKind, MapOptions, PartitionScheme};
use casyn_flow::{full_flow, map_at, route_at, FlowResult};
use casyn_place::instance::from_mapped;
use casyn_place::{legalize_rows, place};

fn main() {
    let mut exp = spla_experiment();
    let (_, scale) = supply_edge(&exp, 0.2, 2.5, 8.0, 8);
    exp.opts.route.capacity_scale = scale;
    println!("SPLA ablations at capacity scale {scale:.3}\n");
    let at = |scheme, k| MapOptions { scheme, cost: CostKind::AreaWire { k } };
    let flow = |scheme, k| full_flow(&exp.prep, &at(scheme, k), &exp.opts).expect("flow failed");
    // the placement-driven K = 0.2 flow is the row all three sections share
    let window = flow(PartitionScheme::PlacementDriven, 0.2);

    println!("1. partitioning scheme at K = 0.2 (cost fixed to area+K*wire):");
    let dagon = flow(PartitionScheme::Dagon, 0.2);
    let cone = flow(PartitionScheme::Cone, 0.2);
    for (name, r) in [("dagon", &dagon), ("cone", &cone), ("placement-driven", &window)] {
        println!(
            "   {name:<18} cells {:>5}  area {:>7.0}  wl {:>8.0}  violations {:>5}",
            r.num_cells, r.cell_area, r.route.total_wirelength, r.route.violations
        );
    }

    println!("\n2. seeded legalization vs from-scratch re-placement (K = 0.2):");
    println!(
        "   seeded (paper-style incremental) wl {:>8.0}  violations {:>5}",
        window.route.total_wirelength, window.route.violations
    );
    let mut replaced = map_at(&exp.prep, &at(PartitionScheme::PlacementDriven, 0.2), &exp.opts)
        .expect("map failed");
    let nl = &mut replaced.netlist;
    let fresh = place(&from_mapped(nl), &replaced.floorplan, &exp.opts.placer);
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let legal = legalize_rows(&fresh, &widths, &replaced.floorplan);
    for (c, p) in nl.cells_mut().iter_mut().zip(&legal.pos) {
        c.pos = *p;
    }
    let rr = route_at(replaced, &exp.opts).expect("route failed").route;
    println!(
        "   from-scratch re-placement        wl {:>8.0}  violations {:>5}",
        rr.total_wirelength, rr.violations
    );

    println!("\n3. duplication: K = 0 (forbidden) vs window K (priced, allowed):");
    let k0 = flow(PartitionScheme::PlacementDriven, 0.0);
    let row = |name: &str, r: &FlowResult| {
        println!(
            "   {name:<5} cells {:>5}  area {:>7.0}  wl {:>8.0}  violations {:>5}",
            r.num_cells, r.cell_area, r.route.total_wirelength, r.route.violations
        )
    };
    row("K=0", &k0);
    row("K=0.2", &window);
    println!(
        "   K=0.2 vs K=0: area {:+.1}% (the price of wire-driven duplication), wl {:+.1}%",
        100.0 * (window.cell_area / k0.cell_area - 1.0),
        100.0 * (window.route.total_wirelength / k0.route.total_wirelength - 1.0)
    );
}
