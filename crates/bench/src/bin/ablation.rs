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
use casyn_core::{map, CostKind, MapOptions, PartitionScheme};
use casyn_flow::congestion_flow_prepared;
use casyn_place::instance::{assign_mapped_ports, from_mapped};
use casyn_place::{legalize_rows, place};
use casyn_route::route_mapped;

fn main() {
    let mut exp = spla_experiment();
    let scale = calibrate_scale(&mut exp, 0.2, 2.5, 8.0);
    println!("SPLA ablations at capacity scale {scale:.3}\n");

    println!("1. partitioning scheme at K = 0.2 (cost fixed to area+K*wire):");
    for (name, scheme) in [
        ("dagon", PartitionScheme::Dagon),
        ("cone", PartitionScheme::Cone),
        ("placement-driven", PartitionScheme::PlacementDriven),
    ] {
        let r = casyn_flow::full_flow(
            &exp.prep,
            &MapOptions { scheme, cost: CostKind::AreaWire { k: 0.2 } },
            &exp.opts,
        )
        .expect("flow failed");
        println!(
            "   {name:<18} cells {:>5}  area {:>7.0}  wl {:>8.0}  violations {:>5}",
            r.num_cells, r.cell_area, r.route.total_wirelength, r.route.violations
        );
    }

    println!("\n2. seeded legalization vs from-scratch re-placement (K = 0.2):");
    let seeded = congestion_flow_prepared(&exp.prep, 0.2, &exp.opts).expect("flow failed");
    println!(
        "   seeded (paper-style incremental) wl {:>8.0}  violations {:>5}",
        seeded.route.total_wirelength, seeded.route.violations
    );
    {
        let r = map(
            &exp.prep.graph,
            &exp.prep.positions,
            &exp.opts.lib,
            &MapOptions {
                scheme: PartitionScheme::PlacementDriven,
                cost: CostKind::AreaWire { k: 0.2 },
            },
        );
        let mut nl = r.netlist;
        assign_mapped_ports(&mut nl, &exp.prep.floorplan);
        let inst = from_mapped(&nl);
        let fresh = place(&inst, &exp.prep.floorplan, &exp.opts.placer);
        let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
        let legal = legalize_rows(&fresh, &widths, &exp.prep.floorplan);
        for (c, p) in nl.cells_mut().iter_mut().zip(&legal.pos) {
            c.pos = *p;
        }
        let rr = route_mapped(&nl, &exp.prep.floorplan, &exp.opts.route).expect("route failed");
        println!(
            "   from-scratch re-placement        wl {:>8.0}  violations {:>5}",
            rr.total_wirelength, rr.violations
        );
    }

    println!("\n3. duplication: K = 0 (forbidden) vs window K (priced, allowed):");
    let k0 = congestion_flow_prepared(&exp.prep, 0.0, &exp.opts).expect("flow failed");
    let kw = congestion_flow_prepared(&exp.prep, 0.2, &exp.opts).expect("flow failed");
    println!(
        "   K=0   cells {:>5}  area {:>7.0}  wl {:>8.0}  violations {:>5}",
        k0.num_cells, k0.cell_area, k0.route.total_wirelength, k0.route.violations
    );
    println!(
        "   K=0.2 cells {:>5}  area {:>7.0}  wl {:>8.0}  violations {:>5}",
        kw.num_cells, kw.cell_area, kw.route.total_wirelength, kw.route.violations
    );
    println!(
        "   K=0.2 vs K=0: area {:+.1}% (the price of wire-driven duplication), wl {:+.1}%",
        100.0 * (kw.cell_area / k0.cell_area - 1.0),
        100.0 * (kw.route.total_wirelength / k0.route.total_wirelength - 1.0)
    );
}
