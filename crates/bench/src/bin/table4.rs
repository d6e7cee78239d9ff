//! **Table 4** of the paper: PDC congestion minimization vs. place&route
//! results — the K sweep over a fixed die (74 rows, 229786 µm² in the
//! paper; ours is scaled to the synthetic PDC's cell area at the same
//! 55.9% K = 0 utilization).
//!
//! Run: `cargo run --release -p casyn-bench --bin table4`

use casyn_bench::*;

fn main() {
    let mut exp = pdc_experiment();
    println!(
        "PDC: {} base gates (paper: 23058); die {:.0} um2, {} rows, 3 metal layers",
        exp.prep.base_gates,
        exp.prep.floorplan.die_area(),
        exp.prep.floorplan.num_rows
    );
    let (_, scale) = supply_edge(&exp, 1.0, 2.5, 8.0, 8);
    exp.opts.route.capacity_scale = scale;
    println!("routing supply calibrated to the edge: capacity scale {scale:.3}\n");
    print_k_sweep_table(&exp, "Table 4. PDC congestion minimization vs place&route results");
    print_frontier(&exp, 2.5, 8.0, 9);
}
