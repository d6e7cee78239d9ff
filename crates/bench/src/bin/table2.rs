//! **Table 2** of the paper: SPLA congestion minimization vs.
//! place&route results — the K sweep over a fixed die.
//!
//! The die is sized so the K = 0 (minimum-area) netlist sits at the
//! paper's 61.1% utilization, and the routing supply is calibrated to the
//! routability edge (the paper's die/metal budget plays the same role).
//!
//! Run: `cargo run --release -p casyn-bench --bin table2`

use casyn_bench::*;

fn main() {
    let mut exp = spla_experiment();
    println!(
        "SPLA: {} base gates (paper: 22834); die {:.0} um2, {} rows, 3 metal layers",
        exp.prep.base_gates,
        exp.prep.floorplan.die_area(),
        exp.prep.floorplan.num_rows
    );
    let (scale, _) = supply_edge(&exp, 0.0, 2.5, 8.0, 9);
    exp.opts.route.capacity_scale = scale;
    println!("routing supply calibrated to the edge: capacity scale {scale:.3}\n");
    print_k_sweep_table(&exp, "Table 2. SPLA congestion minimization vs place&route results");
    print_frontier(&exp, 2.5, 8.0, 9);
}
