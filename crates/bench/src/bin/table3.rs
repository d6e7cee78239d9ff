//! **Table 3** of the paper: SPLA static timing analysis — critical-path
//! arrival of the K = 0 (DAGON), in-window congestion-aware, and SIS
//! netlists, each routed in the smallest floorplan that accepts it.
//!
//! Paper: the congestion-aware netlist routes in fewer rows *and* has the
//! earliest critical path; SIS is worst on both.
//!
//! Run: `cargo run --release -p casyn-bench --bin table3`

use casyn_bench::*;

fn main() {
    let mut exp = spla_experiment();
    let (scale, _) = supply_edge(&exp, 0.0, 2.5, 8.0, 9);
    exp.opts.route.capacity_scale = scale;
    println!("SPLA STA at capacity scale {scale:.3}");
    print_sta_table(&exp, "Table 3. SPLA static timing analysis results");
}
