//! **Table 5** of the paper: PDC static timing analysis (see `table3` for
//! the SPLA variant and the experimental setup).
//!
//! Run: `cargo run --release -p casyn-bench --bin table5`

use casyn_bench::*;

fn main() {
    let mut exp = pdc_experiment();
    let (_, scale) = supply_edge(&exp, 1.0, 2.5, 8.0, 8);
    exp.opts.route.capacity_scale = scale;
    println!("PDC STA at capacity scale {scale:.3}");
    print_sta_table(&exp, "Table 5. PDC static timing analysis results");
}
