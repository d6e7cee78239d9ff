//! The paper's Fig. 3 methodology: generate the technology-independent
//! netlist and its placement once, then increase the congestion
//! minimization factor K until the congestion map is acceptable.
//!
//! Run with: `cargo run --release --example methodology`

use casyn::flow::{prepare, run_methodology, FlowOptions};
use casyn::netlist::bench::{random_pla, PlaGenConfig};

fn main() {
    let pla = random_pla(&PlaGenConfig {
        inputs: 12,
        outputs: 10,
        terms: 220,
        min_literals: 3,
        max_literals: 7,
        mean_outputs_per_term: 1.4,
        seed: 71,
    });
    let opts = FlowOptions::default();
    // the technology-independent netlist and its placement, generated once
    let prep = prepare(&pla.to_network(), &opts).expect("prepare failed");
    // the K schedule of the paper's tables, starting at 0
    let schedule = [0.0, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01];
    // acceptance: no gcell above 98% of its track capacity
    let out = run_methodology(&prep, &schedule, 0.98, &opts).expect("methodology failed");
    println!("Fig. 3 design-flow loop:");
    for step in &out.steps {
        println!(
            "  K = {:<8} peak congestion {:>5.1}%  violations {:>6}  {}",
            step.k,
            100.0 * step.max_util,
            step.violations,
            if step.accepted { "ACCEPT -> place & route" } else { "increase K" }
        );
    }
    if out.converged {
        let r = &out.result;
        println!(
            "\nconverged: {} cells, {:.0} um^2 ({:.1}% utilization), {} violations",
            r.num_cells, r.cell_area, r.utilization_pct, r.route.violations
        );
        println!(
            "critical path {} at {:.2} ns",
            r.sta.critical_endpoints(),
            r.sta.critical_arrival()
        );
    } else {
        println!("\ndid not converge: relax the floorplan (add rows) or resynthesize,");
        println!("as the paper prescribes when increasing K stops helping.");
    }
}
