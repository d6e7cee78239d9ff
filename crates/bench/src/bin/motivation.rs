//! The paper's Section 2 motivation: wireload models mispredict net
//! lengths and delays badly once wiring dominates — "the inherent
//! wireload model inaccuracy can have a strong impact on predicting the
//! lengths and delays of local nets" (Gopalakrishnan et al., cited by the
//! paper).
//!
//! This experiment maps SPLA, places and routes it, then compares (a) a
//! generic fanout-based wireload model and (b) a wireload model
//! *calibrated on this very design* against the placed-and-routed STA.
//!
//! Run: `cargo run --release -p casyn-bench --bin motivation`

use casyn_bench::*;
use casyn_flow::congestion_flow_prepared;
use casyn_timing::{analyze_wireload, wireload_error, WireloadModel};

fn main() {
    let mut exp = spla_experiment();
    let (_, scale) = supply_edge(&exp, 0.1, 2.5, 8.0, 8);
    exp.opts.route.capacity_scale = scale;
    println!("SPLA mapped, placed and routed (capacity scale {scale:.3})\n");
    let flow = congestion_flow_prepared(&exp.prep, 0.1, &exp.opts).expect("flow failed");
    let placed_arrival = flow.sta.critical_arrival();
    println!("placed-and-routed STA:   critical path {placed_arrival:>7.2} ns");
    // prints one model's row; returns its critical-path error (relative
    // to the placed one) and its mean relative net-length error
    let judge = |name: &str, model: WireloadModel| {
        let sta = analyze_wireload(&flow.netlist, &exp.opts.lib, &exp.opts.timing, &model);
        let (mean_um, worst_um, rel) = wireload_error(&flow.netlist, &model);
        let path_error = (sta.critical_arrival() - placed_arrival) / placed_arrival;
        println!(
            "wireload ({name}): critical path {:>7.2} ns ({:+.1}% vs placed), \
             net-length error mean {mean_um:.1} um / worst {worst_um:.0} um / {:.0}% mean relative",
            sta.critical_arrival(),
            100.0 * path_error,
            100.0 * rel
        );
        (path_error.abs(), rel)
    };
    let (generic_path, _) = judge("generic 0.18um table", WireloadModel::generic_018());
    let (calibrated_path, calibrated_rel) =
        judge("calibrated on design", WireloadModel::calibrate(&flow.netlist));
    println!(
        "\n{}",
        shape_verdict(&[
            ("generic wireload misses the placed critical path by > 50%", generic_path > 0.5),
            ("so does the one calibrated on this design", calibrated_path > 0.5),
            ("calibrated mean relative net-length error > 100%", calibrated_rel > 1.0),
        ])
    );
}
