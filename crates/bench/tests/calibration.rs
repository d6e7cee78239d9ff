//! The routing-supply bisection the paper bins pin their die with.

use casyn_bench::{experiment, supply_edge, SPLA_K0_UTILIZATION};
use casyn_netlist::bench::{random_pla, PlaGenConfig};
use casyn_obs::trace::{self, EventKind};
use casyn_place::PlacerBackend;

#[test]
fn supply_edge_maps_once_and_lands_where_the_recorded_calibrations_did() {
    // a ≈ 2.1 k-gate PLA, set up exactly as the SPLA experiment is
    let network = random_pla(&PlaGenConfig {
        inputs: 16,
        outputs: 12,
        terms: 190,
        min_literals: 4,
        max_literals: 9,
        mean_outputs_per_term: 1.4,
        seed: 7,
    })
    .to_network();
    let exp = experiment("rand16", network, SPLA_K0_UTILIZATION);
    let (lo, hi) = (1.3, 3.7);
    // one calibration per side, as the bins run them, counting the map
    // stage spans each one opens
    trace::set_enabled(true);
    let calibrate = |k, steps| {
        trace::clear();
        let edge = supply_edge(&exp, k, lo, hi, steps);
        let events = trace::take_events();
        let maps = events.iter().filter(|e| e.kind == EventKind::Span && e.name == "map").count();
        (edge, maps)
    };
    let (at_half, at_half_maps) = calibrate(0.5, 8);
    let (at_zero, at_zero_maps) = calibrate(0.0, 9);
    trace::set_enabled(false);
    assert_eq!((at_half_maps, at_zero_maps), (1, 1), "one map per calibration");
    // the bracket holds both edges: each calibration probed both sides
    for (unroutable, routable) in [at_half, at_zero] {
        assert!(lo < unroutable && routable < hi, "[{unroutable}, {routable}] on a bracket end");
    }
    let (routable, unroutable) = (at_half.1, at_zero.0);
    // The scales the two calibrations that mapped at every step returned
    // (the routable side at K = 0.5 in 8 steps, the unroutable side of the
    // K = 0 edge in 9), recorded before they became this one bisection.
    let recorded = match exp.opts.placer.backend {
        PlacerBackend::KWay => (0x3fff_2666_6666_6666_u64, 0x3fff_accc_cccc_cccc_u64),
        PlacerBackend::Bisect => (0x3ff9_4ccc_cccc_cccd, 0x3ff9_8666_6666_6667),
    };
    assert_eq!(
        (routable.to_bits(), unroutable.to_bits()),
        recorded,
        "calibrated scales moved: routable {routable}, unroutable {unroutable}"
    );
}
