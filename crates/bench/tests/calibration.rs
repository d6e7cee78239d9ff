//! The routing-supply bisection the paper bins pin their die with, and
//! the supply frontier built from it.

use casyn_bench::{experiment, frontier, supply_edge, SPLA_K0_UTILIZATION};
use casyn_exec::Pool;
use casyn_netlist::bench::{random_pla, PlaGenConfig};
use casyn_obs::trace::{self, EventKind};
use std::sync::{Mutex, MutexGuard};

/// The trace buffer is process-global: a test that counts spans must not
/// see another test's.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn supply_edge_maps_once_and_lands_where_the_recorded_calibrations_did() {
    let _guard = lock();
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
    let recorded = (0x3fff_2666_6666_6666_u64, 0x3fff_accc_cccc_cccc_u64);
    assert_eq!(
        (routable.to_bits(), unroutable.to_bits()),
        recorded,
        "calibrated scales moved: routable {routable}, unroutable {unroutable}"
    );
}

#[test]
fn frontier_on_two_workers_is_bit_identical_to_serial() {
    let _guard = lock();
    let network = random_pla(&PlaGenConfig {
        inputs: 10,
        outputs: 6,
        terms: 48,
        min_literals: 3,
        max_literals: 7,
        mean_outputs_per_term: 1.4,
        seed: 5,
    })
    .to_network();
    let exp = experiment("rand10", network, SPLA_K0_UTILIZATION);
    let ks = [0.0, 0.5, 5.0];
    let (lo, hi) = (0.3, 4.0);
    let serial = frontier(&exp, &ks, lo, hi, 5, &Pool::serial());
    let pooled = frontier(&exp, &ks, lo, hi, 5, &Pool::new(2));
    let bits = |f: &[casyn_bench::FrontierPoint]| -> Vec<[u64; 3]> {
        f.iter().map(|p| [p.k.to_bits(), p.supply.to_bits(), p.area.to_bits()]).collect()
    };
    assert_eq!(bits(&pooled), bits(&serial));
    let work = |f: &[casyn_bench::FrontierPoint]| -> Vec<(usize, usize, u64)> {
        f.iter().map(|p| (p.routes, p.iterations, p.expanded)).collect()
    };
    assert_eq!(work(&pooled), work(&serial), "the search counts are exact");
    for (p, k) in serial.iter().zip(ks) {
        assert_eq!(p.k, k, "points come back in K order");
        assert_eq!(
            p.supply,
            supply_edge(&exp, k, lo, hi, 5).1,
            "s* is supply_edge's routable side"
        );
        assert!(lo < p.supply && p.supply <= hi && p.area > 0.0, "{p:?}");
        assert!(p.iterations >= p.routes && p.expanded > 0, "{p:?}");
    }
}
