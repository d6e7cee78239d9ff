//! Determinism: the entire flow — generation, optimization, placement,
//! mapping, routing, timing — must be bit-reproducible run to run, since
//! the paper's methodology depends on regenerating mapped netlists from
//! one fixed technology-independent placement.

use casyn::flow::{
    congestion_flow, congestion_flow_prepared, fnv1a64, prepare, sis_flow, FlowOptions,
};
use casyn::netlist::bench::{random_pla, spla, PlaGenConfig};
use casyn::place::PlacerBackend;
use casyn::route::RouteResult;

fn net() -> casyn::netlist::network::Network {
    random_pla(&PlaGenConfig {
        inputs: 10,
        outputs: 6,
        terms: 40,
        min_literals: 3,
        max_literals: 6,
        mean_outputs_per_term: 1.4,
        seed: 2002,
    })
    .to_network()
}

#[test]
fn congestion_flow_is_deterministic() {
    let network = net();
    let opts = FlowOptions::default();
    let a = congestion_flow(&network, 0.2, &opts).unwrap();
    let b = congestion_flow(&network, 0.2, &opts).unwrap();
    assert_eq!(a.num_cells, b.num_cells);
    assert_eq!(a.cell_area, b.cell_area);
    assert_eq!(a.route.violations, b.route.violations);
    assert_eq!(a.route.total_wirelength, b.route.total_wirelength);
    assert_eq!(a.sta.critical_arrival(), b.sta.critical_arrival());
    // cell-by-cell equality
    for (ca, cb) in a.netlist.cells().iter().zip(b.netlist.cells()) {
        assert_eq!(ca.lib_cell, cb.lib_cell);
        assert_eq!(ca.inputs, cb.inputs);
        assert_eq!(ca.pos, cb.pos);
    }
}

#[test]
fn sis_flow_is_deterministic() {
    let network = net();
    let opts = FlowOptions::default();
    let a = sis_flow(&network, &opts).unwrap();
    let b = sis_flow(&network, &opts).unwrap();
    assert_eq!(a.num_cells, b.num_cells);
    assert_eq!(a.route.violations, b.route.violations);
}

#[test]
fn named_benchmarks_are_stable() {
    // the SPLA generator must keep producing the calibrated circuit —
    // a drifting generator would silently invalidate EXPERIMENTS.md
    let a = spla();
    let b = spla();
    assert_eq!(a.to_pla_string(), b.to_pla_string());
    assert_eq!(a.terms().len(), 2307);
}

/// FNV-1a 64 over the IEEE bit patterns of everything routing decides:
/// each net's routed length, the final demand on every gcell boundary,
/// and each negotiation iteration's summary with its exact count of
/// expanded gcells.
fn fnv1a_of_route(r: &RouteResult) -> u64 {
    let mut words: Vec<u64> = r.net_wirelength.iter().map(|w| w.to_bits()).collect();
    let map = &r.congestion;
    for y in 0..map.ny() {
        words.extend((0..map.nx() - 1).map(|x| map.h_demand(x, y).to_bits()));
    }
    for y in 0..map.ny() - 1 {
        words.extend((0..map.nx()).map(|x| map.v_demand(x, y).to_bits()));
    }
    for s in &r.convergence.iters {
        words.extend([
            s.rerouted as u64,
            s.overflow.to_bits(),
            s.overflowed_edges as u64,
            s.max_util.to_bits(),
            s.history_cost.to_bits(),
            s.expanded,
        ]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn routing_is_bit_identical_to_the_recorded_one() {
    // Hashes of `route_mapped`'s output recorded at the commit before the
    // router's search kernel was rewritten (cached edge costs, indexed
    // heap, flat edge ids): the kernel may change how a path is found,
    // never a path, a demand or the number of gcells a search expands.
    let ex_a: casyn::netlist::Pla =
        std::fs::read_to_string("examples/designs/ex_a.pla").unwrap().parse().unwrap();
    // ~2.1k base gates
    let rand16 = random_pla(&PlaGenConfig {
        inputs: 16,
        outputs: 12,
        terms: 190,
        min_literals: 4,
        max_literals: 9,
        mean_outputs_per_term: 1.4,
        seed: 7,
    });
    for (name, pla, scale, iterations, golden) in [
        ("ex_a", &ex_a, 1.0, 1, 0x8b83_0d87_7ffd_a68e_u64),
        ("rand16, ample supply", &rand16, 2.0, 2, 0xc15a_f880_afb8_fa65),
        // supply so short that every one of the `max_iters` runs and
        // violations remain: whole-die search boxes, heavy history
        ("rand16, short supply", &rand16, 1.5, 12, 0x6b62_a49b_b8ef_978a),
    ] {
        let mut opts = FlowOptions::default();
        opts.placer.backend = PlacerBackend::KWay;
        opts.route.capacity_scale = scale;
        let prep = prepare(&pla.to_network(), &opts).unwrap();
        let r = congestion_flow_prepared(&prep, 0.5, &opts).unwrap().route;
        assert_eq!(r.iterations, iterations, "{name}: iterations");
        assert_eq!(
            fnv1a_of_route(&r),
            golden,
            "{name}: routing moved ({} violations, expanded {:?})",
            r.violations,
            r.convergence.iters.iter().map(|s| s.expanded).collect::<Vec<_>>()
        );
    }
}
