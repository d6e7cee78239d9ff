//! Determinism: the entire flow — generation, optimization, placement,
//! mapping, routing, timing — must be bit-reproducible run to run, since
//! the paper's methodology depends on regenerating mapped netlists from
//! one fixed technology-independent placement.

use casyn::core::{map, CostKind, MapOptions, MapResult, PartitionScheme};
use casyn::flow::{
    congestion_flow, congestion_flow_prepared, fnv1a64, prepare, sequential_flow, sis_flow,
    FlowOptions,
};
use casyn::logic::{optimize, OptimizeOptions};
use casyn::netlist::bench::{random_pla, spla, too_large, PlaGenConfig};
use casyn::netlist::blif::{to_blif, Blif};
use casyn::netlist::mapped::SignalRef;
use casyn::netlist::Pla;
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

fn fnv1a_of_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
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
    fnv1a_of_words(&words)
}

/// The two designs the recorded hashes below were taken on: the shipped
/// `ex_a.pla` and a seeded PLA of ~2.1k base gates.
fn pinned_designs() -> (Pla, Pla) {
    let ex_a: Pla = std::fs::read_to_string("examples/designs/ex_a.pla").unwrap().parse().unwrap();
    let rand16 = random_pla(&PlaGenConfig {
        inputs: 16,
        outputs: 12,
        terms: 190,
        min_literals: 4,
        max_literals: 9,
        mean_outputs_per_term: 1.4,
        seed: 7,
    });
    (ex_a, rand16)
}

/// The 4-bit ripple-enable counter of `examples/sequential.rs`.
const COUNTER4: &str = "\
.model counter4
.inputs en
.outputs q0 q1 q2 q3
.latch d0 s0 0
.latch d1 s1 0
.latch d2 s2 0
.latch d3 s3 0
.names s0 en d0
10 1
01 1
.names en s0 c1
11 1
.names s1 c1 d1
10 1
01 1
.names c1 s1 c2
11 1
.names s2 c2 d2
10 1
01 1
.names c2 s2 c3
11 1
.names s3 c3 d3
10 1
01 1
.names s0 q0
1 1
.names s1 q1
1 1
.names s2 q2
1 1
.names s3 q3
1 1
.end
";

#[test]
fn sequential_flow_is_bit_identical_to_the_recorded_one() {
    // FNV-1a 64 over every cell of the returned netlist (master, inputs,
    // legalised position bits), each net's routed length, the critical
    // arrival and the minimum clock period, recorded at the commit before
    // the sequential flow was rebuilt over `map_at` → `route_at`: it may
    // stop routing twice, never change what it returns.
    let seq = COUNTER4.parse::<Blif>().unwrap().into_seq();
    for (k, golden) in [(0.0, 0x0a72_48f7_30cc_1b5b_u64), (0.2, 0x05d3_2db2_9392_3d75)] {
        let opts = FlowOptions::default();
        let r = sequential_flow(&seq, k, &opts).unwrap();
        let mut words: Vec<u64> = Vec::new();
        for c in r.flow.netlist.cells() {
            words.push(c.lib_cell as u64);
            words.extend(c.inputs.iter().map(|s| match s {
                SignalRef::Pi(i) => *i as u64,
                SignalRef::Cell(i) => 1 << 32 | *i as u64,
            }));
            words.extend([c.pos.x.to_bits(), c.pos.y.to_bits()]);
        }
        words.extend(r.flow.route.net_wirelength.iter().map(|w| w.to_bits()));
        words.extend([r.flow.sta.critical_arrival().to_bits(), r.min_clock_period.to_bits()]);
        assert_eq!(
            fnv1a_of_words(&words),
            golden,
            "K = {k}: sequential flow moved ({} cells, period {})",
            r.flow.num_cells,
            r.min_clock_period
        );
    }
}

#[test]
fn routing_is_bit_identical_to_the_recorded_one() {
    // Hashes of `route_mapped`'s output recorded at the commit before the
    // router's search kernel was rewritten (cached edge costs, indexed
    // heap, flat edge ids): the kernel may change how a path is found,
    // never a path, a demand or the number of gcells a search expands.
    let (ex_a, rand16) = pinned_designs();
    for (name, pla, scale, iterations, golden) in [
        ("ex_a", &ex_a, 1.0, 1, 0x8b83_0d87_7ffd_a68e_u64),
        ("rand16, ample supply", &rand16, 2.0, 2, 0xc15a_f880_afb8_fa65),
        // supply so short that every one of the `max_iters` runs and
        // violations remain: whole-die search boxes, heavy history
        ("rand16, short supply", &rand16, 1.5, 12, 0x6b62_a49b_b8ef_978a),
    ] {
        let mut opts = FlowOptions::default();
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

#[test]
fn reroutes_that_keep_their_path_are_counted_exactly() {
    // the route of `routing_is_bit_identical_to_the_recorded_one`'s
    // short-supply case: per iteration, the reroutes whose search returned
    // the path they had. The first has no path to return; later ones keep
    // most of theirs, which is what lets the searches run ahead of the
    // commits
    let (_, rand16) = pinned_designs();
    let mut opts = FlowOptions::default();
    opts.route.capacity_scale = 1.5;
    let prep = prepare(&rand16.to_network(), &opts).unwrap();
    let r = congestion_flow_prepared(&prep, 0.5, &opts).unwrap().route;
    let got: Vec<(usize, usize)> =
        r.convergence.iters.iter().map(|s| (s.rerouted, s.unchanged)).collect();
    let want = [
        (1786, 0),
        (1138, 817),
        (1051, 903),
        (986, 910),
        (934, 881),
        (951, 921),
        (933, 889),
        (931, 894),
        (943, 907),
        (949, 924),
        (956, 927),
        (956, 929),
    ];
    assert_eq!(got, want);
}

#[test]
fn optimized_network_is_bit_identical_to_the_recorded_one() {
    // FNV-1a of the BLIF text, literal count and `optimize`'s return value
    // recorded at the commit before `extract_cubes` became an incremental
    // kernel (delta pair counts, lazy max-heap, posting lists): the kernel
    // may change how the best pair is found, never which pair, in which
    // order, or the node order, fanins and cubes it writes back.
    let (ex_a, rand16) = pinned_designs();
    for (name, mut net, want_hash, want_lits, want_made) in [
        ("too_large", too_large(), 0x1a9c_4a58_caae_8e52_u64, 13_995_usize, 1_095_usize),
        ("rand16", rand16.to_network(), 0x4731_31f0_69df_0ce4, 1_172, 85),
        ("ex_a", ex_a.to_network(), 0x0cc6_7f5d_82c2_1492, 116, 6),
    ] {
        let made = optimize(&mut net, &OptimizeOptions::default());
        let hash = fnv1a64(to_blif(&net, "opt").as_bytes());
        assert_eq!(
            (hash, net.literal_count(), made),
            (want_hash, want_lits, want_made),
            "{name}: optimized network moved"
        );
    }
}

/// FNV-1a 64 over everything mapping decides: every emitted cell in
/// emission order (master, input signals, the IEEE bits of its
/// centre-of-mass position), the cell count and the run statistics.
fn fnv1a_of_mapping(r: &MapResult) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for c in r.netlist.cells() {
        words.push(c.lib_cell as u64);
        words.push(c.inputs.len() as u64);
        words.extend(c.inputs.iter().map(|s| match s {
            SignalRef::Pi(i) => *i as u64,
            SignalRef::Cell(i) => 1 << 32 | *i as u64,
        }));
        words.extend([c.pos.x.to_bits(), c.pos.y.to_bits()]);
    }
    words.extend([
        r.netlist.num_cells() as u64,
        r.stats.num_trees as u64,
        r.stats.duplicated_covers as u64,
        r.stats.est_wirelength.to_bits(),
    ]);
    fnv1a_of_words(&words)
}

#[test]
fn mapping_is_bit_identical_to_the_recorded_one() {
    // Hashes of `map`'s output recorded at the commit before the matcher
    // and the covering DP were rewritten around one flat match buffer:
    // the kernel may change how matches are stored, never which matches
    // exist, their order (the DP's first-wins tie-break), the order of
    // their covered gates (the centre-of-mass float sum) or a chosen cell.
    let (ex_a, rand16) = pinned_designs();
    let pd = PartitionScheme::PlacementDriven;
    let configs = [
        (PartitionScheme::Dagon, CostKind::Area),
        (PartitionScheme::Cone, CostKind::Area),
        (pd, CostKind::AreaWire { k: 0.0 }),
        (pd, CostKind::AreaWire { k: 0.5 }),
        (pd, CostKind::AreaWire { k: 5.0 }),
    ];
    let golden: [(&str, &Pla, [u64; 5]); 2] = [
        (
            "ex_a",
            &ex_a,
            [
                0xd92b_896f_6baf_e8f0,
                0xe4d5_c334_34ea_bace,
                0xe594_b019_d917_d25a,
                0xeca3_2cc0_bf5b_6f30,
                0x30b0_70d9_66c7_f16c,
            ],
        ),
        (
            "rand16",
            &rand16,
            [
                0x609c_c10a_4dc7_db66,
                0x8831_d020_e2fe_2ac6,
                0x8722_39be_8fa5_73f6,
                0x5163_2a7e_90dd_6734,
                0xd259_54d9_6b1e_114d,
            ],
        ),
    ];
    for (name, pla, hashes) in golden {
        let opts = FlowOptions::default();
        let prep = prepare(&pla.to_network(), &opts).unwrap();
        for ((scheme, cost), want) in configs.into_iter().zip(hashes) {
            let r = map(&prep.graph, &prep.positions, &opts.lib, &MapOptions { scheme, cost });
            assert_eq!(
                fnv1a_of_mapping(&r),
                want,
                "{name} {scheme:?} {cost:?}: mapping moved ({} cells, {:?})",
                r.netlist.num_cells(),
                r.stats
            );
        }
    }
}
