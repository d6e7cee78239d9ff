//! End-to-end observability: a full flow run must attribute metrics to
//! every pipeline stage and export them as JSON.

use casyn::flow::{
    congestion_flow, k_sweep_prepared, k_sweep_prepared_pool, prepare, FlowOptions, KSweepEntry,
    Prepared, StageTelemetry,
};
use casyn::logic::OptimizeOptions;
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::obs;
use std::sync::Mutex;

/// The global metrics registry is process-wide state; tests that toggle
/// it must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match OBS_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The small design every test here runs, with the optimizer on.
fn design() -> (casyn::netlist::network::Network, FlowOptions) {
    let net = random_pla(&PlaGenConfig {
        inputs: 10,
        outputs: 6,
        terms: 40,
        min_literals: 3,
        max_literals: 6,
        mean_outputs_per_term: 1.4,
        seed: 42,
    })
    .to_network();
    (net, FlowOptions { optimize: Some(OptimizeOptions::default()), ..FlowOptions::default() })
}

fn run_flow() -> casyn::flow::FlowResult {
    let (net, opts) = design();
    congestion_flow(&net, 0.01, &opts).unwrap()
}

#[test]
fn full_flow_emits_stage_telemetry_and_metrics() {
    let _guard = lock();
    obs::reset();
    obs::set_enabled(true);
    let r = run_flow();
    obs::set_enabled(false);

    // every pipeline stage is recorded, in execution order
    let names = r.telemetry.stage_names();
    assert_eq!(
        names,
        ["optimize", "decompose", "floorplan", "place", "map", "legalize", "route", "sta"]
    );
    assert!(r.telemetry.total_ms > 0.0);
    assert!(r.telemetry.peak_live_nodes > 0);
    for s in &r.telemetry.stages {
        assert!(s.wall_ms >= 0.0, "stage {} has negative wall clock", s.stage);
    }

    // metric activity is attributed to the stage that caused it
    let map_stage = r.telemetry.stage("map").unwrap();
    assert!(
        map_stage.metrics.keys().any(|k| k.starts_with("map.")),
        "map stage metrics: {:?}",
        map_stage.metrics
    );
    let route_stage = r.telemetry.stage("route").unwrap();
    assert!(
        route_stage.metrics.keys().any(|k| k.starts_with("route.")),
        "route stage metrics: {:?}",
        route_stage.metrics
    );

    // the registry spans the whole pipeline: >= 12 distinct
    // `stage.metric` keys over >= 5 instrumented crates
    let snap = obs::snapshot();
    assert!(
        snap.metrics.len() >= 12,
        "expected >= 12 metric keys, got {}: {:?}",
        snap.metrics.len(),
        snap.metrics.keys().collect::<Vec<_>>()
    );
    let prefixes: std::collections::BTreeSet<&str> =
        snap.metrics.keys().filter_map(|k| k.split('.').next()).collect();
    for expected in ["logic", "place", "map", "route", "sta"] {
        assert!(prefixes.contains(expected), "missing metric prefix {expected}: {prefixes:?}");
    }
    assert!(prefixes.len() >= 5);
    // the counter is cumulative (the floorplan derivation runs a
    // throwaway mapping too), but the map *stage delta* is exactly the
    // final mapping's contribution
    assert_eq!(map_stage.metrics.get("map.cells_emitted"), Some(&(r.num_cells as f64)));
    assert_eq!(snap.counter("route.iterations"), Some(r.route.iterations as u64));

    // JSON export carries the per-stage timings and the metric names
    let json = r.telemetry.to_json().to_string_pretty();
    assert!(json.contains("\"schema\": \"casyn.telemetry.v1\""));
    assert!(json.contains("\"stage\": \"route\""));
    assert!(json.contains("\"wall_ms\""));
    assert!(json.contains("map."));
    let flat = casyn::flow::telemetry::snapshot_json(&snap).to_string_pretty();
    assert!(flat.contains("route.iterations"));
    assert!(flat.contains("sta.arrival_propagations"));

    obs::reset();
}

#[test]
fn disabled_collection_still_times_stages() {
    let _guard = lock();
    obs::set_enabled(false);
    obs::reset();
    let r = run_flow();
    let names = r.telemetry.stage_names();
    assert!(names.contains(&"map") && names.contains(&"route"));
    assert!(r.telemetry.total_ms > 0.0);
    // no metric deltas are attributed while collection is off
    for s in &r.telemetry.stages {
        assert!(s.metrics.is_empty(), "stage {} leaked metrics: {:?}", s.stage, s.metrics);
    }
    assert!(obs::snapshot().metrics.is_empty());
}

#[test]
fn kway_rounds_counter_counts_rounds_actually_run() {
    use casyn::place::{place, Floorplan, PinRef, PlaceInstance, PlaceNet};
    let _guard = lock();
    // a 64-cell chain over two side-by-side regions: of the four
    // brick-wall rounds only "horizontal even" holds a pair, and a sweep
    // that moves nothing ends its level
    let n = 64;
    let inst = PlaceInstance {
        cell_width: vec![1.92; n],
        nets: (0..n - 1)
            .map(|i| PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + 1)] })
            .collect(),
    };
    let fp = Floorplan::with_rows_and_area(8, 8.0 * 6.4 * 40.0);
    let opts = casyn::place::PlacerOptions { region_cells: n / 2, ..Default::default() };
    obs::reset();
    obs::set_enabled(true);
    let pos = place(&inst, &fp, &opts);
    obs::set_enabled(false);
    assert_eq!(pos.len(), n);
    let snap = obs::snapshot();
    let levels = snap.counter("place.kway.levels").unwrap();
    let rounds = snap.counter("place.kway.rounds").unwrap();
    assert!(levels >= 2, "the chain must coarsen: {levels} levels");
    // one non-empty round per sweep, at most kway_passes sweeps per level
    // (the planned count, 4 rounds x kway_passes per level, is 4x this)
    assert!(
        (levels..=levels * opts.kway_passes as u64).contains(&rounds),
        "{rounds} rounds over {levels} levels"
    );
    obs::reset();
}

/// The K values of the sweep tests below.
const SWEEP_KS: [f64; 4] = [0.0, 0.001, 0.01, 0.1];

/// Prepares [`design`] and sweeps [`SWEEP_KS`] over it with metrics on,
/// serially or on a two-worker pool. Returns the prepared design, the
/// rows and the registry as the sweep left it.
fn sweep(pool: Option<&casyn::exec::Pool>) -> (Prepared, Vec<KSweepEntry>, obs::Snapshot) {
    let (net, opts) = design();
    obs::reset();
    obs::set_enabled(true);
    let prep = prepare(&net, &opts).unwrap();
    let rows = match pool {
        Some(pool) => k_sweep_prepared_pool(&prep, &SWEEP_KS, &opts, pool),
        None => k_sweep_prepared(&prep, &SWEEP_KS, &opts),
    };
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    (prep, rows.unwrap(), snap)
}

/// A stage's counter and gauge values, one `key value` line each: no
/// wall-clock keys (`_ms`, `wall`) and no histogram, whose stage keys
/// are the ones with a `.p50` sibling.
fn counters_and_gauges(stage: &StageTelemetry) -> Vec<String> {
    let m = &stage.metrics;
    let derived = |k: &str| [".p50", ".p95", ".p99"].iter().any(|s| k.ends_with(s));
    m.iter()
        .filter(|(k, _)| !k.contains("_ms") && !k.contains("wall"))
        .filter(|(k, _)| !derived(k) && !m.contains_key(&format!("{k}.p50")))
        .map(|(k, v)| format!("{k} {v}"))
        .collect()
}

/// Every stage's counters and gauges of a sweep as `K stage key value`
/// lines: the front end once (every row inherits the same records), then
/// each row's own back-end stages.
fn stage_lines(rows: &[KSweepEntry]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for st in &row.telemetry().stages {
            let front =
                ["optimize", "decompose", "floorplan", "place"].contains(&st.stage.as_str());
            if front && i > 0 {
                continue;
            }
            let k = if front { "-".to_string() } else { row.k.to_string() };
            for line in counters_and_gauges(st) {
                out.push_str(&format!("{k} {} {line}\n", st.stage));
            }
        }
    }
    out
}

/// Every stage counter and gauge of a serial sweep, recorded before stage
/// deltas moved from registry snapshots to per-thread records: a serial
/// run must keep every key and every value.
const SERIAL_STAGE_GOLDEN: &str = "\
- optimize logic.cubes_extracted 14
- optimize logic.kernels_extracted 0
- optimize logic.literals_saved 25
- decompose logic.decomposed_nodes 70
- decompose logic.subject_gates 342
- floorplan map.cells_emitted 131
- floorplan map.duplicated_covers 0
- floorplan map.est_wirelength 0
- floorplan map.matches_tried 1796
- floorplan partition.trees 49
- place exec.jobs_completed 405
- place exec.pool_workers 1
- place place.coarsen.coarsest_cells 98
- place place.coarsen.levels 2
- place place.kway.levels 3
- place place.kway.moves 46
- place place.kway.polish_moves 468
- place place.kway.rounds 36
0 map map.cells_emitted 131
0 map map.duplicated_covers 43
0 map map.est_wirelength 4959.954715127416
0 map map.matches_tried 1796
0 map map.wire_evals 1796
0 map partition.trees 6
0 route route.connections 266
0 route route.history_cost 29.343333333333316
0 route route.iterations 12
0 route route.overflow 4.987499999999997
0 route route.reroutes 1149
0 sta sta.arrival_propagations 280
0 sta sta.endpoints 6
0.001 map map.cells_emitted 138
0.001 map map.duplicated_covers 43
0.001 map map.est_wirelength 5448.470395074872
0.001 map map.matches_tried 2036
0.001 map map.wire_evals 2036
0.001 map partition.trees 6
0.001 route route.connections 283
0.001 route route.history_cost 75.62166666666663
0.001 route route.iterations 12
0.001 route route.overflow 12.00833333333333
0.001 route route.reroutes 2195
0.001 sta sta.arrival_propagations 304
0.001 sta sta.endpoints 6
0.01 map map.cells_emitted 138
0.01 map map.duplicated_covers 43
0.01 map map.matches_tried 2036
0.01 map map.wire_evals 2036
0.01 map partition.trees 6
0.01 route route.connections 283
0.01 route route.iterations 12
0.01 route route.reroutes 2195
0.01 sta sta.arrival_propagations 304
0.01 sta sta.endpoints 6
0.1 map map.cells_emitted 138
0.1 map map.duplicated_covers 43
0.1 map map.matches_tried 2036
0.1 map map.wire_evals 2036
0.1 map partition.trees 6
0.1 route route.connections 283
0.1 route route.iterations 12
0.1 route route.reroutes 2195
0.1 sta sta.arrival_propagations 304
0.1 sta sta.endpoints 6
";

#[test]
fn serial_stage_counters_and_gauges_match_the_recorded_ones() {
    let _guard = lock();
    let got = stage_lines(&sweep(None).1);
    assert_eq!(got, SERIAL_STAGE_GOLDEN);
}

#[test]
fn pooled_sweep_rows_report_their_own_stage_work() {
    let _guard = lock();
    let (_, serial, snap) = sweep(None);
    let (_, pooled, _) = sweep(Some(&casyn::exec::Pool::new(2)));
    // a stage's counters: its nonzero additions to the registry's counters
    let counters = |st: &StageTelemetry| -> Vec<(String, f64)> {
        let is_counter = |k: &str| snap.counter(k).is_some();
        st.metrics
            .iter()
            .filter(|(k, v)| is_counter(k) && **v > 0.0)
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    for (s, p) in serial.iter().zip(&pooled) {
        let (ss, ps) = (&s.telemetry().stages, &p.telemetry().stages);
        assert_eq!(ss.len(), ps.len());
        for (a, b) in ss.iter().zip(ps) {
            assert!(
                !counters(a).is_empty() || a.stage == "legalize",
                "stage {} counts nothing",
                a.stage
            );
            assert_eq!(counters(a), counters(b), "K = {}, stage {}", s.k, a.stage);
        }
        let map = p.telemetry().stage("map").unwrap();
        assert_eq!(map.metrics.get("map.cells_emitted"), Some(&(p.result.num_cells as f64)));
    }
}

#[test]
fn map_stage_histograms_hold_the_stage_own_trees() {
    use casyn::core::{partition, PartitionScheme};
    let _guard = lock();
    let (prep, rows, _) = sweep(None);
    // the forest every row's mapper covers: placement-driven partitioning
    // of the prepared subject graph, whatever K is
    let forest = partition(&prep.graph, PartitionScheme::PlacementDriven, &prep.positions);
    let nodes: usize = forest.trees.iter().map(|t| t.nodes.len()).sum();
    let mean = nodes as f64 / forest.trees.len() as f64;
    for row in &rows {
        let map = row.telemetry().stage("map").unwrap();
        assert_eq!(map.metrics.get("partition.trees"), Some(&(forest.trees.len() as f64)));
        // the stage's `map.tree_nodes` is the mean over exactly its own
        // trees, not over every tree the thread covered before
        let got = map.metrics["map.tree_nodes"];
        assert!((got - mean).abs() < 1e-9, "K = {}: mean {got}, own trees {mean}", row.k);
    }
}
