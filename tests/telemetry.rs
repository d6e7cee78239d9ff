//! End-to-end observability: a full flow run must attribute metrics to
//! every pipeline stage and export them as JSON.

use casyn::flow::{congestion_flow, FlowOptions};
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

fn run_flow() -> casyn::flow::FlowResult {
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
    let opts = FlowOptions { optimize: Some(OptimizeOptions::default()), ..FlowOptions::default() };
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
