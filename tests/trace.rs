//! Hierarchical span tracing, end to end: a full flow run must leave a
//! well-formed span tree, the Chrome sink must emit a loadable document,
//! and —
//! the determinism contract — recording a trace must not change any flow
//! result.

use casyn::exec::Pool;
use casyn::flow::{
    congestion_flow, k_sweep_prepared_pool, prepare, sequential_flow, sis_flow, FlowOptions,
};
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::blif::Blif;
use casyn::obs;
use casyn::obs::trace::{EventKind, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// The trace collector is process-wide state; tests that toggle it must
/// not interleave.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match TRACE_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn net(seed: u64) -> casyn::netlist::network::Network {
    random_pla(&PlaGenConfig {
        inputs: 10,
        outputs: 6,
        terms: 40,
        min_literals: 3,
        max_literals: 6,
        mean_outputs_per_term: 1.4,
        seed,
    })
    .to_network()
}

/// Runs one traced congestion flow and returns the drained timeline.
fn traced_flow_events() -> Vec<TraceEvent> {
    obs::trace::set_enabled(true);
    obs::trace::clear();
    let r = congestion_flow(&net(11), 0.5, &FlowOptions::default()).unwrap();
    assert!(r.num_cells > 0); // flow completed
    obs::trace::set_enabled(false);
    obs::trace::take_events()
}

#[test]
fn full_flow_leaves_a_well_formed_span_tree() {
    let _guard = lock();
    let events = traced_flow_events();
    let spans: HashMap<u64, &TraceEvent> =
        events.iter().filter(|e| e.kind == EventKind::Span).map(|e| (e.id, e)).collect();
    assert!(spans.len() >= 5, "expected a real timeline, got {} spans", spans.len());

    // ≥5 distinct span names, covering front end, covering, and routing
    let names: HashSet<&str> = spans.values().map(|e| e.name.as_str()).collect();
    for expected in ["flow", "decompose", "map.partition", "map.cover", "route.iter"] {
        assert!(names.contains(expected), "missing span {expected:?} in {names:?}");
    }

    for e in &events {
        // every recorded parent exists
        let Some(pid) = e.parent else { continue };
        let parent = spans
            .get(&pid)
            .unwrap_or_else(|| panic!("event {} ({}) has unknown parent {pid}", e.id, e.name));
        // same-thread nesting: a child runs on its parent's track
        assert_eq!(e.thread, parent.thread, "span {} crossed threads", e.name);
        // child intervals sit inside the parent (50 µs of clock slack:
        // start/end are sampled by different Instant reads)
        let eps = 50.0;
        assert!(
            e.start_us + eps >= parent.start_us
                && e.start_us + e.dur_us <= parent.start_us + parent.dur_us + eps,
            "span {} [{:.0}, {:.0}] escapes parent {} [{:.0}, {:.0}]",
            e.name,
            e.start_us,
            e.start_us + e.dur_us,
            parent.name,
            parent.start_us,
            parent.start_us + parent.dur_us,
        );
        // no cycles: walk to a root with a step budget
        let mut cursor = pid;
        let mut steps = 0;
        while let Some(next) = spans[&cursor].parent {
            cursor = next;
            steps += 1;
            assert!(steps <= events.len(), "parent cycle through span {}", e.name);
        }
    }
}

#[test]
fn kway_stage_spans_nest_under_the_placement_and_fit_inside_it() {
    let _guard = lock();
    let events = traced_flow_events();
    let spans: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == EventKind::Span).collect();
    let kway = spans.iter().find(|e| e.name == "place.kway").expect("a place.kway span");
    let stages: Vec<&&TraceEvent> =
        spans.iter().filter(|e| e.name.starts_with("place.kway.")).collect();
    let names: HashSet<&str> = stages.iter().map(|e| e.name.as_str()).collect();
    for stage in ["coarsen", "seed", "level", "spread", "median", "unstack", "relax", "swap"] {
        let name = format!("place.kway.{stage}");
        assert!(names.contains(name.as_str()), "missing span {name} in {names:?}");
    }
    // the stages are the placement's direct children, run one after the
    // other on its thread: their durations add up to no more than its own
    for e in &stages {
        assert_eq!(e.parent, Some(kway.id), "{} is not a child of place.kway", e.name);
        assert_eq!(e.thread, kway.thread);
    }
    let total: f64 = stages.iter().map(|e| e.dur_us).sum();
    assert!(
        total > 0.0 && total <= kway.dur_us,
        "stages {total} us > place.kway {} us",
        kway.dur_us
    );
    // the swap polish reports its work
    let swap = stages.iter().find(|e| e.name == "place.kway.swap").unwrap();
    for key in ["tries", "swaps", "rescans"] {
        assert!(swap.attrs.iter().any(|(k, _)| k == key), "place.kway.swap lacks {key:?}");
    }
}

#[test]
fn route_iter_spans_report_an_exact_expansion_count() {
    let _guard = lock();
    // the `expanded` attribute of every route.iter span, in order
    let expanded = |events: &[TraceEvent]| -> Vec<f64> {
        let iters = events.iter().filter(|e| e.kind == EventKind::Span && e.name == "route.iter");
        iters
            .map(|e| match e.attrs.iter().find(|(k, _)| k == "expanded") {
                Some((_, obs::trace::AttrValue::Num(n))) => *n,
                other => panic!("route.iter carries expanded = {other:?}"),
            })
            .collect()
    };
    let first = expanded(&traced_flow_events());
    assert!(
        !first.is_empty() && first.iter().all(|&n| n > 0.0),
        "expanded per iteration {first:?}"
    );
    // a count of gcells, not a timing: it repeats exactly
    assert_eq!(first, expanded(&traced_flow_events()));
}

#[test]
fn front_end_spans_report_exact_work_counts() {
    let _guard = lock();
    let counted = [
        ("logic.extract_cubes", "extractions"),
        ("logic.extract_cubes", "rewrites"),
        ("logic.extract_cubes", "pair_updates"),
        ("place.kway.seed", "home_misses"),
        ("place.kway.swap", "tries"),
        ("place.kway.swap", "scored"),
    ];
    // the counted attributes of one traced SIS flow, which optimizes first
    let counts = || -> Vec<f64> {
        obs::trace::set_enabled(true);
        obs::trace::clear();
        sis_flow(&net(11), &FlowOptions::default()).unwrap();
        obs::trace::set_enabled(false);
        let events = obs::trace::take_events();
        let spans = |name: &str| -> Vec<&TraceEvent> {
            events.iter().filter(|e| e.kind == EventKind::Span && e.name == name).collect()
        };
        counted
            .iter()
            .map(|&(span, key)| {
                let [e] = spans(span)[..] else { panic!("expected one {span} span") };
                match e.attrs.iter().find(|(k, _)| k == key) {
                    Some((_, obs::trace::AttrValue::Num(n))) => *n,
                    other => panic!("{span} carries {key} = {other:?}"),
                }
            })
            .collect()
    };
    let first = counts();
    for (&(span, key), n) in counted.iter().zip(&first) {
        assert!(*n > 0.0, "{span}.{key} = {n}");
    }
    // counts of work, not timings: they repeat exactly
    assert_eq!(first, counts());
    // the swap polish scores in full only the pairs its bound keeps
    let (tries, scored) = (first[counted.len() - 2], first[counted.len() - 1]);
    assert!(scored <= tries, "place.kway.swap scored {scored} of {tries} tries");
}

#[test]
fn chrome_sink_emits_complete_events_with_timing() {
    let _guard = lock();
    let events = traced_flow_events();
    let doc = obs::trace::to_chrome_trace(&events);
    let items = doc.as_array().expect("chrome trace is a bare event array");
    let complete: Vec<_> =
        items.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")).collect();
    assert!(complete.len() >= 5);
    for e in &complete {
        assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("tid").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(e.get("pid").unwrap().as_f64(), Some(1.0));
        assert!(e.get("name").unwrap().as_str().is_some());
    }
}

#[test]
fn pool_sweep_spreads_spans_over_worker_tracks() {
    let _guard = lock();
    obs::trace::set_enabled(true);
    obs::trace::clear();
    let network = net(12);
    let opts = FlowOptions::default();
    let prep = prepare(&network, &opts).unwrap();
    // placement itself fans pair-refinement jobs out on a pool; drop its
    // spans so the counts below cover exactly the sweep's per-K jobs
    obs::trace::clear();
    let ks = [0.0, 0.1, 0.5, 1.0];
    let rows = k_sweep_prepared_pool(&prep, &ks, &opts, &Pool::new(2)).unwrap();
    assert_eq!(rows.len(), ks.len());
    obs::trace::set_enabled(false);
    let events = obs::trace::take_events();
    let worker_tracks: HashSet<&str> =
        events.iter().filter(|e| e.thread.starts_with('w')).map(|e| e.thread.as_str()).collect();
    assert!(
        worker_tracks.len() >= 2,
        "2-worker sweep must populate at least two worker tracks, got {worker_tracks:?}"
    );
    // every pool job ran inside an exec.job span on a worker track
    let jobs: Vec<_> =
        events.iter().filter(|e| e.kind == EventKind::Span && e.name == "exec.job").collect();
    assert_eq!(jobs.len(), ks.len());
    assert!(jobs.iter().all(|e| e.thread.starts_with('w')));
}

#[test]
fn sequential_flow_routes_once() {
    let _guard = lock();
    // a 2-bit counter: two flip-flops, so the flow inserts DFFs and
    // re-legalizes before it routes
    let seq = "\
.model ctr
.inputs en
.outputs b0 b1
.latch n0 s0 0
.latch n1 s1 0
.names s0 en n0
10 1
01 1
.names s1 s0 en n1
011 1
100 1
101 1
110 1
.names s0 b0
1 1
.names s1 b1
1 1
.end
"
    .parse::<Blif>()
    .unwrap()
    .into_seq();
    obs::trace::set_enabled(true);
    obs::trace::clear();
    let r = sequential_flow(&seq, 0.2, &FlowOptions::default()).unwrap();
    obs::trace::set_enabled(false);
    let events = obs::trace::take_events();
    // every route_mapped call opens one route.iter span per negotiation
    // iteration, so a second routing would show up as surplus spans
    let iters = events.iter().filter(|e| e.kind == EventKind::Span && e.name == "route.iter");
    assert_eq!(iters.count(), r.flow.route.iterations, "the flow routed more than once");
    let stages = r.flow.telemetry.stage_names();
    assert_eq!(stages.iter().filter(|&&s| s == "route").count(), 1, "stages {stages:?}");
}

#[test]
fn tracing_never_changes_flow_results() {
    let _guard = lock();
    let network = net(13);
    let opts = FlowOptions::default();
    obs::trace::set_enabled(false);
    obs::trace::clear();
    let plain = congestion_flow(&network, 0.5, &opts).unwrap();
    obs::trace::set_enabled(true);
    obs::trace::clear();
    let traced = congestion_flow(&network, 0.5, &opts).unwrap();
    obs::trace::set_enabled(false);
    assert!(!obs::trace::take_events().is_empty());
    assert_eq!(plain.num_cells, traced.num_cells);
    assert_eq!(plain.cell_area, traced.cell_area);
    assert_eq!(plain.route.violations, traced.route.violations);
    assert_eq!(plain.route.total_wirelength, traced.route.total_wirelength);
    assert_eq!(plain.sta.critical_arrival(), traced.sta.critical_arrival());
}
