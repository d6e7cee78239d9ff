//! The three library workloads — `spla_edge`, `paper_cold`, `k_ladder` —
//! which call the synthesis flow in-process on paper-scale designs.
//!
//! The untraced run times the flow's public entry points as a user of
//! the library would call them. The traced run drives the same inputs
//! once more through the public function of every stage, in
//! `full_flow`'s order, with a span around each call.

use crate::gen::{self, Rng, Shape, TwoLevel};
use crate::metrics::LayerValues;
use crate::run::{
    goes_on, peak_rss_mb, Checks, Config, Outcome, Round, Row, Scale, Timed, Workload, SETUP_REPS,
};
use crate::stats::{median, median_us};
use crate::trace::Recorder;
use casyn_core::{map, partition, CostKind, MapOptions, PartitionScheme};
use casyn_exec::Pool;
use casyn_flow::{
    congestion_flow_prepared, k_sweep_prepared_pool, parse_design, prepare, sis_flow, DesignFormat,
    FlowOptions, FlowResult, Prepared,
};
use casyn_library::corelib018;
use casyn_logic::{decompose, optimize, OptimizeOptions};
use casyn_netlist::blif::to_blif;
use casyn_netlist::network::Network;
use casyn_netlist::Point;
use casyn_place::instance::{assign_mapped_ports, from_subject};
use casyn_place::metrics::total_hpwl_of_instance;
use casyn_place::{legalize_rows, place_subject_pool, Floorplan};
use casyn_route::route_mapped;
use casyn_timing::analyze_routed;
use std::time::Instant;

/// The 12-K ladder of the paper's Tables 2 and 4 (`TABLE_K_VALUES`).
pub const LADDER: [f64; 12] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0];

/// K of the edge flow and of the cold congestion leg.
const EDGE_K: f64 = 1.0;
const COLD_K: f64 = 0.5;

/// Routing supply that leaves the SPLA-class design unroutable however
/// long the router negotiates, but under the ratio at which it gives up:
/// every seed runs all `max_iters` and ends with violations. (At 5.0 the
/// residual overflow is a third of this and the seed-to-seed spread of
/// the wall time twice as wide; at 4.0 the router gives up after two
/// iterations.)
const EDGE_CAPACITY: f64 = 4.5;
/// Ample supply: every design of the other workloads routes clean.
const AMPLE_CAPACITY: f64 = 8.0;

/// Vectors of the mapped-netlist ≡ source-network check.
const CHECK_VECTORS: usize = 256;

fn shape(base: Shape, scale: Scale) -> Shape {
    match scale {
        Scale::Paper => base,
        Scale::Tiny => base.scaled(4),
    }
}

/// The experiment set-up of `casyn_bench::experiment`: die sized for
/// 61.1 % utilisation of the minimum-area mapping, calibrated pin
/// blockage, and the routing supply of the workload.
fn experiment_opts(capacity_scale: f64) -> FlowOptions {
    let mut opts = FlowOptions { target_utilization: 0.611, ..Default::default() };
    opts.route.pin_blockage = 0.8;
    opts.route.capacity_scale = capacity_scale;
    opts
}

fn parse(text: &str, format: DesignFormat, what: &str) -> Network {
    parse_design(text, format, what).expect("generated design text parses").core
}

/// One flow's result with the network it must be equivalent to.
struct Flowed {
    k: f64,
    result: FlowResult,
    /// Index into the workload's source networks.
    source: usize,
}

/// One design as text, and the flows to run on its prepared form as
/// `(K, mapper options)`: what the staged pass drives stage by stage.
struct Leg {
    name: &'static str,
    text: String,
    format: DesignFormat,
    optimize: bool,
    flows: Vec<(f64, MapOptions)>,
}

/// A workload set up.
struct Bench {
    workload: Workload,
    legs: Vec<Leg>,
    /// The parsed source of every leg, for the equivalence check.
    sources: Vec<Network>,
    opts: FlowOptions,
    /// `spla_edge` and `k_ladder` prepare in set-up and time only what
    /// runs per K; `paper_cold` times everything from text (`None`).
    prep: Option<Prepared>,
    /// Wall of that `prepare` call.
    prepare_ms: f64,
}

fn congestion_map_opts(k: f64) -> MapOptions {
    MapOptions {
        scheme: PartitionScheme::PlacementDriven,
        cost: CostKind::AreaWire { k },
        ..Default::default()
    }
}

fn sis_map_opts() -> MapOptions {
    MapOptions { scheme: PartitionScheme::Cone, cost: CostKind::Area, ..Default::default() }
}

fn set_up(cfg: &Config) -> Bench {
    let design = |base: Shape, stream: u64| {
        TwoLevel::generate(shape(base, cfg.scale), &mut Rng::stream(cfg.seed, stream))
    };
    let workload = cfg.workload;
    match workload {
        Workload::SplaEdge | Workload::KLadder => {
            let (base, capacity, ks) = if workload == Workload::KLadder {
                (gen::PDC, AMPLE_CAPACITY, LADDER.to_vec())
            } else {
                (gen::SPLA, EDGE_CAPACITY, vec![EDGE_K])
            };
            let text = design(base, 1).to_pla();
            let network = parse(&text, DesignFormat::Pla, workload.name());
            // as `casyn_bench::experiment`: prepare derives the die, which
            // then stays fixed for every K
            let mut opts = experiment_opts(capacity);
            let t = Instant::now();
            let prep = prepare(&network, &opts).expect("prepare succeeds on a generated design");
            let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
            opts.floorplan = Some(prep.floorplan);
            let leg = Leg {
                name: workload.name(),
                text,
                format: DesignFormat::Pla,
                optimize: false,
                flows: ks.iter().map(|&k| (k, congestion_map_opts(k))).collect(),
            };
            Bench {
                workload,
                legs: vec![leg],
                sources: vec![network],
                opts,
                prep: Some(prep),
                prepare_ms,
            }
        }
        Workload::PaperCold => {
            let legs = vec![
                Leg {
                    name: "spla_cold",
                    text: design(gen::SPLA, 1).to_pla(),
                    format: DesignFormat::Pla,
                    optimize: false,
                    flows: vec![(COLD_K, congestion_map_opts(COLD_K))],
                },
                Leg {
                    name: "too_large_sis",
                    text: design(gen::TOO_LARGE, 2).to_blif("too_large"),
                    format: DesignFormat::Blif,
                    optimize: true,
                    flows: vec![(0.0, sis_map_opts())],
                },
            ];
            let sources = legs.iter().map(|l| parse(&l.text, l.format, l.name)).collect();
            Bench {
                workload,
                legs,
                sources,
                opts: experiment_opts(AMPLE_CAPACITY),
                prep: None,
                prepare_ms: 0.0,
            }
        }
        Workload::ServeCold | Workload::ServeWarm => {
            unreachable!("the serve workloads live in service.rs")
        }
    }
}

/// What `casyn map <design.pla>` does: text → network → prepare → flow.
fn spla_cold_leg(leg: &Leg, opts: &FlowOptions) -> FlowResult {
    let network = parse(&leg.text, leg.format, leg.name);
    let prep = prepare(&network, opts).expect("prepare succeeds");
    congestion_flow_prepared(&prep, COLD_K, opts).expect("cold flow succeeds")
}

impl Bench {
    /// The timed operation, through the program's own entry points. One
    /// call is one job.
    fn operate(&self) -> Vec<Flowed> {
        let prepared = || self.prep.as_ref().expect("set-up prepared the design");
        match self.workload {
            Workload::SplaEdge => {
                let result = congestion_flow_prepared(prepared(), EDGE_K, &self.opts)
                    .expect("edge flow succeeds");
                vec![Flowed { k: EDGE_K, result, source: 0 }]
            }
            // serial on purpose: the pooled ladder is a per-layer number
            // (exec.*), too noisy for an end-to-end metric
            Workload::KLadder => {
                k_sweep_prepared_pool(prepared(), &LADDER, &self.opts, &Pool::serial())
                    .expect("ladder flows succeed")
                    .into_iter()
                    .map(|e| Flowed { k: e.k, result: e.result, source: 0 })
                    .collect()
            }
            Workload::PaperCold => {
                let sis = sis_flow(
                    &parse(&self.legs[1].text, self.legs[1].format, "too_large"),
                    &self.opts,
                )
                .expect("sis flow succeeds");
                vec![
                    Flowed {
                        k: COLD_K,
                        result: spla_cold_leg(&self.legs[0], &self.opts),
                        source: 0,
                    },
                    Flowed { k: 0.0, result: sis, source: 1 },
                ]
            }
            Workload::ServeCold | Workload::ServeWarm => {
                unreachable!("the serve workloads live in service.rs")
            }
        }
    }
}

/// The untraced run: set up [`SETUP_REPS`] times, repeat the operation
/// for `cfg.seconds`, then check the outputs.
pub fn run_untraced(cfg: &Config) -> Outcome {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        bench = Some(set_up(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("SETUP_REPS is at least 1");
    let mut first: Option<Vec<Flowed>> = None;
    let mut checks = Checks::default();
    let mut rep_wall_s = Vec::new();
    while goes_on(cfg.seconds, &rep_wall_s) {
        let t = Instant::now();
        let flowed = bench.operate();
        rep_wall_s.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(flowed),
            Some(base) => checks.require(rows(base) == rows(&flowed), || {
                "a repetition on the same inputs gave different rows".to_string()
            }),
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let flowed = first.expect("the operation ran at least once");
    check_outputs(cfg, &bench, &flowed, &mut checks);
    let timed = Timed {
        setup_s,
        attempted: rep_wall_s.len() as u64,
        failed: 0,
        rows: rows(&flowed),
        peak_rss_mb,
        rounds: rep_wall_s.iter().map(|&s| Round { wall_s: s, job_ms: vec![s * 1e3] }).collect(),
    };
    Outcome {
        correct: checks.failures.is_empty(),
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: timed.metrics(),
        failures: checks.failures,
    }
}

fn rows(flowed: &[Flowed]) -> Vec<Row> {
    flowed.iter().map(|f| Row::of(f.k, &f.result)).collect()
}

/// The output checks every library run makes, traced or not.
fn check_outputs(cfg: &Config, bench: &Bench, flowed: &[Flowed], checks: &mut Checks) {
    let lib = &bench.opts.lib;
    let name = bench.workload.name();
    for (index, source) in bench.sources.iter().enumerate() {
        // the reference is the source network's own simulator, not the
        // mapper: a mapping bug cannot hide in both. The vectors are dealt
        // round the netlists mapped from this source (12 on the ladder),
        // so every netlist is checked and the check costs the same on
        // every workload
        let mapped: Vec<&Flowed> = flowed.iter().filter(|f| f.source == index).collect();
        let mut rng = Rng::stream(cfg.seed, 99);
        let vectors = gen::vectors(source.inputs().len(), CHECK_VECTORS, &mut rng);
        for (i, v) in vectors.iter().enumerate() {
            let f = mapped[i % mapped.len()];
            let got = f.result.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), v);
            checks.require(got == source.simulate_outputs(v), || {
                format!("{name}: mapped netlist at K={} differs from its source on vector {i}", f.k)
            });
        }
    }
    let edge = cfg.workload == Workload::SplaEdge;
    for f in flowed {
        let route = &f.result.route;
        if !edge {
            checks.require(route.violations == 0, || {
                format!("{name}: {} violations at K={} with ample supply", route.violations, f.k)
            });
        } else if cfg.scale == Scale::Paper {
            // the regime: negotiation runs to the end and does not converge
            let max_iters = bench.opts.route.max_iters;
            checks.require(route.iterations == max_iters && route.violations > 0, || {
                format!(
                    "{name}: out of the edge regime ({} of {max_iters} iterations, {} violations)",
                    route.iterations, route.violations
                )
            });
        }
    }
    if cfg.workload == Workload::KLadder {
        // the paper's tables: area rises with K. Ties in the covering make
        // single steps dip by a fraction of a percent, so a step may lose
        // at most 1 %, and the whole ladder must not lose area
        let area = |f: &Flowed| f.result.cell_area;
        for w in flowed.windows(2) {
            checks.require(area(&w[1]) >= 0.99 * area(&w[0]), || {
                format!(
                    "{name}: cell area falls from {} at K={} to {} at K={}",
                    area(&w[0]),
                    w[0].k,
                    area(&w[1]),
                    w[1].k
                )
            });
        }
        let (first, last) = (&flowed[0], &flowed[flowed.len() - 1]);
        checks.require(area(last) >= area(first), || {
            format!("{name}: K={} costs less area than K={}", last.k, first.k)
        });
    }
}

/// Span names of the staged pass, `layer.function`.
mod span {
    pub const LEG: &str = "flow.leg";
    pub const PARSE: &str = "netlist.parse_design";
    pub const OPTIMIZE: &str = "logic.optimize";
    pub const DECOMPOSE: &str = "logic.decompose";
    pub const FLOORPLAN_MAP: &str = "core.map.floorplan";
    pub const PLACE: &str = "place.place_subject_pool";
    pub const FULL_FLOW: &str = "flow.full_flow";
    pub const PARTITION: &str = "core.partition";
    pub const MAP: &str = "core.map";
    pub const LEGALIZE: &str = "place.legalize_rows";
    pub const ROUTE: &str = "route.route_mapped";
    pub const STA: &str = "timing.analyze_routed";
}

/// Drives one leg through the public function of every stage in
/// `prepare` + `full_flow` order, a span around each call and the counts
/// of the stage on its span. Returns the rows, which must equal the rows
/// of the program's own entry points.
fn staged_leg(rec: &Recorder, leg: &Leg, opts: &FlowOptions) -> Vec<Row> {
    let flow = leg.name;
    let root = rec.open(None, span::LEG, flow);
    let id = rec.open(Some(root), span::PARSE, flow);
    let mut network = parse(&leg.text, leg.format, leg.name);
    rec.close(id, &[("bytes", leg.text.len() as f64), ("nodes", network.num_nodes() as f64)]);
    if leg.optimize {
        let id = rec.open(Some(root), span::OPTIMIZE, flow);
        let saved = optimize(&mut network, &OptimizeOptions::default());
        rec.close(id, &[("literals_saved", saved as f64)]);
    }
    let id = rec.open(Some(root), span::DECOMPOSE, flow);
    let (graph, _) = decompose(&network).graph.sweep();
    rec.close(id, &[("base_gates", graph.num_gates() as f64)]);
    // the floorplan: a throw-away minimum-area mapping sizes the die
    let id = rec.open(Some(root), span::FLOORPLAN_MAP, flow);
    let dummy = vec![Point::default(); graph.num_vertices()];
    let area = map(&graph, &dummy, &opts.lib, &MapOptions::default()).netlist.cell_area();
    let floorplan = Floorplan::with_area(area / opts.target_utilization, 1.0);
    rec.close(id, &[("cell_area_um2", area)]);
    let id = rec.open(Some(root), span::PLACE, flow);
    let positions = place_subject_pool(&graph, &floorplan, &opts.placer, &Pool::serial())
        .expect("placement succeeds");
    rec.close(id, &[]);
    // HPWL of the placement, worked out after the span has its end
    let built = from_subject(&graph, &floorplan);
    let mut cell_pos = vec![Point::default(); built.instance.num_cells()];
    for (v, cell) in built.cell_of_vertex.iter().enumerate() {
        if let Some(c) = cell {
            cell_pos[*c] = positions[v];
        }
    }
    rec.annotate(id, "hpwl_um", total_hpwl_of_instance(&built.instance, &cell_pos));

    let mut rows = Vec::new();
    for (k, map_opts) in &leg.flows {
        let flow = format!("{}:k={k}", leg.name);
        let top = rec.open(Some(root), span::FULL_FLOW, &flow);
        // the mapper partitions internally; this extra call times it alone
        let id = rec.open(Some(top), span::PARTITION, &flow);
        let forest = partition(&graph, map_opts.scheme, &positions);
        rec.close(id, &[("trees", forest.trees.len() as f64)]);
        let id = rec.open(Some(top), span::MAP, &flow);
        let mapped = map(&graph, &positions, &opts.lib, map_opts);
        let mut nl = mapped.netlist;
        rec.close(
            id,
            &[
                ("trees", mapped.stats.num_trees as f64),
                ("cells", nl.num_cells() as f64),
                ("est_wl_um", mapped.stats.est_wirelength),
                ("duplicated_covers", mapped.stats.duplicated_covers as f64),
            ],
        );
        let id = rec.open(Some(top), span::LEGALIZE, &flow);
        assign_mapped_ports(&mut nl, &floorplan);
        let desired: Vec<Point> = nl.cells().iter().map(|c| c.pos).collect();
        let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
        let legal = legalize_rows(&desired, &widths, &floorplan);
        for (cell, p) in nl.cells_mut().iter_mut().zip(&legal.pos) {
            cell.pos = *p;
        }
        rec.close(id, &[("displacement_um", legal.displacement)]);
        let id = rec.open(Some(top), span::ROUTE, &flow);
        let route = route_mapped(&nl, &floorplan, &opts.route).expect("routing succeeds");
        let rerouted: usize = route.convergence.iters.iter().map(|i| i.rerouted).sum();
        rec.close(
            id,
            &[
                ("iterations", route.iterations as f64),
                ("nets", route.net_wirelength.len() as f64),
                ("rerouted", rerouted as f64),
                ("overflow", route.overflow),
                ("overflowed_edges", route.overflowed_edges as f64),
                ("max_util", route.convergence.iters.last().map_or(0.0, |i| i.max_util)),
                ("violations", route.violations as f64),
            ],
        );
        let id = rec.open(Some(top), span::STA, &flow);
        let sta = analyze_routed(&nl, &opts.lib, &opts.timing, &route.net_wirelength);
        rec.close(id, &[("critical_ns", sta.critical_arrival())]);
        rec.close(top, &[("k", *k)]);
        rows.push(Row {
            k: *k,
            cells: nl.num_cells(),
            cell_area: nl.cell_area(),
            violations: route.violations,
            wirelength: route.total_wirelength,
            critical: sta.critical_arrival(),
        });
    }
    rec.close(root, &[]);
    rows
}

/// The traced run: the operation once through the program's own entry
/// points (untraced), then stage by stage with spans, then the probes
/// of the layers the operation does not show from outside.
pub fn run_traced(cfg: &Config) -> Outcome {
    let bench = set_up(cfg);
    let mut checks = Checks::default();
    let mut values = LayerValues::default();

    let alloc_before = casyn_obs::alloc::allocated_bytes();
    let t = Instant::now();
    let flowed = bench.operate();
    let whole_ms = t.elapsed().as_secs_f64() * 1e3;
    let allocated = casyn_obs::alloc::allocated_bytes() - alloc_before;
    check_outputs(cfg, &bench, &flowed, &mut checks);

    let rec = Recorder::default();
    let mut staged_rows = Vec::new();
    for leg in &bench.legs {
        staged_rows.extend(staged_leg(&rec, leg, &bench.opts));
    }
    // timing aside, the stages called one by one are the flow: the rows
    // must be the very same numbers
    checks.require(staged_rows == rows(&flowed), || {
        format!("{}: stage-by-stage rows differ from the flow's own", cfg.workload.name())
    });

    let sum = |name: &str| rec.durations_ms(name).iter().sum::<f64>();
    // a count of a stage: its median over the flows, or its sum over the legs
    let count = |name: &str, key: &str| median(&rec.counts(name, key));
    let total = |name: &str, key: &str| rec.counts(name, key).iter().sum::<f64>();
    values.set("netlist.parse_ms", rec.median_ms(span::PARSE));
    values.set(
        "netlist.parse_mb_per_s",
        total(span::PARSE, "bytes") / 1e6 / (sum(span::PARSE) / 1e3),
    );
    values.set(
        "netlist.write_blif_ms",
        median_us(3, || to_blif(&bench.sources[0], "bench").len()) / 1e3,
    );
    values.set("logic.optimize_ms", rec.median_ms(span::OPTIMIZE));
    values.set("logic.decompose_ms", rec.median_ms(span::DECOMPOSE));
    values.set("logic.base_gates", total(span::DECOMPOSE, "base_gates"));
    values.set("library.build_us", median_us(20, corelib018));
    values.set("place.global_ms", rec.median_ms(span::PLACE));
    values.set("place.hpwl_um", total(span::PLACE, "hpwl_um"));
    values.set("place.legalize_ms", rec.median_ms(span::LEGALIZE));
    values.set("place.legalize_disp_um", count(span::LEGALIZE, "displacement_um"));
    values.set("core.floorplan_map_ms", rec.median_ms(span::FLOORPLAN_MAP));
    values.set("core.partition_ms", rec.median_ms(span::PARTITION));
    values.set("core.map_ms", rec.median_ms(span::MAP));
    values.set("core.trees", count(span::MAP, "trees"));
    values.set("core.cells", count(span::MAP, "cells"));
    values.set("core.est_wl_um", count(span::MAP, "est_wl_um"));
    values.set("core.duplicated_covers", count(span::MAP, "duplicated_covers"));
    values.set("route.route_ms", rec.median_ms(span::ROUTE));
    values.set("route.iterations", count(span::ROUTE, "iterations"));
    values.set("route.ms_per_iter", sum(span::ROUTE) / total(span::ROUTE, "iterations"));
    values.set("route.nets", count(span::ROUTE, "nets"));
    values.set("route.rerouted", count(span::ROUTE, "rerouted"));
    values.set("route.overflow", count(span::ROUTE, "overflow"));
    values.set("route.overflowed_edges", count(span::ROUTE, "overflowed_edges"));
    values.set("route.max_util", count(span::ROUTE, "max_util"));
    values.set("route.violations", total(span::ROUTE, "violations"));
    values.set("timing.sta_ms", rec.median_ms(span::STA));

    // traced against untraced, like with like: when the operation starts
    // from a prepared design only the spans under full_flow redo its work,
    // and the flow itself never calls partition on its own
    let redone = if bench.prep.is_none() { span::LEG } else { span::FULL_FLOW };
    let traced_ms = sum(redone) - sum(span::PARTITION);
    let flows = flowed.len() as f64;
    values.set("flow.prepare_ms", bench.prepare_ms);
    values.set("flow.flow_ms", whole_ms / flows);
    values.set("obs.allocated_mb", allocated as f64 / 1e6);
    values.set("bench.trace_overhead_pct", 100.0 * (traced_ms - whole_ms) / whole_ms);
    values.set("bench.failed_share", 0.0);

    match cfg.workload {
        Workload::KLadder => probe_pool(&bench, whole_ms, &mut values),
        Workload::PaperCold => probe_obs_overhead(&bench, &mut values),
        _ => {}
    }

    rec.write(&cfg.out_dir, cfg.workload.name(), cfg.seed);
    Outcome {
        correct: checks.failures.is_empty(),
        attempted: 1,
        failed: 0,
        metrics: values.finish(),
        failures: checks.failures,
    }
}

/// `exec.*`: the ladder on an `nproc`-worker pool against the serial
/// ladder just measured, and the pool's per-item dispatch cost.
fn probe_pool(bench: &Bench, serial_ms: f64, values: &mut LayerValues) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prep = bench.prep.as_ref().expect("the ladder runs on a prepared design");
    let leg = &bench.legs[0];
    let ks: Vec<f64> = leg.flows.iter().map(|(k, _)| *k).collect();
    let t = Instant::now();
    let pooled = k_sweep_prepared_pool(prep, &ks, &bench.opts, &Pool::new(workers))
        .expect("pooled ladder succeeds");
    let pooled_s = t.elapsed().as_secs_f64();
    std::hint::black_box(pooled);
    values.set("exec.pooled_ladder_s", pooled_s);
    values.set("exec.pool_speedup", serial_ms / 1e3 / pooled_s);
    let items: Vec<u64> = (0..1000).collect();
    let pool = Pool::new(workers);
    let per_call_us = median_us(5, || pool.par_map(&items, |x| x.wrapping_mul(3)));
    values.set("exec.dispatch_us", per_call_us / items.len() as f64);
}

/// `obs.enabled_overhead_pct`: the SPLA cold leg with the program's own
/// metrics and tracing switched on, against the same leg with both off
/// (one run before and one after, so drift cancels).
fn probe_obs_overhead(bench: &Bench, values: &mut LayerValues) {
    let timed = || {
        let t = Instant::now();
        std::hint::black_box(spla_cold_leg(&bench.legs[0], &bench.opts));
        t.elapsed().as_secs_f64()
    };
    let off_before = timed();
    casyn_obs::set_enabled(true);
    casyn_obs::trace::set_enabled(true);
    let on = timed();
    casyn_obs::trace::set_enabled(false);
    casyn_obs::set_enabled(false);
    casyn_obs::trace::clear();
    let off = (off_before + timed()) / 2.0;
    values.set("obs.enabled_overhead_pct", 100.0 * (on - off) / off);
}
