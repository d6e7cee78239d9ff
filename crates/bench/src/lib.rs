//! Experiment harness: shared setup for the binaries that regenerate
//! every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p casyn-bench --bin <name>`):
//!
//! * `figure1` — the worked min-area vs. congestion mapping example.
//! * `table1`  — TOO_LARGE: SIS vs DAGON routability.
//! * `table2`  — SPLA K sweep.
//! * `table3`  — SPLA static timing analysis.
//! * `table4`  — PDC K sweep.
//! * `table5`  — PDC static timing analysis.
//! * `motivation` — wireload-model misprediction (Section 2).
//! * `ablation` — partitioning scheme, legalization seeding, duplication pricing.

use casyn_core::{CostKind, MapOptions, PartitionScheme};
use casyn_exec::Pool;
use casyn_flow::{
    congestion_flow_prepared, format_k_sweep_table, format_sta_table, k_sweep_prepared, map_at,
    route_at, sis_flow, FlowOptions, FlowResult, Mapped, Prepared,
};
use casyn_logic::OptimizeOptions;
use casyn_netlist::network::Network;

/// The experiment setup of one paper benchmark: the prepared design and
/// the fixed floorplan every mapping is evaluated against.
pub struct Experiment {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// The two-level / multi-level source network.
    pub network: Network,
    /// Flow options with the fixed floorplan installed.
    pub opts: FlowOptions,
    /// The prepared (decomposed + placed) design.
    pub prep: Prepared,
}

/// Utilization the paper's K = 0 SPLA netlist has in its fixed die
/// (126521 / 207062 = 61.1%).
pub const SPLA_K0_UTILIZATION: f64 = 0.611;

/// Utilization of the paper's K = 0 PDC netlist (128438 / 229786).
pub const PDC_K0_UTILIZATION: f64 = 0.5589;

/// Utilization of the paper's TOO_LARGE DAGON netlist in Table 1
/// (129851 µm² at 84.37% ⇒ die 153915 µm²).
pub const TOO_LARGE_UTILIZATION: f64 = 0.8437;

/// Builds an experiment: derives the die so the K = 0 (min-area) mapping
/// sits at `k0_utilization`, mirroring how the paper fixes die sizes.
pub fn experiment(name: &'static str, network: Network, k0_utilization: f64) -> Experiment {
    let mut opts = FlowOptions { target_utilization: k0_utilization, ..Default::default() };
    // pin-escape blockage calibrated so that cell-density growth at large
    // K measurably erodes routability (see DESIGN.md)
    opts.route.pin_blockage = 0.8;
    let prep = casyn_flow::prepare(&network, &opts).expect("bench: prepare failed");
    opts.floorplan = Some(prep.floorplan);
    Experiment { name, network, opts, prep }
}

/// The SPLA experiment (Tables 2 and 3).
pub fn spla_experiment() -> Experiment {
    experiment("SPLA", casyn_netlist::bench::spla().to_network(), SPLA_K0_UTILIZATION)
}

/// The PDC experiment (Tables 4 and 5).
pub fn pdc_experiment() -> Experiment {
    experiment("PDC", casyn_netlist::bench::pdc().to_network(), PDC_K0_UTILIZATION)
}

/// The TOO_LARGE experiment (Table 1).
pub fn too_large_experiment() -> Experiment {
    experiment("TOO_LARGE", casyn_netlist::bench::too_large(), TOO_LARGE_UTILIZATION)
}

/// Bisects, in `steps` halvings of `[lo, hi]`, the routing-capacity scale
/// at which the congestion flow at `k` starts to route without
/// violations — the analogue of the paper fixing each die so the design
/// sits at the routability edge. The netlist is mapped once; only
/// routing runs per step. Returns the final bracket `(unroutable,
/// routable)`: the largest probed scale that still violates (or `lo`)
/// and the smallest that routes (or `hi`). The tables pin the supply on
/// the routable side of the edge at the K they probe, or on the
/// unroutable side of the K = 0 edge, so that — as in the paper — the
/// minimum-area mapping must NOT route and the window's few-percent
/// wirelength advantage is what rescues routability.
pub fn supply_edge(exp: &Experiment, k: f64, lo: f64, hi: f64, steps: usize) -> (f64, f64) {
    route_edge(exp, &map_k(exp, k), lo, hi, steps).bracket
}

/// The congestion mapping at `k` of the experiment's prepared design.
fn map_k(exp: &Experiment, k: f64) -> Mapped {
    let map_opts =
        MapOptions { scheme: PartitionScheme::PlacementDriven, cost: CostKind::AreaWire { k } };
    map_at(&exp.prep, &map_opts, &exp.opts).expect("bench: calibration map failed")
}

/// One supply search: the final bracket and what the router ran for it,
/// summed over the steps (one route each).
struct EdgeSearch {
    bracket: (f64, f64),
    iterations: usize,
    expanded: u64,
}

/// [`supply_edge`] of an already mapped netlist.
fn route_edge(exp: &Experiment, mapped: &Mapped, lo: f64, hi: f64, steps: usize) -> EdgeSearch {
    let mut opts = exp.opts.clone();
    let (mut lo, mut hi) = (lo, hi);
    let (mut iterations, mut expanded) = (0, 0);
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        opts.route.capacity_scale = mid;
        let r = route_at(mapped.clone(), &opts).expect("bench: calibration route failed");
        iterations += r.route.iterations;
        expanded += r.route.convergence.iters.iter().map(|i| i.expanded).sum::<u64>();
        if r.route.violations == 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    EdgeSearch { bracket: (lo, hi), iterations, expanded }
}

/// One point of the supply frontier: the K, the least routing supply
/// `s*` at which the K-mapped netlist routes (the routable side of
/// [`supply_edge`]), that netlist's cell area in µm², and what the
/// search for `s*` cost the router, summed over its supply steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// The mapper's wire weight.
    pub k: f64,
    /// Least routable capacity scale, to the supply search's resolution.
    pub supply: f64,
    /// Cell area of the K-mapped netlist.
    pub area: f64,
    /// Routing runs of the search (one per supply step).
    pub routes: usize,
    /// Negotiation iterations over those runs.
    pub iterations: usize,
    /// Gcells the A* searches of those runs expanded.
    pub expanded: u64,
}

/// The supply frontier `s*(K)` over `ks`: one [`supply_edge`] per K,
/// run on `pool`. Results come back in `ks` order and are bit-identical
/// to a serial run, since each K is a pure function of the experiment.
pub fn frontier(
    exp: &Experiment,
    ks: &[f64],
    lo: f64,
    hi: f64,
    steps: usize,
    pool: &Pool,
) -> Vec<FrontierPoint> {
    pool.par_map(ks, |&k| {
        let mapped = map_k(exp, k);
        let area = mapped.netlist.cell_area();
        let edge = route_edge(exp, &mapped, lo, hi, steps);
        FrontierPoint {
            k,
            supply: edge.bracket.1,
            area,
            routes: steps,
            iterations: edge.iterations,
            expanded: edge.expanded,
        }
    })
}

/// Prints the supply frontier over [`TABLE_K_VALUES`] with its two
/// summary numbers: the effect size `1 − min s*/s*(0)` (how much routing
/// supply K buys) and the area price `area(argmin s*)/area(0) − 1` (what
/// that supply costs), then what each K's search cost the router. The
/// K values run on [`Pool::from_env`].
pub fn print_frontier(exp: &Experiment, lo: f64, hi: f64, steps: usize) {
    let points = frontier(exp, &TABLE_K_VALUES, lo, hi, steps, &Pool::from_env());
    println!("\nsupply frontier s*(K), the least capacity scale that routes ({steps} halvings of [{lo}, {hi}]):");
    println!("{:>8} {:>8} {:>10}", "K", "s*", "area um2");
    for p in &points {
        println!("{:>8} {:>8.3} {:>10.0}", p.k, p.supply, p.area);
    }
    let k0 = &points[0];
    let best = points.iter().fold(k0, |b, p| if p.supply < b.supply { p } else { b });
    println!(
        "effect size 1 - min s*/s*(0) = {:.1} % (min at K = {}); area price area(argmin s*)/area(0) - 1 = {:+.1} %",
        100.0 * (1.0 - best.supply / k0.supply),
        best.k,
        100.0 * (best.area / k0.area - 1.0)
    );
    println!("\nfrontier cost, summed over each K's supply steps:");
    println!("{:>8} {:>8} {:>10} {:>14}", "K", "routes", "iterations", "expanded");
    for p in &points {
        println!("{:>8} {:>8} {:>10} {:>14}", p.k, p.routes, p.iterations, p.expanded);
    }
    let total = |f: fn(&FrontierPoint) -> u64| points.iter().map(f).sum::<u64>();
    println!(
        "{:>8} {:>8} {:>10} {:>14}",
        "total",
        total(|p| p.routes as u64),
        total(|p| p.iterations as u64),
        total(|p| p.expanded)
    );
}

/// The K values our tables sweep. The paper's K spans three regions on
/// its 0.0001–1.0 axis; our wire term is measured in micrometres of a
/// smaller synthetic die against areas in µm², so the same three regions
/// appear on a shifted axis.
pub const TABLE_K_VALUES: [f64; 12] =
    [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0];

/// One line judging a table against the paper's shape: every condition
/// with the yes/no the rows just printed give it, then whether all hold.
/// The bins print this instead of prose, so no run can print a claim its
/// own numbers contradict.
pub fn shape_verdict(conditions: &[(&str, bool)]) -> String {
    let judged: Vec<String> = conditions
        .iter()
        .map(|(what, holds)| format!("{what}: {}", if *holds { "yes" } else { "no" }))
        .collect();
    let all = conditions.iter().all(|(_, holds)| *holds);
    format!(
        "paper shape: {} -> {}",
        judged.join(" · "),
        if all { "matches paper" } else { "differs from paper" }
    )
}

/// Tables 2 and 4: sweeps [`TABLE_K_VALUES`] at the experiment's current
/// routing supply and prints the table and its shape verdict — the
/// paper's three regions (unroutable at K = 0, a routable window, then
/// unroutable again at very large K) and its monotone area columns.
pub fn print_k_sweep_table(exp: &Experiment, title: &str) {
    let rows =
        k_sweep_prepared(&exp.prep, &TABLE_K_VALUES, &exp.opts).expect("bench: table flow failed");
    println!("{}", format_k_sweep_table(title, &rows));
    let routable = |i: usize| rows[i].result.route.violations == 0;
    let any_routable = (0..rows.len()).any(routable);
    let non_decreasing = rows.windows(2).all(|w| {
        let (a, b) = (&w[0].result, &w[1].result);
        b.cell_area >= a.cell_area
            && b.num_cells >= a.num_cells
            && b.utilization_pct >= a.utilization_pct
    });
    println!(
        "{}",
        shape_verdict(&[
            ("K=0 unroutable", !routable(0)),
            ("a routable K exists", any_routable),
            ("unroutable again at the largest K", any_routable && !routable(rows.len() - 1)),
            ("area, cells and utilization non-decreasing in K", non_decreasing),
        ])
    );
}

/// Tables 3 and 5: STA of the K = 0, K = 0.1, K = 1 and bounded-effort
/// SIS netlists in the experiment's fixed die, with the arrival at the
/// K = 0 critical endpoint in each (the paper's middle column) and the
/// shape verdict — the window mapping routes where K = 0 does not and is
/// no slower, and SIS is slowest.
pub fn print_sta_table(exp: &Experiment, title: &str) {
    let flow = |k| congestion_flow_prepared(&exp.prep, k, &exp.opts).expect("flow failed");
    let (k0, window, deep) = (flow(0.0), flow(0.1), flow(1.0));
    let mut sis_opts = exp.opts.clone();
    sis_opts.optimize = Some(OptimizeOptions {
        max_cube_extractions: 900,
        max_kernel_extractions: 60,
        ..Default::default()
    });
    let sis = sis_flow(&exp.network, &sis_opts).expect("flow failed");
    println!(
        "{}",
        format_sta_table(title, &[("0.0", &k0), ("0.1", &window), ("1.0", &deep), ("SIS", &sis)])
    );
    println!(
        "routing violations: K=0 {}, K=0.1 {}, K=1 {}, SIS {}",
        k0.route.violations, window.route.violations, deep.route.violations, sis.route.violations
    );
    let k0_po = k0.netlist.outputs()[k0.sta.critical_po].0.clone();
    println!("\narrival at the K=0 critical endpoint ({k0_po}) in each netlist:");
    for (name, r) in [("K=0", &k0), ("K=0.1", &window), ("K=1", &deep), ("SIS", &sis)] {
        if let Some(at) = r.sta.arrival_of_output(&r.netlist, &k0_po) {
            println!("  {name:<6} {at:.2} ns");
        }
    }
    let arrival = |r: &FlowResult| r.sta.critical_arrival();
    println!(
        "{}",
        shape_verdict(&[
            ("K=0 unroutable", k0.route.violations > 0),
            ("K=0.1 or K=1 routes", window.route.violations == 0 || deep.route.violations == 0),
            ("arrival(K=0.1) <= arrival(K=0)", arrival(&window) <= arrival(&k0)),
            ("arrival(K=0) < arrival(SIS)", arrival(&k0) < arrival(&sis)),
        ])
    );
}
