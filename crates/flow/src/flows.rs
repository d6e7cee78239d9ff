//! The three synthesis flows compared by the paper, plus the shared
//! front end and the two back-end stages every flow is made of:
//! [`prepare`] once per design, then [`map_at`] (map, legalize) and
//! [`route_at`] (route, STA) per mapping.
//!
//! Every flow entry point returns `Result<_, FlowError>`: a stage that
//! cannot proceed reports *where* and *why* instead of panicking, so the
//! sweep/batch drivers above can retry, degrade or skip. When
//! [`FlowOptions::validate`] is set (the default in debug builds), a
//! [`crate::check`] invariant check runs at every stage boundary; a
//! [`FlowOptions::fault`] plan injects deterministic faults at the same
//! boundaries for testing the recovery machinery.

use crate::check;
use crate::error::{FlowError, FlowErrorKind, Stage};
use crate::telemetry::{FlowTelemetry, StageScope};
use casyn_core::{map, CostKind, MapOptions, MapStats, PartitionScheme};
use casyn_exec::Pool;
use casyn_exec::{FaultKind, FaultPlan};
use casyn_library::{corelib018, Library};
use casyn_logic::{decompose, optimize, OptimizeOptions};
use casyn_netlist::mapped::{MappedNetlist, SignalRef};
use casyn_netlist::network::Network;
use casyn_netlist::subject::SubjectGraph;
use casyn_netlist::Point;
use casyn_place::instance::assign_mapped_ports;
use casyn_place::{legalize_rows, place_subject_pool, Floorplan, PlacerOptions};
use casyn_route::{route_mapped, RouteConfig, RouteResult};
use casyn_timing::{analyze_routed, StaResult, TimingConfig};

/// Options shared by all flows.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// The cell library (defaults to [`corelib018`]).
    pub lib: Library,
    /// Placement tuning.
    pub placer: PlacerOptions,
    /// Routing technology and negotiation parameters.
    pub route: RouteConfig,
    /// STA parameters.
    pub timing: TimingConfig,
    /// A fixed floorplan; when `None`, one is derived from the min-area
    /// cell area at `target_utilization`.
    pub floorplan: Option<Floorplan>,
    /// Target utilization used when deriving a floorplan (the paper's
    /// SPLA experiment sits at 61.1% for K = 0).
    pub target_utilization: f64,
    /// Technology-independent optimization effort (the "SIS" phase);
    /// `None` skips extraction.
    pub optimize: Option<OptimizeOptions>,
    /// Run the stage-boundary invariant checks of [`crate::check`]. On by
    /// default in debug builds; the CLI's `--validate` turns it on in
    /// release.
    pub validate: bool,
    /// Deterministic fault-injection plan (testing only): fires at stage
    /// boundaries, shared across every flow run using these options.
    pub fault: Option<FaultPlan>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            lib: corelib018(),
            placer: PlacerOptions::default(),
            route: RouteConfig::default(),
            timing: TimingConfig::default(),
            floorplan: None,
            target_utilization: 0.611,
            optimize: None,
            validate: cfg!(debug_assertions),
            fault: None,
        }
    }
}

/// Fires the fault plan (if any) at a stage boundary. `Ok(true)` means a
/// corrupt-intermediate fault fired and the caller must corrupt its
/// artifact; deadline faults become typed errors here; panic faults never
/// return (they raise inside [`FaultPlan::fire`]).
fn fire_fault(opts: &FlowOptions, stage: Stage) -> Result<bool, FlowError> {
    let Some(plan) = &opts.fault else { return Ok(false) };
    let fired = plan.fire(stage.name());
    if let Some(kind) = &fired {
        casyn_obs::trace::instant(
            "fault.injected",
            &[
                ("stage", casyn_obs::trace::AttrValue::Str(stage.name().into())),
                ("kind", casyn_obs::trace::AttrValue::Str(format!("{kind:?}").to_lowercase())),
            ],
        );
    }
    match fired {
        None => Ok(false),
        Some(FaultKind::Corrupt) => Ok(true),
        Some(FaultKind::Deadline) => Err(FlowError::new(
            stage,
            FlowErrorKind::Deadline,
            format!("injected fault: deadline at stage {stage}"),
        )),
        Some(FaultKind::Panic) => unreachable!("panic faults raise inside FaultPlan::fire"),
        // I/O fault kinds are injected through the durable/socket seams,
        // never at flow-stage boundaries; a plan scheduling one here is a
        // no-op, matching how unknown stage names never fire
        Some(FaultKind::TornWrite | FaultKind::DiskFull | FaultKind::ConnDrop) => Ok(false),
    }
}

/// Fires the fault plan at a boundary whose artifact has no corruptor: a
/// corrupt fault scheduled there is a bad-input error.
pub(crate) fn stage_boundary(opts: &FlowOptions, stage: Stage) -> Result<(), FlowError> {
    if fire_fault(opts, stage)? {
        return Err(FlowError::bad_input(
            stage,
            "corrupt fault is not supported at this stage (supported: place, map, route)",
        ));
    }
    Ok(())
}

/// The shared front end: optimized network, subject graph, initial
/// placement and floorplan. The paper stresses that "the technology
/// independent netlist and its placement are generated only once" — reuse
/// one `Prepared` across every K.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The subject graph (NAND2/INV).
    pub graph: SubjectGraph,
    /// One position per subject vertex (the initial placement).
    pub positions: Vec<Point>,
    /// The floorplan all mappings are evaluated against.
    pub floorplan: Floorplan,
    /// Base-gate count (the paper's benchmark size metric).
    pub base_gates: usize,
    /// Per-stage telemetry of the front end (optimize, decompose,
    /// floorplan, place); cloned into every [`FlowResult`] built from
    /// this preparation.
    pub telemetry: FlowTelemetry,
}

/// The outcome of a full flow on one netlist.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The mapped netlist with legalized positions.
    pub netlist: MappedNetlist,
    /// The floorplan used.
    pub floorplan: Floorplan,
    /// Total cell area (µm²) — the tables' "Cell Area".
    pub cell_area: f64,
    /// Instance count — the tables' "No. of Cells".
    pub num_cells: usize,
    /// Cell area / die area × 100 — the tables' "Area Utilization%".
    pub utilization_pct: f64,
    /// Global-routing outcome; `route.violations` is the tables'
    /// "No. of Routing violations".
    pub route: RouteResult,
    /// Static timing analysis of the routed netlist.
    pub sta: StaResult,
    /// Mapper statistics.
    pub map_stats: MapStats,
    /// Per-stage telemetry for this run (front-end stages inherited from
    /// [`Prepared`], then map/legalize/route/sta).
    pub telemetry: FlowTelemetry,
}

/// Runs the front end: optional extraction, decomposition, floorplan
/// derivation and the initial placement of the unbound netlist.
/// Placement runs serially; use [`prepare_pool`] to fan its k-way
/// refinement out on a pool.
pub fn prepare(network: &Network, opts: &FlowOptions) -> Result<Prepared, FlowError> {
    prepare_pool(network, opts, &Pool::serial())
}

/// [`prepare`] with the placement stage's parallel refinement running on
/// `pool`. The result is bit-identical to [`prepare`] for any worker
/// count — the k-way placer's region-pair jobs are pure functions of a
/// per-round snapshot, applied in deterministic pair order.
pub fn prepare_pool(
    network: &Network,
    opts: &FlowOptions,
    pool: &Pool,
) -> Result<Prepared, FlowError> {
    let mut root = casyn_obs::trace::span("prepare");
    root.attr_num("network_nodes", network.num_nodes() as f64);
    let mut telemetry = FlowTelemetry::default();
    let mut network = network.clone();
    if let Some(eff) = &opts.optimize {
        let scope = StageScope::begin("optimize");
        optimize(&mut network, eff);
        scope.end(&mut telemetry);
        stage_boundary(opts, Stage::Optimize)?;
    }
    let scope = StageScope::begin("decompose");
    let dec = decompose(&network);
    let (graph, _) = dec.graph.sweep();
    let base_gates = graph.num_gates();
    scope.end(&mut telemetry);
    stage_boundary(opts, Stage::Decompose)?;
    if opts.validate {
        check::subject_dag(Stage::Decompose, &graph)?;
    }
    telemetry.observe_live_nodes(graph.num_vertices());
    let floorplan = match opts.floorplan {
        Some(fp) => fp,
        None => {
            let scope = StageScope::begin("floorplan");
            let fp = derive_floorplan(&graph, opts);
            scope.end(&mut telemetry);
            fp
        }
    };
    stage_boundary(opts, Stage::Floorplan)?;
    let scope = StageScope::begin("place");
    let placed = place_subject_pool(&graph, &floorplan, &opts.placer, pool);
    scope.end(&mut telemetry);
    let mut positions = placed.map_err(|e| FlowError::invariant(Stage::Place, e.to_string()))?;
    if fire_fault(opts, Stage::Place)? && !positions.is_empty() {
        let i = opts.fault.as_ref().map_or(0, |p| p.seed()) as usize % positions.len();
        positions[i] = Point::new(f64::NAN, f64::NAN);
    }
    if opts.validate {
        check::placement_in_bounds(Stage::Place, &positions, &floorplan)?;
    }
    Ok(Prepared { graph, positions, floorplan, base_gates, telemetry })
}

/// Derives a floorplan by running a throwaway min-area mapping to learn
/// the cell area, then sizing a square die at the target utilization.
fn derive_floorplan(graph: &SubjectGraph, opts: &FlowOptions) -> Floorplan {
    let dummy = vec![Point::default(); graph.num_vertices()];
    let r = map(graph, &dummy, &opts.lib, &MapOptions::default());
    Floorplan::with_area(r.netlist.cell_area() / opts.target_utilization, 1.0)
}

/// Maps a prepared design with explicit mapper options and runs
/// legalization, routing and STA: [`route_at`] of [`map_at`].
pub fn full_flow(
    prep: &Prepared,
    map_opts: &MapOptions,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    let mut root = casyn_obs::trace::span("flow");
    root.attr_str("scheme", &format!("{:?}", map_opts.scheme));
    if let CostKind::AreaWire { k } = map_opts.cost {
        root.attr_num("k", k);
    }
    route_at(map_at(prep, map_opts, opts)?, opts)
}

/// A mapped and legalized design: the seam between [`map_at`] and
/// [`route_at`]. A consumer that varies only what comes after mapping
/// (the routing supply, a re-placement, inserted flip-flops) maps once
/// and routes this as often as it needs.
#[derive(Debug, Clone)]
pub struct Mapped {
    /// The mapped netlist with ports assigned and legalized positions.
    pub netlist: MappedNetlist,
    /// The floorplan the netlist is legalized in.
    pub floorplan: Floorplan,
    /// Mapper statistics.
    pub map_stats: MapStats,
    /// Telemetry so far: the front end's stages, then map and legalize.
    pub telemetry: FlowTelemetry,
}

/// The first stage of [`full_flow`]: partition check, mapping, port
/// assignment and row legalization of the mapper's centre-of-mass seeds.
pub fn map_at(
    prep: &Prepared,
    map_opts: &MapOptions,
    opts: &FlowOptions,
) -> Result<Mapped, FlowError> {
    let mut telemetry = prep.telemetry.clone();
    telemetry.observe_live_nodes(prep.graph.num_vertices());
    stage_boundary(opts, Stage::Partition)?;
    if opts.validate {
        // the mapper partitions internally; recompute the forest to check
        // the cover before trusting the covering it produces
        let forest = casyn_core::partition(&prep.graph, map_opts.scheme, &prep.positions);
        check::partition_covers(&prep.graph, &forest)?;
    }
    let scope = StageScope::begin("map");
    let r = map(&prep.graph, &prep.positions, &opts.lib, map_opts);
    scope.end(&mut telemetry);
    let mut nl = r.netlist;
    if fire_fault(opts, Stage::Map)? && nl.num_cells() > 0 {
        // corrupt the netlist with a combinational self-loop
        let i = opts.fault.as_ref().map_or(0, |p| p.seed()) as usize % nl.num_cells();
        if !nl.cells()[i].inputs.is_empty() {
            nl.cells_mut()[i].inputs[0] = SignalRef::Cell(i as u32);
        }
    }
    if opts.validate {
        check::mapped_netlist(Stage::Map, &nl)?;
    }
    let scope = StageScope::begin("legalize");
    legalize(&mut nl, &prep.floorplan);
    scope.end(&mut telemetry);
    stage_boundary(opts, Stage::Legalize)?;
    if opts.validate {
        let cell_pos: Vec<Point> = nl.cells().iter().map(|c| c.pos).collect();
        check::placement_in_bounds(Stage::Legalize, &cell_pos, &prep.floorplan)?;
        check::mapped_netlist(Stage::Legalize, &nl)?;
    }
    Ok(Mapped { netlist: nl, floorplan: prep.floorplan, map_stats: r.stats, telemetry })
}

/// Pins the ports to the die edge and legalizes every cell's current
/// position into rows.
pub(crate) fn legalize(nl: &mut MappedNetlist, floorplan: &Floorplan) {
    assign_mapped_ports(nl, floorplan);
    let desired: Vec<Point> = nl.cells().iter().map(|c| c.pos).collect();
    let widths: Vec<f64> = nl.cells().iter().map(|c| c.width).collect();
    let legal = legalize_rows(&desired, &widths, floorplan);
    for (cell, p) in nl.cells_mut().iter_mut().zip(&legal.pos) {
        cell.pos = *p;
    }
}

/// The second stage of [`full_flow`]: global routing and STA of a
/// [`Mapped`] design. It consumes `mapped`, whose netlist moves into the
/// result; clone first to route one mapping more than once.
pub fn route_at(mapped: Mapped, opts: &FlowOptions) -> Result<FlowResult, FlowError> {
    let Mapped { netlist: nl, floorplan, map_stats, mut telemetry } = mapped;
    telemetry.observe_live_nodes(nl.num_cells());
    let scope = StageScope::begin("route");
    let routed = route_mapped(&nl, &floorplan, &opts.route);
    scope.end(&mut telemetry);
    let mut route = routed?;
    if fire_fault(opts, Stage::Route)? {
        // corrupt the result: drop one net's routed length
        route.net_wirelength.pop();
    }
    if opts.validate {
        check::route_complete(nl.nets().len(), &route)?;
    }
    // STA sees the congestion of the achieved routing: every net uses its
    // measured routed length, so congested nets pay their detours
    let scope = StageScope::begin("sta");
    let sta = analyze_routed(&nl, &opts.lib, &opts.timing, &route.net_wirelength);
    scope.end(&mut telemetry);
    stage_boundary(opts, Stage::Sta)?;
    Ok(FlowResult {
        cell_area: nl.cell_area(),
        num_cells: nl.num_cells(),
        utilization_pct: floorplan.utilization_pct(nl.cell_area()),
        route,
        sta,
        map_stats,
        floorplan,
        netlist: nl,
        telemetry,
    })
}

/// The paper's baseline: DAGON — multi-fanout tree partitioning, minimum
/// cell area, congestion-oblivious.
pub fn dagon_flow(network: &Network, opts: &FlowOptions) -> Result<FlowResult, FlowError> {
    let prep = prepare(network, opts)?;
    full_flow(&prep, &MapOptions { scheme: PartitionScheme::Dagon, cost: CostKind::Area }, opts)
}

/// The "SIS" flow: aggressive technology-independent extraction (maximum
/// sharing, minimum literals) followed by cone-partitioned minimum-area
/// mapping. Produces the smallest cell area and the worst congestion, as
/// in the paper's Tables 1 and 2.
pub fn sis_flow(network: &Network, opts: &FlowOptions) -> Result<FlowResult, FlowError> {
    let mut o = opts.clone();
    if o.optimize.is_none() {
        o.optimize = Some(OptimizeOptions::default());
    }
    let prep = prepare(network, &o)?;
    full_flow(&prep, &MapOptions { scheme: PartitionScheme::Cone, cost: CostKind::Area }, &o)
}

/// The paper's congestion-aware flow: placement-driven partitioning and
/// `AREA + K·WIRE` covering. `K = 0` degenerates to minimum-area
/// covering (the paper's "DAGON (K = 0.0)" baseline rows).
pub fn congestion_flow(
    network: &Network,
    k: f64,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    let prep = prepare(network, opts)?;
    congestion_flow_prepared(&prep, k, opts)
}

/// [`congestion_flow`] over an already-prepared design; use this to share
/// the placement across a K sweep.
pub fn congestion_flow_prepared(
    prep: &Prepared,
    k: f64,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    full_flow(
        prep,
        &MapOptions { scheme: PartitionScheme::PlacementDriven, cost: CostKind::AreaWire { k } },
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_net() -> Network {
        random_pla(&PlaGenConfig {
            inputs: 10,
            outputs: 6,
            terms: 40,
            min_literals: 3,
            max_literals: 6,
            mean_outputs_per_term: 1.4,
            seed: 42,
        })
        .to_network()
    }

    #[test]
    fn full_flow_produces_consistent_result() {
        let net = small_net();
        let opts = FlowOptions::default();
        let r = congestion_flow(&net, 0.001, &opts).unwrap();
        assert_eq!(r.num_cells, r.netlist.num_cells());
        assert!((r.cell_area - r.netlist.cell_area()).abs() < 1e-9);
        assert!(r.utilization_pct > 10.0 && r.utilization_pct < 100.0);
        assert!(r.sta.critical_arrival() > 0.0);
    }

    #[test]
    fn flows_preserve_function() {
        let net = small_net();
        let opts = FlowOptions::default();
        let lib = &opts.lib;
        let mut rng = StdRng::seed_from_u64(9);
        for r in [
            dagon_flow(&net, &opts).unwrap(),
            sis_flow(&net, &opts).unwrap(),
            congestion_flow(&net, 0.005, &opts).unwrap(),
        ] {
            for _ in 0..64 {
                let asg: Vec<bool> = (0..10).map(|_| rng.gen()).collect();
                assert_eq!(
                    net.simulate_outputs(&asg),
                    r.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg),
                    "flow output mismatch"
                );
            }
        }
    }

    #[test]
    fn sis_flow_has_smaller_area_than_dagon() {
        let net = small_net();
        let opts = FlowOptions::default();
        let sis = sis_flow(&net, &opts).unwrap();
        let dagon = dagon_flow(&net, &opts).unwrap();
        assert!(
            sis.cell_area < dagon.cell_area,
            "extraction must reduce area: sis {} vs dagon {}",
            sis.cell_area,
            dagon.cell_area
        );
    }

    #[test]
    fn shared_prepared_reuses_placement() {
        let net = small_net();
        let opts = FlowOptions::default();
        let prep = prepare(&net, &opts).unwrap();
        let a = congestion_flow_prepared(&prep, 0.0, &opts).unwrap();
        let b = congestion_flow_prepared(&prep, 0.0, &opts).unwrap();
        assert_eq!(a.num_cells, b.num_cells);
        assert_eq!(a.route.violations, b.route.violations);
    }

    #[test]
    fn larger_k_does_not_decrease_area() {
        let net = small_net();
        let opts = FlowOptions::default();
        let prep = prepare(&net, &opts).unwrap();
        let a0 = congestion_flow_prepared(&prep, 0.0, &opts).unwrap().cell_area;
        let a1 = congestion_flow_prepared(&prep, 10.0, &opts).unwrap().cell_area;
        assert!(a1 >= a0, "huge K must trade area: {a1} vs {a0}");
    }

    #[test]
    fn fixed_floorplan_is_respected() {
        let net = small_net();
        let fp = Floorplan::with_rows_and_area(40, 40.0 * 6.4 * 300.0);
        let opts = FlowOptions { floorplan: Some(fp), ..Default::default() };
        let r = dagon_flow(&net, &opts).unwrap();
        assert_eq!(r.floorplan, fp);
    }

    #[test]
    fn corrupt_place_fault_is_caught_by_validation() {
        let net = small_net();
        let opts = FlowOptions {
            validate: true,
            fault: Some(FaultPlan::parse("place:corrupt:1").unwrap()),
            ..Default::default()
        };
        let e = prepare(&net, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Place, FlowErrorKind::Invariant));
        assert!(e.detail.contains("finite"), "NaN position must be named: {e}");
    }

    #[test]
    fn corrupt_map_fault_is_caught_by_validation() {
        let net = small_net();
        let opts = FlowOptions {
            validate: true,
            fault: Some(FaultPlan::parse("map:corrupt:1").unwrap()),
            ..Default::default()
        };
        let e = congestion_flow(&net, 0.0, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Map, FlowErrorKind::Invariant));
    }

    #[test]
    fn corrupt_route_fault_is_caught_by_validation() {
        let net = small_net();
        let opts = FlowOptions {
            validate: true,
            fault: Some(FaultPlan::parse("route:corrupt:1").unwrap()),
            ..Default::default()
        };
        let e = congestion_flow(&net, 0.0, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Route, FlowErrorKind::Invariant));
        assert!(e.detail.contains("nets"));
    }

    #[test]
    fn deadline_fault_is_typed_not_a_panic() {
        let net = small_net();
        let opts = FlowOptions {
            fault: Some(FaultPlan::parse("decompose:deadline:1").unwrap()),
            ..Default::default()
        };
        let e = prepare(&net, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Decompose, FlowErrorKind::Deadline));
    }

    #[test]
    fn unsupported_corrupt_stage_reports_bad_input() {
        let net = small_net();
        let opts = FlowOptions {
            fault: Some(FaultPlan::parse("sta:corrupt:1").unwrap()),
            ..Default::default()
        };
        let e = congestion_flow(&net, 0.0, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Sta, FlowErrorKind::BadInput));
    }

    #[test]
    fn nth_occurrence_counts_across_runs_of_one_plan() {
        // the second flow sharing the plan trips the nth=2 fault; the
        // first passes — the retry semantics batch recovery relies on
        let net = small_net();
        let plan = FaultPlan::parse("route:deadline:2").unwrap();
        let opts = FlowOptions { fault: Some(plan), ..Default::default() };
        assert!(congestion_flow(&net, 0.0, &opts).is_ok());
        let e = congestion_flow(&net, 0.0, &opts).unwrap_err();
        assert_eq!(e.kind, FlowErrorKind::Deadline);
    }
}
