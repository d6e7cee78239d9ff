//! Net decomposition, A* maze routing and the PathFinder negotiation loop.

use crate::audit::{build_audit, OverflowAudit};
use crate::congestion::CongestionMap;
use crate::grid::{GcellCoord, RouteConfig, RouteGrid};
use crate::heap::NodeHeap;
use crate::speculate;
use casyn_exec::Pool;
use casyn_netlist::mapped::{MappedNetlist, SignalRef};
use casyn_netlist::Point;
use casyn_obs as obs;
use casyn_obs::json::JsonValue;
use casyn_obs::Write;
use casyn_place::Floorplan;
use std::fmt;

/// Why a routing run could not produce a [`RouteResult`]. Routing is the
/// last consumer of every upstream stage's geometry, so these errors are
/// how corrupt placements (NaN positions, out-of-die pins) surface as
/// typed failures instead of silent gcell aliasing or panics.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// A net pin has a non-finite coordinate and cannot be mapped to a
    /// gcell. `pin` indexes the net's pin list (0 = driver for
    /// [`route_mapped`]).
    BadPin {
        /// Net index (the order of [`casyn_netlist::mapped::MappedNetlist::nets`]).
        net: usize,
        /// Pin index within the net.
        pin: usize,
        /// The offending coordinates.
        x: f64,
        y: f64,
    },
    /// A static blockage point has a non-finite coordinate.
    BadBlockage {
        /// Blockage index in the input list.
        index: usize,
        /// The offending coordinates.
        x: f64,
        y: f64,
    },
    /// The net's spanning tree over its gcells could not be completed —
    /// some pins remained unconnected after MST construction.
    TreeIncomplete {
        /// Net index.
        net: usize,
        /// Gcells reached by the tree.
        connected: usize,
        /// Gcells the net spans.
        total: usize,
    },
    /// A two-pin connection found no path between its gcells.
    PathNotFound {
        /// Net index.
        net: usize,
        /// Source gcell `(x, y)`.
        from: (u32, u32),
        /// Target gcell `(x, y)`.
        to: (u32, u32),
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadPin { net, pin, x, y } => {
                write!(f, "net {net} pin {pin} has non-finite position ({x}, {y})")
            }
            RouteError::BadBlockage { index, x, y } => {
                write!(f, "blockage {index} has non-finite position ({x}, {y})")
            }
            RouteError::TreeIncomplete { net, connected, total } => {
                write!(
                    f,
                    "net {net}: spanning tree incomplete ({connected} of {total} gcells connected)"
                )
            }
            RouteError::PathNotFound { net, from, to } => {
                write!(
                    f,
                    "net {net}: no path from gcell ({}, {}) to ({}, {})",
                    from.0, from.1, to.0, to.1
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// One negotiation iteration's summary, recorded as the rip-up-and-
/// reroute loop runs. This is the per-iteration ground truth behind the
/// paper's Fig. 3 decision — whether PathFinder is converging or the
/// design needs a larger K.
#[derive(Debug, Clone)]
pub struct RouteIterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Total overflow in track-segments after this iteration.
    pub overflow: f64,
    /// Number of gcell boundaries over capacity after this iteration.
    pub overflowed_edges: usize,
    /// Two-pin connections ripped up and rerouted this iteration.
    pub rerouted: usize,
    /// Of the `rerouted`, those whose search returned the path they had:
    /// an exact count, like `expanded`.
    pub unchanged: usize,
    /// Maximum boundary utilization (load / capacity) after this
    /// iteration.
    pub max_util: f64,
    /// Accumulated PathFinder history cost over all edges.
    pub history_cost: f64,
    /// Gcells the A* searches of this iteration expanded (took off the
    /// open set and relaxed the neighbours of). An exact count: it
    /// repeats run to run and moves only if the searches do.
    pub expanded: u64,
}

/// The per-iteration convergence series of one routing run. Its length
/// always equals [`RouteResult::iterations`]: one entry is recorded at
/// the end of every negotiation iteration, including the final one.
#[derive(Debug, Clone, Default)]
pub struct RouteConvergence {
    /// One record per negotiation iteration, in order.
    pub iters: Vec<RouteIterStats>,
}

impl RouteConvergence {
    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.iters.len()
    }

    /// True when no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.iters.is_empty()
    }

    /// The overflow trajectory, one value per iteration — the series the
    /// sparkline renderer draws.
    pub fn overflow_series(&self) -> Vec<f64> {
        self.iters.iter().map(|s| s.overflow).collect()
    }
}

/// The outcome of global routing.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Total residual overflow, rounded to whole track-segments — the
    /// "number of routing violations" reported in the paper's tables.
    pub violations: usize,
    /// Raw residual overflow (track-segments).
    pub overflow: f64,
    /// Number of gcell boundaries over capacity.
    pub overflowed_edges: usize,
    /// Total routed wirelength in micrometres.
    pub total_wirelength: f64,
    /// Negotiation iterations actually run.
    pub iterations: usize,
    /// Routed wirelength per input net, in micrometres, in the order the
    /// nets were passed (for [`route_mapped`], the order of
    /// [`MappedNetlist::nets`]). Nets entirely within one gcell have
    /// length 0.
    pub net_wirelength: Vec<f64>,
    /// The final congestion map.
    pub congestion: CongestionMap,
    /// Per-iteration convergence series (`convergence.len() ==
    /// iterations`).
    pub convergence: RouteConvergence,
    /// Overflow attribution: which nets drive the demand on each
    /// over-capacity boundary. Empty when the design routed cleanly.
    pub audit: OverflowAudit,
}

impl RouteResult {
    /// True when the design routed without violations.
    pub fn is_routable(&self) -> bool {
        self.violations == 0
    }

    /// Serializes the routing outcome and its convergence series as a
    /// `casyn.route.v1` document:
    ///
    /// ```json
    /// {
    ///   "schema": "casyn.route.v1",
    ///   "iterations": 4, "violations": 0, "overflow": 0,
    ///   "overflowed_edges": 0, "total_wirelength": 123.4,
    ///   "series": [
    ///     {"iter": 0, "overflow": 9.5, "overflowed_edges": 3,
    ///      "rerouted": 40, "unchanged": 0, "max_util": 1.2,
    ///      "history_cost": 1.9, "expanded": 5120},
    ///     ...
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> JsonValue {
        let series = self
            .convergence
            .iters
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("iter".into(), JsonValue::Number(s.iter as f64)),
                    ("overflow".into(), JsonValue::Number(s.overflow)),
                    ("overflowed_edges".into(), JsonValue::Number(s.overflowed_edges as f64)),
                    ("rerouted".into(), JsonValue::Number(s.rerouted as f64)),
                    ("unchanged".into(), JsonValue::Number(s.unchanged as f64)),
                    ("max_util".into(), JsonValue::Number(s.max_util)),
                    ("history_cost".into(), JsonValue::Number(s.history_cost)),
                    ("expanded".into(), JsonValue::Number(s.expanded as f64)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.route.v1".into())),
            ("iterations".into(), JsonValue::Number(self.iterations as f64)),
            ("violations".into(), JsonValue::Number(self.violations as f64)),
            ("overflow".into(), JsonValue::Number(self.overflow)),
            ("overflowed_edges".into(), JsonValue::Number(self.overflowed_edges as f64)),
            ("total_wirelength".into(), JsonValue::Number(self.total_wirelength)),
            ("series".into(), JsonValue::Array(series)),
        ])
    }
}

/// Routes a mapped netlist whose cells and ports already have positions.
/// Every cell pin consumes `cfg.pin_blockage` tracks of static blockage
/// in its gcell, modelling escape wiring and via congestion. The
/// negotiation's searches run on [`Pool::ambient`]'s workers.
pub fn route_mapped(
    nl: &MappedNetlist,
    fp: &Floorplan,
    cfg: &RouteConfig,
) -> Result<RouteResult, RouteError> {
    route_mapped_pool(nl, fp, cfg, &Pool::ambient())
}

/// [`route_mapped`] with the searches of every negotiation iteration
/// after the first on `pool`'s workers: the calling thread and
/// `pool.workers() - 1` helpers. The result is bit-identical at every
/// worker count (`crate::speculate`).
pub fn route_mapped_pool(
    nl: &MappedNetlist,
    fp: &Floorplan,
    cfg: &RouteConfig,
    pool: &Pool,
) -> Result<RouteResult, RouteError> {
    let mut pin_sets: Vec<Vec<Point>> = Vec::new();
    for net in nl.nets() {
        let mut pins = vec![nl.signal_pos(net.driver)];
        for (c, _) in &net.sinks {
            pins.push(nl.cells()[*c as usize].pos);
        }
        for o in &net.po_sinks {
            pins.push(nl.output_pos(*o));
        }
        pin_sets.push(pins);
    }
    let blockages: Vec<(Point, f64)> = nl
        .cells()
        .iter()
        .map(|c| (c.pos, (c.inputs.len() + 1) as f64 * cfg.pin_blockage))
        .collect();
    let mut result = route_pins(&pin_sets, &blockages, fp, cfg, pool)?;
    // attribute offender nets back to their driver and, when the mapper
    // recorded one, the subject-graph tree the driver cell was covered
    // from — the audit's link from a hot boundary to the mapping decision
    // that caused it
    let nets = nl.nets();
    for off in &mut result.audit.offenders {
        match nets[off.net].driver {
            SignalRef::Pi(i) => {
                off.label = format!("pi:{}", nl.input_names()[i as usize]);
            }
            SignalRef::Cell(c) => {
                let cell = &nl.cells()[c as usize];
                off.label = format!("{}#{c}", cell.name);
                off.tree = cell.source_tree;
            }
        }
    }
    Ok(result)
}

/// Routes arbitrary pin sets (one per net) over the floorplan.
///
/// # Example
///
/// ```
/// use casyn_netlist::Point;
/// use casyn_place::Floorplan;
/// use casyn_route::{route_pin_sets, RouteConfig};
///
/// let fp = Floorplan::with_rows_and_area(10, 10.0 * 6.4 * 64.0);
/// let nets = vec![vec![Point::new(3.2, 3.2), Point::new(35.0, 35.0)]];
/// let result = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
/// assert!(result.is_routable());
/// assert!(result.total_wirelength > 0.0);
/// ```
pub fn route_pin_sets(
    nets: &[Vec<Point>],
    fp: &Floorplan,
    cfg: &RouteConfig,
) -> Result<RouteResult, RouteError> {
    route_pins(nets, &[], fp, cfg, &Pool::ambient())
}

/// Routes `nets` with static blockage at the given points (tracks spread
/// over the adjacent gcell boundaries), searching on `pool`'s workers.
fn route_pins(
    nets: &[Vec<Point>],
    blockages: &[(Point, f64)],
    fp: &Floorplan,
    cfg: &RouteConfig,
    pool: &Pool,
) -> Result<RouteResult, RouteError> {
    let mut grid = RouteGrid::new(fp, cfg);
    for (i, (p, amount)) in blockages.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(RouteError::BadBlockage { index: i, x: p.x, y: p.y });
        }
        grid.add_pin_blockage(fp.clamp(*p), *amount);
    }
    // net -> unique gcells -> MST -> two-pin connections
    let mut connections: Vec<(GcellCoord, GcellCoord)> = Vec::new();
    let mut net_of_connection: Vec<usize> = Vec::new();
    let mut net_bbox: Vec<(u16, u16, u16, u16)> = vec![(0, 0, 0, 0); nets.len()];
    for (ni, pins) in nets.iter().enumerate() {
        for (pi, p) in pins.iter().enumerate() {
            // a non-finite coordinate would alias into an arbitrary gcell
            // after the clamp; fail it as the typed input error it is
            if !p.x.is_finite() || !p.y.is_finite() {
                return Err(RouteError::BadPin { net: ni, pin: pi, x: p.x, y: p.y });
            }
        }
        let mut cells: Vec<GcellCoord> = pins.iter().map(|p| grid.gcell_of(fp.clamp(*p))).collect();
        if let Some(first) = cells.first() {
            let bb = cells.iter().fold((first.x, first.y, first.x, first.y), |bb, c| {
                (bb.0.min(c.x), bb.1.min(c.y), bb.2.max(c.x), bb.3.max(c.y))
            });
            net_bbox[ni] = bb;
        }
        cells.sort();
        cells.dedup();
        if cells.len() < 2 {
            continue;
        }
        let edges = decompose_net(&cells).map_err(|(connected, total)| {
            RouteError::TreeIncomplete { net: ni, connected, total }
        })?;
        net_of_connection.extend(std::iter::repeat_n(ni, edges.len()));
        connections.extend(edges);
    }
    let mut router = Maze::new(&grid);
    let mut paths: Vec<Vec<u32>> = vec![Vec::new(); connections.len()];
    let mut present_factor = 0.5;
    let mut iterations = 0;
    // the state after the last iteration run, which is the final one
    let mut overflow = 0.0;
    let mut overflowed_edges = 0;
    // batched locally; one registry flush per routing run
    let mut reroutes = 0u64;
    let (mut accepted, mut redone) = (0u64, 0u64);
    // the helpers' copies of the grid, made on the first pass they run
    let mut replicas = Vec::new();
    let mut convergence = RouteConvergence::default();
    let telemetry = obs::enabled();
    for iter in 0..cfg.max_iters.max(1) {
        let mut iter_span = obs::trace::span("route.iter");
        iter_span.attr_num("iter", iter as f64);
        iterations = iter + 1;
        // history and the present factor moved since the last iteration
        router.rebuild_costs(&grid, present_factor);
        let margin = 4 + 4 * iter;
        // the first pass has no old paths to search ahead from
        let pass = if iter == 0 || pool.workers() < 2 {
            reroute(&mut grid, &mut router, &connections, &mut paths, margin, iter == 0)
        } else {
            let (conns, replicas) = (&connections, &mut replicas);
            speculate::reroute(&mut grid, &mut router, replicas, conns, &mut paths, margin, pool)
        };
        let pass = pass.map_err(|ci| {
            // the search box always contains a rectilinear path, so an
            // empty result between distinct gcells means the grid itself
            // is inconsistent — surface it, don't under-report
            let (a, b) = connections[ci];
            RouteError::PathNotFound {
                net: net_of_connection[ci],
                from: (a.x as u32, a.y as u32),
                to: (b.x as u32, b.y as u32),
            }
        })?;
        debug_assert!((0..grid.num_edges()).all(|e| router.cost_is_current(&grid, e)));
        let Pass { rerouted, unchanged, expanded, .. } = pass;
        reroutes += rerouted;
        accepted += pass.accepted;
        redone += pass.redone;
        overflowed_edges = grid.update_history(cfg.history_increment);
        overflow = grid.total_overflow();
        let max_util = grid.max_utilization();
        let history = grid.total_history();
        iter_span.attr_num("rerouted", rerouted as f64);
        iter_span.attr_num("unchanged", unchanged as f64);
        iter_span.attr_num("expanded", expanded as f64);
        iter_span.attr_num("overflow", overflow);
        iter_span.attr_num("overflowed_edges", overflowed_edges as f64);
        iter_span.attr_num("max_util", max_util);
        iter_span.attr_num("history_cost", history);
        convergence.iters.push(RouteIterStats {
            iter,
            overflow,
            overflowed_edges,
            rerouted: rerouted as usize,
            unchanged: unchanged as usize,
            max_util,
            history_cost: history,
            expanded,
        });
        if telemetry {
            // per-iteration overflow trajectory and history-cost growth
            obs::hist_record("route.iter_overflow", overflow);
            obs::gauge_set("route.history_cost", history);
        }
        if obs::log::enabled(obs::log::Level::Trace) {
            obs::log::trace(&format!(
                "route: iter {iter}: rerouted {rerouted}, overflow {overflow:.1}"
            ));
        }
        if overflowed_edges == 0 || rerouted == 0 {
            if overflowed_edges == 0 {
                obs::trace::instant(
                    "route.converged",
                    &[("iter", obs::trace::AttrValue::Num(iter as f64))],
                );
            }
            break;
        }
        // structurally unroutable: overflow is a large fraction of all
        // demand and negotiation cannot converge
        if iter >= 1 {
            let usage: f64 = grid.total_wirelength() / grid.gcell_size();
            if overflow > cfg.give_up_overflow_ratio * usage.max(1.0) {
                if obs::log::enabled(obs::log::Level::Debug) {
                    obs::log::debug(&format!(
                        "route: giving up at iter {iter}, overflow {overflow:.1}"
                    ));
                }
                break;
            }
        }
        present_factor *= cfg.present_growth;
    }
    if telemetry {
        obs::counter_add("route.iterations", iterations as u64);
        obs::counter_add("route.reroutes", reroutes);
        obs::counter_add("route.connections", connections.len() as u64);
        obs::gauge_set("route.overflow", overflow);
        if pool.workers() > 1 {
            // how the searches were scheduled, which varies run to run:
            // registry-only, out of the stage record of exact work
            obs::global().write_batch(&[
                Write::Counter("route.spec_accepted", accepted),
                Write::Counter("route.spec_redone", redone),
            ]);
        }
    }
    let mut net_wirelength = vec![0.0f64; nets.len()];
    for (ci, path) in paths.iter().enumerate() {
        net_wirelength[net_of_connection[ci]] += path.len() as f64 * grid.gcell_size();
    }
    let audit = build_audit(&grid, &paths, &net_of_connection, &net_bbox);
    Ok(RouteResult {
        violations: overflow.round() as usize,
        overflow,
        overflowed_edges,
        total_wirelength: grid.total_wirelength(),
        iterations,
        net_wirelength,
        congestion: CongestionMap::from_grid(&grid),
        convergence,
        audit,
    })
}

/// Decomposes a net's gcell set into two-pin connections. Two pins
/// connect directly; three pins route through the rectilinear Steiner
/// (median) point, which is optimal for three terminals; larger nets use
/// a Prim MST. On failure returns the `(connected, total)` gcell counts
/// of the incomplete tree.
fn decompose_net(cells: &[GcellCoord]) -> Result<Vec<(GcellCoord, GcellCoord)>, (usize, usize)> {
    match cells.len() {
        0 | 1 => Ok(Vec::new()),
        2 => Ok(vec![(cells[0], cells[1])]),
        3 => {
            let mut xs = [cells[0].x, cells[1].x, cells[2].x];
            let mut ys = [cells[0].y, cells[1].y, cells[2].y];
            xs.sort_unstable();
            ys.sort_unstable();
            let m = GcellCoord { x: xs[1], y: ys[1] };
            Ok(cells.iter().filter(|c| **c != m).map(|c| (m, *c)).collect())
        }
        _ => mst_edges(cells),
    }
}

/// Prim MST over gcell coordinates with Manhattan edge weights. Returns
/// `(connected, total)` if some vertex could not be attached (the former
/// `expect("tree incomplete")` panic, now a typed condition).
fn mst_edges(cells: &[GcellCoord]) -> Result<Vec<(GcellCoord, GcellCoord)>, (usize, usize)> {
    let n = cells.len();
    let dist = |a: GcellCoord, b: GcellCoord| {
        (a.x as i64 - b.x as i64).abs() + (a.y as i64 - b.y as i64).abs()
    };
    let mut in_tree = vec![false; n];
    let mut best = vec![(i64::MAX, 0usize); n];
    in_tree[0] = true;
    for j in 1..n {
        best[j] = (dist(cells[0], cells[j]), 0);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for step in 1..n {
        let Some((j, _)) = best
            .iter()
            .enumerate()
            .filter(|(j, _)| !in_tree[*j])
            .min_by_key(|(j, (d, _))| (*d, *j))
        else {
            return Err((step, n));
        };
        in_tree[j] = true;
        edges.push((cells[best[j].1], cells[j]));
        for k in 0..n {
            if !in_tree[k] {
                let d = dist(cells[j], cells[k]);
                if d < best[k].0 {
                    best[k] = (d, j);
                }
            }
        }
    }
    Ok(edges)
}

/// What one rip-up-and-reroute pass did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Pass {
    /// Connections ripped up and searched again.
    pub(crate) rerouted: u64,
    /// Of those, the ones whose search returned the path they had.
    pub(crate) unchanged: u64,
    /// Gcells the committed searches expanded.
    pub(crate) expanded: u64,
    /// Searches run ahead of their turn and committed as found.
    pub(crate) accepted: u64,
    /// Searches run ahead of their turn and redone in it.
    pub(crate) redone: u64,
}

/// One rip-up-and-reroute pass in connection order on the calling
/// thread: every connection on the `first` pass, afterwards each whose
/// committed path overflows. A search that finds no path between two
/// distinct gcells stops the pass with its connection's index.
fn reroute(
    grid: &mut RouteGrid,
    maze: &mut Maze,
    connections: &[(GcellCoord, GcellCoord)],
    paths: &mut [Vec<u32>],
    margin: usize,
    first: bool,
) -> Result<Pass, usize> {
    let mut pass = Pass::default();
    let mut fresh = Vec::new();
    for (ci, (&(a, b), path)) in connections.iter().zip(paths).enumerate() {
        if !first && !path_overflows(grid, path) {
            continue;
        }
        pass.rerouted += 1;
        maze.apply(grid, path, -1.0);
        pass.expanded += maze.route(a, b, margin, &mut fresh);
        if fresh.is_empty() && a != b {
            return Err(ci);
        }
        pass.unchanged += u64::from(fresh == *path);
        maze.apply(grid, &fresh, 1.0);
        std::mem::swap(path, &mut fresh);
    }
    Ok(pass)
}

/// True if any edge of the committed path is over capacity.
pub(crate) fn path_overflows(grid: &RouteGrid, path: &[u32]) -> bool {
    path.iter().any(|&e| grid.edge_load(e as usize) > grid.edge_cap(e as usize))
}

/// Reusable A* state over the grid, and the cost of every edge.
///
/// `cost[e]` is [`edge_cost`] of edge `e` for the grid's current load and
/// history and the iteration's present factor. It holds between any two
/// searches because the only writers of usage ([`Maze::apply`]) and of
/// history and the present factor (once an iteration, followed by
/// [`Maze::rebuild_costs`]) refresh it.
pub(crate) struct Maze {
    nx: usize,
    ny: usize,
    /// Number of horizontal edges: vertical edge ids start here.
    nh: usize,
    dist: Vec<f64>,
    parent: Vec<u32>,
    stamp: Vec<u32>,
    cur_stamp: u32,
    open: NodeHeap,
    cost: Vec<f64>,
    present_factor: f64,
    /// One bit per gcell: those the last [`Maze::route_tracked`] expanded.
    pub(crate) expanded_gcells: Vec<u64>,
}

impl Maze {
    pub(crate) fn new(grid: &RouteGrid) -> Self {
        let n = grid.nx() * grid.ny();
        Maze {
            nx: grid.nx(),
            ny: grid.ny(),
            nh: grid.num_h_edges(),
            dist: vec![0.0; n],
            parent: vec![u32::MAX; n],
            stamp: vec![0; n],
            cur_stamp: 0,
            open: NodeHeap::new(n),
            cost: vec![0.0; grid.num_edges()],
            present_factor: 0.0,
            expanded_gcells: vec![0; n.div_ceil(64)],
        }
    }

    /// The cost a search must see for edge `e` right now.
    fn fresh_cost(&self, grid: &RouteGrid, e: usize) -> f64 {
        edge_cost(grid.edge_load(e), grid.edge_cap(e), grid.edge_history(e), self.present_factor)
    }

    fn cost_is_current(&self, grid: &RouteGrid, e: usize) -> bool {
        self.cost[e].to_bits() == self.fresh_cost(grid, e).to_bits()
    }

    /// Recomputes every edge's cost under a new present factor.
    pub(crate) fn rebuild_costs(&mut self, grid: &RouteGrid, present_factor: f64) {
        self.present_factor = present_factor;
        for e in 0..self.cost.len() {
            self.cost[e] = self.fresh_cost(grid, e);
        }
    }

    /// Adds `delta` tracks of usage to every edge of `path` — `-1.0` rips
    /// it up, `1.0` commits it — and refreshes those edges' costs.
    pub(crate) fn apply(&mut self, grid: &mut RouteGrid, path: &[u32], delta: f64) {
        for &e in path {
            grid.add_edge(e as usize, delta);
            self.cost[e as usize] = self.fresh_cost(grid, e as usize);
        }
        debug_assert!(path.first().is_none_or(|&e| self.cost_is_current(grid, e as usize)));
    }

    /// Refreshes edge `e`'s cost after its usage was set on `grid`.
    pub(crate) fn refresh(&mut self, grid: &RouteGrid, e: usize) {
        self.cost[e] = self.fresh_cost(grid, e);
    }

    /// The present factor of the current iteration.
    pub(crate) fn present_factor(&self) -> f64 {
        self.present_factor
    }

    /// A* from `a` to `b`, restricted to their bounding box inflated by
    /// `margin` gcells. Writes the edges of the cheapest path into `path`,
    /// from `b` back to `a`, and returns the number of gcells expanded.
    ///
    /// The open set is ordered by `(f, gcell id)` with `f` compared by its
    /// bits, which for the finite non-negative values here is numeric
    /// order; a relaxed gcell already in the open set is moved, any other
    /// — one never seen, or one expanded earlier that rounding re-opens —
    /// is queued.
    pub(crate) fn route(
        &mut self,
        a: GcellCoord,
        b: GcellCoord,
        margin: usize,
        path: &mut Vec<u32>,
    ) -> u64 {
        self.search::<false>(a, b, margin, path)
    }

    /// [`Maze::route`] that also sets in `expanded_gcells` the bit of every
    /// gcell the search expanded. The search read the cost of an edge only
    /// if it expanded one of the edge's two gcells: relaxing the
    /// neighbours of an expanded gcell is the only read.
    pub(crate) fn route_tracked(
        &mut self,
        a: GcellCoord,
        b: GcellCoord,
        margin: usize,
        path: &mut Vec<u32>,
    ) -> u64 {
        self.search::<true>(a, b, margin, path)
    }

    fn search<const TRACK: bool>(
        &mut self,
        a: GcellCoord,
        b: GcellCoord,
        margin: usize,
        path: &mut Vec<u32>,
    ) -> u64 {
        path.clear();
        self.cur_stamp += 1;
        let cur_stamp = self.cur_stamp;
        let (nx, ny, nh) = (self.nx, self.ny, self.nh);
        let (ax, ay, bx, by) = (a.x as usize, a.y as usize, b.x as usize, b.y as usize);
        let x_lo = ax.min(bx).saturating_sub(margin);
        let x_hi = (ax.max(bx) + margin).min(nx - 1);
        let y_lo = ay.min(by).saturating_sub(margin);
        let y_hi = (ay.max(by) + margin).min(ny - 1);
        let h = |x: usize, y: usize| (x.abs_diff(bx) + y.abs_diff(by)) as f64;
        let start = ay * nx + ax;
        let goal = by * nx + bx;
        let Maze { dist, parent, stamp, open, cost, expanded_gcells, .. } = self;
        if TRACK {
            expanded_gcells.fill(0);
        }
        dist[start] = 0.0;
        parent[start] = u32::MAX;
        stamp[start] = cur_stamp;
        open.clear();
        open.push_or_decrease(start as u32, h(ax, ay).to_bits());
        let mut expanded = 0u64;
        while let Some(node) = open.pop() {
            let node = node as usize;
            if node == goal {
                break;
            }
            expanded += 1;
            if TRACK {
                expanded_gcells[node / 64] |= 1 << (node % 64);
            }
            let (x, y) = (node % nx, node / nx);
            let d = dist[node];
            let mut relax = |next: usize, edge: usize, next_x: usize, next_y: usize| {
                let nd = d + cost[edge];
                if stamp[next] != cur_stamp || nd < dist[next] {
                    stamp[next] = cur_stamp;
                    dist[next] = nd;
                    parent[next] = node as u32;
                    open.push_or_decrease(next as u32, (nd + h(next_x, next_y)).to_bits());
                }
            };
            // the horizontal edge leaving (x, y) to the right is
            // y·(nx−1) + x = node − y, the vertical one upwards nh + node
            if x > x_lo {
                relax(node - 1, node - y - 1, x - 1, y);
            }
            if x < x_hi {
                relax(node + 1, node - y, x + 1, y);
            }
            if y > y_lo {
                relax(node - nx, nh + node - nx, x, y - 1);
            }
            if y < y_hi {
                relax(node + nx, nh + node, x, y + 1);
            }
        }
        if stamp[goal] != cur_stamp {
            return expanded; // unreachable within box; should not happen
        }
        let mut cur = goal;
        while cur != start {
            let p = parent[cur] as usize;
            let (lo, row) = (cur.min(p), cur / nx);
            path.push(if row == p / nx { lo - row } else { nh + lo } as u32);
            cur = p;
        }
        expanded
    }
}

/// PathFinder edge cost: `(base + history) × presence`, where presence
/// grows with the would-be overflow of taking this edge.
fn edge_cost(usage: f64, cap: f64, history: f64, present_factor: f64) -> f64 {
    let would = usage + 1.0;
    let present = if would > cap {
        1.0 + (would - cap) * present_factor
    } else {
        // mild bias toward empty edges to spread demand early
        1.0 + 0.1 * (usage / cap)
    };
    (1.0 + history) * present
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    fn fp(nx: usize, ny: usize) -> Floorplan {
        // ny rows of 6.4, width nx gcells of 6.4
        Floorplan::with_rows_and_area(ny, (ny as f64 * 6.4) * (nx as f64 * 6.4))
    }

    #[derive(Debug, PartialEq)]
    struct HeapEntry {
        cost: f64,
        node: u32,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // min-heap by cost, deterministic tie-break on node id
            other.cost.total_cmp(&self.cost).then(other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The search [`Maze::route`] replaced, kept as the reference it must
    /// agree with edge for edge: a `BinaryHeap` that holds one entry per
    /// relaxation and re-expands the stale ones, and an [`edge_cost`]
    /// call per relaxation. Only the path's encoding is new.
    fn reference_route(
        grid: &RouteGrid,
        a: GcellCoord,
        b: GcellCoord,
        present_factor: f64,
        margin: usize,
    ) -> Vec<u32> {
        let (nx, ny) = (grid.nx(), grid.ny());
        let mut dist = vec![0.0f64; nx * ny];
        let mut parent = vec![u32::MAX; nx * ny];
        let mut seen = vec![false; nx * ny];
        let x_lo = (a.x.min(b.x) as usize).saturating_sub(margin);
        let x_hi = ((a.x.max(b.x) as usize) + margin).min(nx - 1);
        let y_lo = (a.y.min(b.y) as usize).saturating_sub(margin);
        let y_hi = ((a.y.max(b.y) as usize) + margin).min(ny - 1);
        let id = |x: usize, y: usize| (y * nx + x) as u32;
        let h = |x: usize, y: usize| {
            ((x as i64 - b.x as i64).abs() + (y as i64 - b.y as i64).abs()) as f64
        };
        let start = id(a.x as usize, a.y as usize);
        let goal = id(b.x as usize, b.y as usize);
        seen[start as usize] = true;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { cost: h(a.x as usize, a.y as usize), node: start });
        while let Some(HeapEntry { cost: _, node }) = heap.pop() {
            if node == goal {
                break;
            }
            let (x, y) = ((node as usize) % nx, (node as usize) / nx);
            let d = dist[node as usize];
            let mut try_step =
                |nxt_x: usize, nxt_y: usize, edge_cost: f64, heap: &mut BinaryHeap<HeapEntry>| {
                    let nid = id(nxt_x, nxt_y);
                    let nd = d + edge_cost;
                    if !seen[nid as usize] || nd < dist[nid as usize] {
                        seen[nid as usize] = true;
                        dist[nid as usize] = nd;
                        parent[nid as usize] = node;
                        heap.push(HeapEntry { cost: nd + h(nxt_x, nxt_y), node: nid });
                    }
                };
            let h_cost = |x: usize, y: usize| {
                edge_cost(grid.h_load(x, y), grid.h_cap(), grid.h_history(x, y), present_factor)
            };
            let v_cost = |x: usize, y: usize| {
                edge_cost(grid.v_load(x, y), grid.v_cap(), grid.v_history(x, y), present_factor)
            };
            if x > x_lo {
                try_step(x - 1, y, h_cost(x - 1, y), &mut heap);
            }
            if x < x_hi {
                try_step(x + 1, y, h_cost(x, y), &mut heap);
            }
            if y > y_lo {
                try_step(x, y - 1, v_cost(x, y - 1), &mut heap);
            }
            if y < y_hi {
                try_step(x, y + 1, v_cost(x, y), &mut heap);
            }
        }
        let mut path = Vec::new();
        if !seen[goal as usize] {
            return path;
        }
        let mut cur = goal;
        while cur != start {
            let p = parent[cur as usize];
            let (cx, cy) = ((cur as usize) % nx, (cur as usize) / nx);
            let (px, py) = ((p as usize) % nx, (p as usize) / nx);
            let e =
                if cy == py { grid.h_edge(cx.min(px), cy) } else { grid.v_edge(cx, cy.min(py)) };
            path.push(e as u32);
            cur = p;
        }
        path
    }

    /// How a random grid's loads and history are drawn.
    #[derive(Clone, Copy, Debug)]
    enum Field {
        /// Nothing routed, no blockage: every edge costs exactly 1.
        Empty,
        /// The same blockage on every edge, integral usage, no history:
        /// a handful of distinct costs, so paths tie all over the grid.
        Tied,
        /// Fractional loads on both sides of capacity and several rounds
        /// of history on whatever overflowed.
        Contested,
    }

    fn random_grid(rng: &mut StdRng, nx: usize, ny: usize, field: Field) -> RouteGrid {
        let cfg = RouteConfig { capacity_scale: 0.5, ..Default::default() };
        let mut grid = RouteGrid::new(&fp(nx, ny), &cfg);
        assert_eq!((grid.nx(), grid.ny()), (nx, ny));
        for e in 0..grid.num_edges() {
            match field {
                Field::Empty => {}
                Field::Tied => grid.add_edge(e, 2.0 + rng.gen_range(0..3) as f64),
                Field::Contested => grid.add_edge(e, rng.gen_range(0.0..2.0) * grid.edge_cap(e)),
            }
        }
        if let Field::Contested = field {
            for _ in 0..rng.gen_range(1..6) {
                grid.update_history(rng.gen_range(0.1..3.0));
                if grid.num_edges() > 0 {
                    grid.add_edge(rng.gen_range(0..grid.num_edges()), rng.gen_range(0.0..4.0));
                }
            }
        }
        grid
    }

    /// Routes `a → b` with the kernel on a fresh [`Maze`]; returns the
    /// path and the sum of the cached costs along it.
    fn kernel_route(
        grid: &RouteGrid,
        a: GcellCoord,
        b: GcellCoord,
        present_factor: f64,
        margin: usize,
    ) -> (Vec<u32>, f64) {
        let mut maze = Maze::new(grid);
        maze.rebuild_costs(grid, present_factor);
        let mut path = vec![7]; // left-overs must be cleared
        maze.route(a, b, margin, &mut path);
        let cost = path.iter().rev().fold(0.0, |d, &e| d + maze.cost[e as usize]);
        (path, cost)
    }

    #[test]
    fn kernel_finds_the_reference_path_edge_for_edge() {
        let mut rng = StdRng::seed_from_u64(0xa57a);
        let shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 7), (8, 8), (13, 6), (20, 17)];
        let mut compared = 0;
        for round in 0..60 {
            for &(nx, ny) in &shapes {
                let field = [Field::Empty, Field::Tied, Field::Contested][round % 3];
                let grid = random_grid(&mut rng, nx, ny, field);
                let present_factor = 0.5 * 1.6f64.powi(rng.gen_range(0..12));
                // one maze across the searches, as the router uses it:
                // state left by a search must not reach the next one
                let mut maze = Maze::new(&grid);
                maze.rebuild_costs(&grid, present_factor);
                let mut path = Vec::new();
                for _ in 0..8 {
                    let cell = |rng: &mut StdRng| {
                        // corners and borders often: boxes clipped at every die edge
                        let pick = |rng: &mut StdRng, n: usize| match rng.gen_range(0..4) {
                            0 => 0,
                            1 => n - 1,
                            _ => rng.gen_range(0..n),
                        };
                        GcellCoord { x: pick(rng, nx) as u16, y: pick(rng, ny) as u16 }
                    };
                    let a = cell(&mut rng);
                    let b = if rng.gen_range(0..4) == 0 && nx > 1 {
                        // adjacent endpoints
                        GcellCoord { x: if a.x == 0 { 1 } else { a.x - 1 }, y: a.y }
                    } else {
                        cell(&mut rng)
                    };
                    let margin = [0, 1, 4, 48][rng.gen_range(0..4usize)];
                    maze.route(a, b, margin, &mut path);
                    let want = reference_route(&grid, a, b, present_factor, margin);
                    assert_eq!(
                        path, want,
                        "{nx}x{ny} {field:?} {a:?} -> {b:?} margin {margin} pf {present_factor}"
                    );
                    assert_eq!(path.is_empty(), a == b);
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 60 * shapes.len() * 8);
    }

    /// Cheapest `a → b` path cost inside the search box by Bellman–Ford:
    /// relax every edge of the box until nothing improves.
    fn brute_force_cost(
        grid: &RouteGrid,
        a: GcellCoord,
        b: GcellCoord,
        present_factor: f64,
        margin: usize,
    ) -> f64 {
        let (nx, ny) = (grid.nx(), grid.ny());
        let xs = (a.x.min(b.x) as usize).saturating_sub(margin)
            ..=((a.x.max(b.x) as usize) + margin).min(nx - 1);
        let ys = (a.y.min(b.y) as usize).saturating_sub(margin)
            ..=((a.y.max(b.y) as usize) + margin).min(ny - 1);
        let cost = |e: usize| {
            edge_cost(grid.edge_load(e), grid.edge_cap(e), grid.edge_history(e), present_factor)
        };
        let mut dist = vec![f64::INFINITY; nx * ny];
        dist[a.y as usize * nx + a.x as usize] = 0.0;
        loop {
            let mut improved = false;
            let mut relax = |u: usize, v: usize, c: f64| {
                for (from, to) in [(u, v), (v, u)] {
                    if dist[from] + c < dist[to] {
                        dist[to] = dist[from] + c;
                        improved = true;
                    }
                }
            };
            for y in ys.clone() {
                for x in xs.clone() {
                    if x < *xs.end() {
                        relax(y * nx + x, y * nx + x + 1, cost(grid.h_edge(x, y)));
                    }
                    if y < *ys.end() {
                        relax(y * nx + x, (y + 1) * nx + x, cost(grid.v_edge(x, y)));
                    }
                }
            }
            if !improved {
                return dist[b.y as usize * nx + b.x as usize];
            }
        }
    }

    #[test]
    fn kernel_path_cost_is_the_brute_force_minimum_on_small_grids() {
        let mut rng = StdRng::seed_from_u64(0xbe11);
        for round in 0..400 {
            let (nx, ny) = (rng.gen_range(1..5usize), rng.gen_range(1..5usize));
            let field = [Field::Empty, Field::Tied, Field::Contested][round % 3];
            let grid = random_grid(&mut rng, nx, ny, field);
            let present_factor = 0.5 * 1.6f64.powi(rng.gen_range(0..12));
            let mut cell =
                || GcellCoord { x: rng.gen_range(0..nx) as u16, y: rng.gen_range(0..ny) as u16 };
            let (a, b) = (cell(), cell());
            let margin = round % 3;
            let (path, cost) = kernel_route(&grid, a, b, present_factor, margin);
            let best = brute_force_cost(&grid, a, b, present_factor, margin);
            // sums of the same costs in another order: equal up to rounding
            assert!(
                (cost - best).abs() <= 1e-9 * best.max(1.0),
                "{nx}x{ny} {field:?} {a:?} -> {b:?} margin {margin}: {cost} over {path:?}, minimum {best}"
            );
        }
    }

    #[test]
    fn two_pin_net_routes_at_manhattan_length() {
        let fp = fp(10, 10);
        let cfg = RouteConfig::default();
        let nets = vec![vec![Point::new(3.2, 3.2), Point::new(3.2 + 6.4 * 4.0, 3.2 + 6.4 * 3.0)]];
        let r = route_pin_sets(&nets, &fp, &cfg).unwrap();
        assert!(r.is_routable());
        assert!((r.total_wirelength - 7.0 * 6.4).abs() < 1e-9, "wl = {}", r.total_wirelength);
    }

    #[test]
    fn same_gcell_net_needs_no_routing() {
        let fp = fp(4, 4);
        let nets = vec![vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert_eq!(r.total_wirelength, 0.0);
        assert!(r.is_routable());
    }

    #[test]
    fn multipin_net_uses_mst_topology() {
        let fp = fp(10, 10);
        // three pins in a row: MST should cost 2 edges not 3
        let y = 3.2;
        let nets =
            vec![vec![Point::new(3.2, y), Point::new(3.2 + 6.4, y), Point::new(3.2 + 12.8, y)]];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert!((r.total_wirelength - 2.0 * 6.4).abs() < 1e-9);
    }

    #[test]
    fn three_pin_steiner_beats_mst() {
        let fp = fp(12, 12);
        // an L of three pins: (0,0), (4,0), (2,5) in gcells.
        // MST: 4 + min(2+5, 2+5)=7 -> 11; Steiner through (2,0): 2+2+5 = 9.
        let g = 6.4;
        let nets = vec![vec![
            Point::new(3.2, 3.2),
            Point::new(3.2 + 4.0 * g, 3.2),
            Point::new(3.2 + 2.0 * g, 3.2 + 5.0 * g),
        ]];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert!(
            (r.total_wirelength - 9.0 * g).abs() < 1e-9,
            "steiner length expected, got {}",
            r.total_wirelength / g
        );
    }

    #[test]
    fn steiner_point_coinciding_with_pin_degenerates() {
        let fp = fp(12, 12);
        // median point equals the middle pin: no zero-length connections
        let g = 6.4;
        let nets = vec![vec![
            Point::new(3.2, 3.2),
            Point::new(3.2 + 2.0 * g, 3.2 + 2.0 * g),
            Point::new(3.2 + 4.0 * g, 3.2 + 4.0 * g),
        ]];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert!((r.total_wirelength - 8.0 * g).abs() < 1e-9);
        assert!(r.is_routable());
    }

    #[test]
    fn congestion_forces_detours_or_violations() {
        // a 3-wide channel with capacity ~12.5 per boundary; push 40
        // parallel nets through one column of boundaries
        let fp = fp(8, 3);
        let cfg = RouteConfig { max_iters: 10, ..Default::default() };
        let mut nets = Vec::new();
        for i in 0..40 {
            let y = 3.2 + 6.4 * ((i % 3) as f64);
            nets.push(vec![Point::new(3.2, y), Point::new(3.2 + 6.4 * 6.0, y)]);
        }
        let r = route_pin_sets(&nets, &fp, &cfg).unwrap();
        // 40 nets × 6 h-edges = 240 track segments over 3 rows of capacity
        // 12.5 — physically impossible: must overflow
        assert!(!r.is_routable());
        assert!(r.violations > 0);
    }

    #[test]
    fn negotiation_resolves_local_hotspots() {
        // two pin pairs forced through one gcell early on; plenty of
        // spare capacity around: after negotiation no overflow remains
        let fp = fp(12, 12);
        let cfg = RouteConfig { max_iters: 8, ..Default::default() };
        let mut nets = Vec::new();
        // 30 nets crossing the same central column but with room to spread
        for i in 0..30 {
            let y = 3.2 + 6.4 * ((i % 12) as f64);
            nets.push(vec![Point::new(3.2, y), Point::new(3.2 + 6.4 * 10.0, y)]);
        }
        let r = route_pin_sets(&nets, &fp, &cfg).unwrap();
        assert!(
            r.is_routable(),
            "30 nets over 12 rows × 12.5 tracks must route; got {} violations",
            r.violations
        );
    }

    #[test]
    fn deterministic_routing() {
        let fp = fp(10, 10);
        let nets: Vec<Vec<Point>> = (0..20)
            .map(|i| {
                vec![
                    Point::new(3.2 + (i as f64 % 5.0) * 6.4, 3.2),
                    Point::new(60.0 - (i as f64 % 7.0) * 6.4, 60.0),
                ]
            })
            .collect();
        let a = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        let b = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.total_wirelength, b.total_wirelength);
    }

    #[test]
    fn per_net_wirelength_is_reported() {
        let fp = fp(10, 10);
        let nets = vec![
            vec![Point::new(3.2, 3.2), Point::new(3.2 + 6.4 * 3.0, 3.2)], // 3 gcells
            vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)],             // same gcell
        ];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert_eq!(r.net_wirelength.len(), 2);
        assert!((r.net_wirelength[0] - 3.0 * 6.4).abs() < 1e-9);
        assert_eq!(r.net_wirelength[1], 0.0);
        assert!((r.net_wirelength.iter().sum::<f64>() - r.total_wirelength).abs() < 1e-9);
    }

    #[test]
    fn mst_is_a_spanning_tree() {
        let cells: Vec<GcellCoord> = vec![
            GcellCoord { x: 0, y: 0 },
            GcellCoord { x: 5, y: 0 },
            GcellCoord { x: 0, y: 5 },
            GcellCoord { x: 5, y: 5 },
        ];
        let edges = mst_edges(&cells).unwrap();
        assert_eq!(edges.len(), 3);
        // total MST length for the unit square scaled by 5: 15
        let total: i64 = edges
            .iter()
            .map(|(a, b)| (a.x as i64 - b.x as i64).abs() + (a.y as i64 - b.y as i64).abs())
            .sum();
        assert_eq!(total, 15);
    }
}
