//! The capacitated routing grid.

use casyn_netlist::Point;
use casyn_place::Floorplan;

/// Integer gcell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GcellCoord {
    /// Column index.
    pub x: u16,
    /// Row index.
    pub y: u16,
}

/// Technology and algorithm parameters for global routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Gcell edge length in micrometres.
    pub gcell: f64,
    /// Routing track pitch in micrometres.
    pub pitch: f64,
    /// Number of metal layers available for routing. The paper's
    /// experiments fix this to three.
    pub layers: usize,
    /// Fraction of the first metal layer not blocked by cell internals.
    pub m1_availability: f64,
    /// Maximum negotiation (rip-up and reroute) iterations.
    pub max_iters: usize,
    /// History cost increment per overflowed track per iteration.
    pub history_increment: f64,
    /// Present-congestion multiplier growth per iteration.
    pub present_growth: f64,
    /// Abandon negotiation early when, after the second iteration, the
    /// residual overflow exceeds this fraction of total track usage — the
    /// design is structurally unroutable and further rip-up only burns
    /// time (the detailed-router "gives up" verdict).
    pub give_up_overflow_ratio: f64,
    /// Uniform multiplier on both capacities. The paper pins each die so
    /// the minimum-area netlist sits at the routability edge; this knob
    /// expresses the same experimental control for a simulator whose
    /// absolute track supply differs from Silicon Ensemble's.
    pub capacity_scale: f64,
    /// Routing tracks consumed per cell pin in the pin's gcell (escape
    /// wiring and via blockage). This is what makes dense, high-
    /// utilization netlists unroutable even when their global wirelength
    /// is moderate — the failure mode of the paper's large-K mappings.
    pub pin_blockage: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            gcell: 6.4,
            pitch: 0.64,
            layers: 3,
            m1_availability: 0.25,
            max_iters: 12,
            history_increment: 0.4,
            present_growth: 1.6,
            give_up_overflow_ratio: 0.08,
            capacity_scale: 1.0,
            pin_blockage: 0.35,
        }
    }
}

impl RouteConfig {
    /// Horizontal track capacity per gcell boundary: one full horizontal
    /// layer (plus the unblocked share of M1) times tracks per gcell.
    /// With three layers the split is M1 (partial) + M2 horizontal + M3
    /// vertical, the classic HVH-less 3LM assignment.
    pub fn h_capacity(&self) -> f64 {
        let tracks = self.gcell / self.pitch;
        let h_layers = match self.layers {
            0 | 1 => self.m1_availability,
            n => (n - 1).div_ceil(2) as f64 + self.m1_availability,
        };
        tracks * h_layers * self.capacity_scale
    }

    /// Vertical track capacity per gcell boundary.
    pub fn v_capacity(&self) -> f64 {
        let tracks = self.gcell / self.pitch;
        let v_layers = match self.layers {
            0 | 1 => 0.0,
            n => ((n - 1) / 2).max(1) as f64,
        };
        tracks * v_layers * self.capacity_scale
    }
}

/// A routing grid over a floorplan, with per-edge usage and PathFinder
/// history.
///
/// Edges carry one flat id: the `(nx-1) × ny` horizontal boundaries
/// first, row-major, then the `nx × (ny-1)` vertical ones, row-major.
/// The router's paths, its cost cache and the audit all index by it.
#[derive(Debug, Clone)]
pub struct RouteGrid {
    nx: usize,
    ny: usize,
    gcell: f64,
    h_cap: f64,
    v_cap: f64,
    /// Number of horizontal edges: ids below it are horizontal.
    nh: usize,
    /// Routed usage per edge id.
    usage: Vec<f64>,
    /// Static blockage (pin escapes) added to the load but not to the
    /// routed wirelength.
    block: Vec<f64>,
    history: Vec<f64>,
}

impl RouteGrid {
    /// Builds the grid covering `fp` with the configured gcell size. A
    /// die smaller than one gcell still gets a 1 × 1 grid.
    pub fn new(fp: &Floorplan, cfg: &RouteConfig) -> Self {
        // tolerate floating fuzz: a die of 3.0000000000004 gcells is 3
        let nx = ((fp.die_width / cfg.gcell) - 1e-6).ceil().max(1.0) as usize;
        let ny = ((fp.die_height / cfg.gcell) - 1e-6).ceil().max(1.0) as usize;
        let nh = (nx - 1) * ny;
        let edges = nh + nx * (ny - 1);
        RouteGrid {
            nx,
            ny,
            gcell: cfg.gcell,
            h_cap: cfg.h_capacity(),
            v_cap: cfg.v_capacity(),
            nh,
            usage: vec![0.0; edges],
            block: vec![0.0; edges],
            history: vec![0.0; edges],
        }
    }

    /// Grid width in gcells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in gcells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Gcell size in micrometres.
    pub fn gcell_size(&self) -> f64 {
        self.gcell
    }

    /// Horizontal capacity per boundary.
    pub fn h_cap(&self) -> f64 {
        self.h_cap
    }

    /// Vertical capacity per boundary.
    pub fn v_cap(&self) -> f64 {
        self.v_cap
    }

    /// The gcell containing a die point.
    pub fn gcell_of(&self, p: Point) -> GcellCoord {
        let x = ((p.x / self.gcell).floor().max(0.0) as usize).min(self.nx - 1);
        let y = ((p.y / self.gcell).floor().max(0.0) as usize).min(self.ny - 1);
        GcellCoord { x: x as u16, y: y as u16 }
    }

    /// Centre of a gcell on the die.
    pub fn center_of(&self, c: GcellCoord) -> Point {
        Point::new((c.x as f64 + 0.5) * self.gcell, (c.y as f64 + 0.5) * self.gcell)
    }

    /// Id of the horizontal edge from `(x, y)` to `(x+1, y)`.
    pub(crate) fn h_edge(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }

    /// Id of the vertical edge from `(x, y)` to `(x, y+1)`.
    pub(crate) fn v_edge(&self, x: usize, y: usize) -> usize {
        self.nh + y * self.nx + x
    }

    /// The edge with id `e`: whether it is horizontal, and the `(x, y)`
    /// of its left or lower gcell.
    pub(crate) fn edge_at(&self, e: usize) -> (bool, usize, usize) {
        match e.checked_sub(self.nh) {
            None => (true, e % (self.nx - 1), e / (self.nx - 1)),
            Some(v) => (false, v % self.nx, v / self.nx),
        }
    }

    /// Number of horizontal edges; edge ids from here on are vertical.
    pub(crate) fn num_h_edges(&self) -> usize {
        self.nh
    }

    /// Number of edges of both directions.
    pub(crate) fn num_edges(&self) -> usize {
        self.usage.len()
    }

    /// Capacity of an edge.
    pub(crate) fn edge_cap(&self, e: usize) -> f64 {
        if e < self.nh {
            self.h_cap
        } else {
            self.v_cap
        }
    }

    /// Load (usage + blockage) of an edge.
    pub(crate) fn edge_load(&self, e: usize) -> f64 {
        self.usage[e] + self.block[e]
    }

    /// Routed usage of an edge.
    pub(crate) fn edge_usage(&self, e: usize) -> f64 {
        self.usage[e]
    }

    /// PathFinder history of an edge.
    pub(crate) fn edge_history(&self, e: usize) -> f64 {
        self.history[e]
    }

    /// Adds `delta` (negative for rip-up) to an edge's usage.
    pub(crate) fn add_edge(&mut self, e: usize, delta: f64) {
        self.usage[e] += delta;
    }

    /// Usage of the horizontal edge from `(x, y)` to `(x+1, y)`.
    pub fn h_usage(&self, x: usize, y: usize) -> f64 {
        self.usage[self.h_edge(x, y)]
    }

    /// Usage of the vertical edge from `(x, y)` to `(x, y+1)`.
    pub fn v_usage(&self, x: usize, y: usize) -> f64 {
        self.usage[self.v_edge(x, y)]
    }

    /// Load (usage + blockage) of a horizontal edge — what capacity
    /// checks compare against.
    pub fn h_load(&self, x: usize, y: usize) -> f64 {
        self.edge_load(self.h_edge(x, y))
    }

    /// Load (usage + blockage) of a vertical edge.
    pub fn v_load(&self, x: usize, y: usize) -> f64 {
        self.edge_load(self.v_edge(x, y))
    }

    /// Spreads `amount` tracks of static blockage over the edges adjacent
    /// to the gcell containing `p` (pin-escape modelling).
    pub fn add_pin_blockage(&mut self, p: Point, amount: f64) {
        let c = self.gcell_of(p);
        let (x, y) = (c.x as usize, c.y as usize);
        let edges = [
            (x > 0).then(|| self.h_edge(x - 1, y)),
            (x + 1 < self.nx).then(|| self.h_edge(x, y)),
            (y > 0).then(|| self.v_edge(x, y - 1)),
            (y + 1 < self.ny).then(|| self.v_edge(x, y)),
        ];
        let n = edges.iter().flatten().count();
        if n == 0 {
            return;
        }
        let share = amount / n as f64;
        for e in edges.into_iter().flatten() {
            self.block[e] += share;
        }
    }

    /// Adds `delta` (may be negative for rip-up) to a horizontal edge.
    pub fn add_h(&mut self, x: usize, y: usize, delta: f64) {
        self.add_edge(self.h_edge(x, y), delta);
    }

    /// Adds `delta` to a vertical edge.
    pub fn add_v(&mut self, x: usize, y: usize, delta: f64) {
        self.add_edge(self.v_edge(x, y), delta);
    }

    /// PathFinder history of a horizontal edge.
    pub fn h_history(&self, x: usize, y: usize) -> f64 {
        self.history[self.h_edge(x, y)]
    }

    /// PathFinder history of a vertical edge.
    pub fn v_history(&self, x: usize, y: usize) -> f64 {
        self.history[self.v_edge(x, y)]
    }

    /// Bumps history on every currently overflowed edge; returns the
    /// number of overflowed edges.
    pub fn update_history(&mut self, increment: f64) -> usize {
        let mut over = 0;
        for e in 0..self.usage.len() {
            let (load, cap) = (self.edge_load(e), self.edge_cap(e));
            if load > cap {
                self.history[e] += increment * (load - cap);
                over += 1;
            }
        }
        over
    }

    /// Total overflow in track-segments: `Σ max(0, usage − capacity)`.
    /// This is the "number of routing violations" figure of the tables.
    pub fn total_overflow(&self) -> f64 {
        let over = |edges: std::ops::Range<usize>, cap: f64| -> f64 {
            edges.map(|e| (self.edge_load(e) - cap).max(0.0)).sum()
        };
        over(0..self.nh, self.h_cap) + over(self.nh..self.usage.len(), self.v_cap)
    }

    /// Total accumulated PathFinder history cost over all edges — a
    /// measure of how contested the grid has been across iterations.
    pub fn total_history(&self) -> f64 {
        self.history.iter().sum()
    }

    /// Total used wirelength in micrometres (track segments × gcell size).
    pub fn total_wirelength(&self) -> f64 {
        let segs: f64 = self.usage.iter().sum();
        segs * self.gcell
    }

    /// Maximum edge utilization (usage / capacity) over the grid.
    pub fn max_utilization(&self) -> f64 {
        let max = |edges: std::ops::Range<usize>, cap: f64| {
            edges.map(|e| self.edge_load(e) / cap).fold(0.0f64, f64::max)
        };
        max(0..self.nh, self.h_cap).max(max(self.nh..self.usage.len(), self.v_cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_for_three_layers() {
        let cfg = RouteConfig::default();
        // 10 tracks per gcell; H: M2 + 0.25×M1 = 12.5; V: M3 = 10
        assert!((cfg.h_capacity() - 12.5).abs() < 1e-9);
        assert!((cfg.v_capacity() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacities_grow_with_layers() {
        let three = RouteConfig { layers: 3, ..Default::default() };
        let five = RouteConfig { layers: 5, ..Default::default() };
        assert!(five.h_capacity() > three.h_capacity());
        assert!(five.v_capacity() > three.v_capacity());
    }

    #[test]
    fn grid_shape_and_lookup() {
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 640.0); // 640x64
        let grid = RouteGrid::new(&fp, &RouteConfig::default());
        assert_eq!(grid.nx(), 100);
        assert_eq!(grid.ny(), 10);
        let c = grid.gcell_of(Point::new(0.1, 0.1));
        assert_eq!(c, GcellCoord { x: 0, y: 0 });
        let c = grid.gcell_of(Point::new(1e9, 1e9));
        assert_eq!(c, GcellCoord { x: 99, y: 9 });
        let mid = grid.center_of(GcellCoord { x: 0, y: 0 });
        assert!((mid.x - 3.2).abs() < 1e-9 && (mid.y - 3.2).abs() < 1e-9);
    }

    #[test]
    fn edge_ids_run_horizontals_then_verticals_row_major() {
        let fp = Floorplan::with_rows_and_area(3, (3.0 * 6.4) * (4.0 * 6.4)); // 4x3
        let grid = RouteGrid::new(&fp, &RouteConfig::default());
        let mut next = 0;
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(grid.h_edge(x, y), next);
                assert_eq!(grid.edge_at(next), (true, x, y));
                next += 1;
            }
        }
        assert_eq!(next, grid.num_h_edges());
        for y in 0..2 {
            for x in 0..4 {
                assert_eq!(grid.v_edge(x, y), next);
                assert_eq!(grid.edge_at(next), (false, x, y));
                next += 1;
            }
        }
        assert_eq!(next, grid.num_edges());
    }

    #[test]
    fn usage_and_overflow_accounting() {
        let fp = Floorplan::with_rows_and_area(2, 2.0 * 6.4 * 12.8);
        let cfg = RouteConfig::default();
        let mut grid = RouteGrid::new(&fp, &cfg);
        assert_eq!(grid.total_overflow(), 0.0);
        let cap = grid.h_cap();
        grid.add_h(0, 0, cap + 3.0);
        assert!((grid.total_overflow() - 3.0).abs() < 1e-9);
        assert!((grid.max_utilization() - (cap + 3.0) / cap).abs() < 1e-9);
        let over = grid.update_history(0.5);
        assert_eq!(over, 1);
        assert!((grid.h_history(0, 0) - 1.5).abs() < 1e-9);
        grid.add_h(0, 0, -(cap + 3.0));
        assert_eq!(grid.total_overflow(), 0.0);
    }

    #[test]
    fn pin_blockage_adds_load_not_wirelength() {
        let fp = Floorplan::with_rows_and_area(3, 3.0 * 6.4 * 19.2);
        let mut grid = RouteGrid::new(&fp, &RouteConfig::default());
        grid.add_pin_blockage(Point::new(9.6, 9.6), 2.0); // centre gcell
                                                          // blockage spreads over the 4 adjacent edges
        let total_load: f64 = (0..2)
            .map(|x| grid.h_load(x, 1))
            .chain((0..1).flat_map(|_| vec![grid.v_load(1, 0), grid.v_load(1, 1)]))
            .sum();
        assert!((total_load - 2.0).abs() < 1e-9, "load {total_load}");
        assert_eq!(grid.total_wirelength(), 0.0, "blockage is not wire");
        // overflow counts blockage
        grid.add_pin_blockage(Point::new(9.6, 9.6), 1000.0);
        assert!(grid.total_overflow() > 0.0);
    }

    #[test]
    fn capacity_scale_multiplies() {
        let base = RouteConfig::default();
        let scaled = RouteConfig { capacity_scale: 2.0, ..base };
        assert!((scaled.h_capacity() - 2.0 * base.h_capacity()).abs() < 1e-9);
        assert!((scaled.v_capacity() - 2.0 * base.v_capacity()).abs() < 1e-9);
    }

    #[test]
    fn corner_gcell_blockage_uses_available_edges() {
        let fp = Floorplan::with_rows_and_area(3, 3.0 * 6.4 * 19.2);
        let mut grid = RouteGrid::new(&fp, &RouteConfig::default());
        grid.add_pin_blockage(Point::new(0.1, 0.1), 2.0); // corner: 2 edges
        let total = grid.h_load(0, 0) + grid.v_load(0, 0);
        assert!((total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wirelength_scales_with_gcell() {
        let fp = Floorplan::with_rows_and_area(2, 2.0 * 6.4 * 12.8);
        let mut grid = RouteGrid::new(&fp, &RouteConfig::default());
        grid.add_h(0, 0, 2.0);
        grid.add_v(0, 0, 1.0);
        assert!((grid.total_wirelength() - 3.0 * 6.4).abs() < 1e-9);
    }
}
