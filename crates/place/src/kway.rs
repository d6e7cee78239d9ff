//! Direct k-way, wire-aware multilevel placement.
//!
//! The die is divided into a `gx × gy` grid of gcell regions; a placement
//! is an assignment of cells to regions, with every cell sitting at its
//! region's centre until the finest level spreads them out. The instance
//! is coarsened by heavy-edge clustering ([`crate::coarsen`]), the
//! coarsest clusters are assigned to regions from connectivity-averaged
//! anchor positions, and the assignment is refined at every level by
//! k-way pass moves whose gain is the *delta in net bounding-box HPWL* —
//! the Steiner-metric surrogate the router actually feels — rather than
//! cut size.
//!
//! # Parallel refinement and determinism
//!
//! Refinement runs in rounds. Each round pairs up disjoint adjacent
//! regions in a brick-wall schedule (horizontal even / horizontal odd /
//! vertical even / vertical odd); every pair job reads only the immutable
//! start-of-round assignment snapshot plus its own two regions' cells, so
//! the jobs are independent pure functions. They fan out on the
//! [`casyn_exec::Pool`] via `par_map`, whose results come back in input
//! (pair) order, and the moves are applied after the round in that order.
//! Pairs never share a region within a round, so the applied state is
//! independent of execution interleaving: the parallel result is
//! bit-identical to the serial one by construction.

use crate::coarsen::coarsen;
use crate::image::Floorplan;
use crate::instance::{CellPins, PinRef, PlaceInstance};
use crate::netbox::{self, NetBoxes};
use crate::refine::{median_improve_with, RefineOptions};
use crate::spread::{spread_in_rect, Rect};
use crate::PlacerOptions;
use casyn_exec::Pool;
use casyn_netlist::Point;
use casyn_obs as obs;

/// Minimum HPWL gain for a refinement move: strictly positive so that
/// zero-gain oscillations cannot ping-pong between rounds.
const MIN_GAIN: f64 = 1e-9;

/// Inner improvement passes inside one pair job.
const PAIR_PASSES: usize = 2;

/// The gcell region grid: the die cut into `gx × gy` equal rectangles,
/// region `r` at column `r % gx`, row `r / gx` (row 0 at the bottom).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionGrid {
    gx: usize,
    gy: usize,
    die_w: f64,
    die_h: f64,
}

impl RegionGrid {
    /// A grid of at least `k_target` regions whose cells are near-square
    /// on this die.
    fn new(fp: &Floorplan, k_target: usize) -> Self {
        let k = k_target.max(1);
        let gy = ((k as f64 * fp.die_height / fp.die_width.max(1e-9)).sqrt().round() as usize)
            .clamp(1, k);
        let gx = k.div_ceil(gy);
        RegionGrid { gx, gy, die_w: fp.die_width, die_h: fp.die_height }
    }

    fn k(&self) -> usize {
        self.gx * self.gy
    }

    fn rect(&self, r: usize) -> Rect {
        let (cx, cy) = (r % self.gx, r / self.gx);
        let (w, h) = (self.die_w / self.gx as f64, self.die_h / self.gy as f64);
        Rect {
            x0: cx as f64 * w,
            y0: cy as f64 * h,
            x1: (cx + 1) as f64 * w,
            y1: (cy + 1) as f64 * h,
        }
    }

    fn center(&self, r: usize) -> Point {
        self.rect(r).center()
    }

    /// The region whose rectangle contains `p` (clamped into the die).
    fn nearest(&self, p: Point) -> usize {
        let cx = ((p.x / (self.die_w / self.gx as f64)) as usize).min(self.gx - 1);
        let cy = ((p.y / (self.die_h / self.gy as f64)) as usize).min(self.gy - 1);
        cy * self.gx + cx
    }

    /// The four brick-wall rounds of disjoint adjacent region pairs:
    /// horizontal even / horizontal odd / vertical even / vertical odd.
    /// Within a round no region appears twice, so the pairs can refine
    /// concurrently; pair order inside a round is deterministic
    /// (row-major), which fixes the move application order.
    fn pair_rounds(&self) -> Vec<Vec<(usize, usize)>> {
        let id = |x: usize, y: usize| y * self.gx + x;
        let mut rounds = Vec::with_capacity(4);
        for offset in [0usize, 1] {
            let mut pairs = Vec::new();
            for y in 0..self.gy {
                let mut x = offset;
                while x + 1 < self.gx {
                    pairs.push((id(x, y), id(x + 1, y)));
                    x += 2;
                }
            }
            rounds.push(pairs);
        }
        for offset in [0usize, 1] {
            let mut pairs = Vec::new();
            for y in (offset..self.gy).step_by(2) {
                if y + 1 >= self.gy {
                    break;
                }
                for x in 0..self.gx {
                    pairs.push((id(x, y), id(x, y + 1)));
                }
            }
            rounds.push(pairs);
        }
        rounds
    }
}

/// Places `inst` with the direct k-way multilevel backend. Deterministic
/// for a fixed instance and options; the pool only changes wall-clock
/// time, never the result (see the module docs).
pub(crate) fn place_kway(
    inst: &PlaceInstance,
    fp: &Floorplan,
    opts: &PlacerOptions,
    pool: &Pool,
) -> Vec<Point> {
    let n = inst.num_cells();
    if n == 0 {
        return Vec::new();
    }
    let mut span = obs::trace::span("place.kway");
    span.attr_num("cells", n as f64);
    let grid = RegionGrid::new(fp, n.div_ceil(opts.region_cells.max(1)));
    span.attr_num("regions", grid.k() as f64);
    let k = grid.k();
    let cap = inst.total_width() / k as f64 * (1.0 + opts.balance_tol.max(0.0));

    // coarsen to ~2 clusters per region so the initial assignment has
    // slack to balance
    let levels = {
        let _span = obs::trace::span("place.kway.coarsen");
        coarsen(inst, 2 * k)
    };
    let coarsest: &PlaceInstance = levels.last().map_or(inst, |l| &l.inst);
    // the pin list of the level being refined; the finest level's (that
    // of `inst`) once the levels are done
    let mut pins = CellPins::new(coarsest);

    // initial k-way assignment of the coarsest clusters
    let mut assign = {
        let mut span = obs::trace::span("place.kway.seed");
        let anchors = anchor_positions(coarsest, &pins, fp);
        let (assign, home_misses) = initial_assign(coarsest, &grid, &anchors, cap);
        span.attr_num("home_misses", home_misses as f64);
        assign
    };

    // refine at the coarsest level, then uncoarsen + refine per level
    let mut level_no = 0usize;
    let mut rounds = refine_level(coarsest, &pins, &grid, &mut assign, cap, opts, pool, level_no);
    for li in (0..levels.len()).rev() {
        level_no += 1;
        let finer: &PlaceInstance = if li == 0 { inst } else { &levels[li - 1].inst };
        pins = CellPins::new(finer);
        assign = levels[li].cluster_of.iter().map(|&cl| assign[cl]).collect();
        rounds += refine_level(finer, &pins, &grid, &mut assign, cap, opts, pool, level_no);
    }
    obs::counter_add("place.kway.levels", (level_no + 1) as u64);
    obs::counter_add("place.kway.rounds", rounds as u64);

    // finest level: spread each region's cells inside its rectangle,
    // then polish toward per-cell medians (serial, deterministic)
    let mut pos: Vec<Point> = assign.iter().map(|&r| grid.center(r)).collect();
    {
        let _span = obs::trace::span("place.kway.spread");
        let mut regions = RegionCells::default();
        regions.rebuild(&assign, k);
        for r in 0..k {
            spread_in_rect(grid.rect(r), regions.of(r), &pins, &mut pos);
        }
    }
    // multi-resolution polish: coarse bins first so cells can cross the
    // die toward their medians, then finer bins to settle local detail.
    // The coarse stages keep a tight density cap so long-range moves
    // cannot pile cells into one corner of a large bin, and every stage
    // ends by unstacking near-coincident cells (medians pull all the
    // cells sharing a net onto one point; the density cap only gates
    // cross-bin moves) so the next stage re-optimizes from spread-out
    // positions instead of compounding the pile-up.
    let mut polish_moves = 0usize;
    for (bin_size, max_density) in [(4.0 * 12.8, 1.2), (2.0 * 12.8, 1.4)] {
        let ropts = RefineOptions { iterations: 4, bin_size, max_density };
        {
            let _span = obs::trace::span("place.kway.median");
            polish_moves += median_improve_with(inst, &pins, fp, &mut pos, &ropts);
        }
        unstack_bins(inst, &pins, fp, &mut pos, 1.6);
    }

    // bound the gcell-level density the router will feel: push excess
    // cells out of over-full fine bins into the cheapest neighbouring
    // bin with slack, then separate any still-coincident cells
    relax_density(inst, fp, &mut pos, 12.8, 1.8);
    unstack_bins(inst, &pins, fp, &mut pos, 1.6);
    drop(pins);
    // last mile: greedy position swaps between nearby cells — a swap
    // permutes occupied locations, so the density profile (and therefore
    // routability) is untouched while HPWL strictly decreases
    polish_moves += swap_polish(inst, fp, &mut pos, 12.8, 4);
    obs::counter_add("place.kway.polish_moves", polish_moves as u64);
    pos
}

/// Greedy tail polish that swaps the positions of two cells whenever the
/// swap lowers the summed HPWL of their nets. A swap relocates no
/// occupied site, so cell density is invariant. Returns the number of
/// swaps applied.
///
/// Each of `passes` sweeps bins the cells by their position at the
/// sweep's start and visits the bins in index order, and in each bin its
/// cells `a` in index order. A candidate `c` of `a` comes from `a`'s bin,
/// then the right neighbour bin, then the upper one, and is tried only
/// when `c > a`. So a pair inside one bin is tried once per sweep, but a
/// pair across adjacent bins is tried only when the cell in the right or
/// upper bin has the larger index, and otherwise never.
///
/// A try first bounds the gain from the two cells' cached net boxes
/// ([`NetBoxes::swap_bound`]) and scores the swap in full only when the
/// bound is not below `−δ` ([`NetBoxes::swap_bound_margin`]): such a pair
/// has a gain below 0, so skipping it changes no decision.
fn swap_polish(
    inst: &PlaceInstance,
    fp: &Floorplan,
    pos: &mut [Point],
    bin_size: f64,
    passes: usize,
) -> usize {
    let mut span = obs::trace::span("place.kway.swap");
    let nx = ((fp.die_width / bin_size).ceil() as usize).max(1);
    let ny = ((fp.die_height / bin_size).ceil() as usize).max(1);
    let mut boxes = NetBoxes::new(inst, pos);
    let margin = boxes.swap_bound_margin();
    let (mut tries, mut scored, mut swaps) = (0u64, 0u64, 0usize);
    let (mut bins, mut bin_of, mut a_boxes) = (RegionCells::default(), Vec::new(), Vec::new());
    for _ in 0..passes {
        bin_of.clear();
        bin_of.extend(boxes.pos().iter().map(|p| {
            let bx = ((p.x / bin_size) as usize).min(nx - 1);
            let by = ((p.y / bin_size) as usize).min(ny - 1);
            by * nx + bx
        }));
        bins.rebuild(&bin_of, nx * ny);
        let mut moved = false;
        for b in 0..nx * ny {
            let (bx, by) = (b % nx, b / nx);
            let right: &[usize] = if bx + 1 < nx { bins.of(b + 1) } else { &[] };
            let upper: &[usize] = if by + 1 < ny { bins.of(b + nx) } else { &[] };
            for &a in bins.of(b) {
                let mut side = boxes.swap_side(a, &mut a_boxes);
                // own bin plus right and upper neighbours, larger indices
                // only: a neighbour with a smaller index is never tried
                for &c in bins.of(b).iter().chain(right).chain(upper) {
                    if c <= a {
                        continue;
                    }
                    tries += 1;
                    if boxes.swap_bound(&side, &a_boxes, c) < -margin {
                        continue;
                    }
                    scored += 1;
                    if boxes.swap_gain(a, c) > MIN_GAIN {
                        boxes.commit_swap(a, c);
                        swaps += 1;
                        moved = true;
                        side = boxes.swap_side(a, &mut a_boxes);
                    }
                }
            }
        }
        if !moved {
            break;
        }
    }
    span.attr_num("tries", tries as f64);
    span.attr_num("scored", scored as f64);
    span.attr_num("swaps", swaps as f64);
    span.attr_num("rescans", boxes.rescans() as f64);
    swaps
}

/// Caps the per-bin cell-width density at `max_density` times the die
/// average by walking excess cells out of over-full `bin_size` bins into
/// a 4-neighbour bin with slack, cheapest HPWL delta first. A few rounds
/// let excess percolate across several bins. Deterministic: bins, cells
/// and neighbours are visited in index order, ties resolve by cell index.
fn relax_density(
    inst: &PlaceInstance,
    fp: &Floorplan,
    pos: &mut [Point],
    bin_size: f64,
    max_density: f64,
) {
    const ROUNDS: usize = 8;
    let _span = obs::trace::span("place.kway.relax");
    let nx = ((fp.die_width / bin_size).ceil() as usize).max(1);
    let ny = ((fp.die_height / bin_size).ceil() as usize).max(1);
    if nx * ny < 2 {
        return;
    }
    let max_w = inst.cell_width.iter().copied().fold(0.0f64, f64::max);
    // never set the cap below one cell: a die with few cells would
    // otherwise see every occupied bin as over-full and thrash
    let cap = (inst.total_width() / (nx * ny) as f64 * max_density).max(max_w);
    let bin_of = |p: Point| -> (usize, usize) {
        (((p.x / bin_size) as usize).min(nx - 1), ((p.y / bin_size) as usize).min(ny - 1))
    };
    // nearest point of bin (bx, by) to `p`, inset so bin_of maps into it
    let point_in_bin = |p: Point, bx: usize, by: usize| -> Point {
        let inset = bin_size / 16.0;
        // edge bins may be partial: keep lo <= hi even when the die
        // boundary cuts into the inset band
        let hi_x = ((bx + 1) as f64 * bin_size - inset).min(fp.die_width);
        let lo_x = (bx as f64 * bin_size + inset).min(hi_x);
        let hi_y = ((by + 1) as f64 * bin_size - inset).min(fp.die_height);
        let lo_y = (by as f64 * bin_size + inset).min(hi_y);
        Point::new(p.x.clamp(lo_x, hi_x), p.y.clamp(lo_y, hi_y))
    };
    let mut boxes = NetBoxes::new(inst, pos);
    for _ in 0..ROUNDS {
        let mut fill = vec![0.0f64; nx * ny];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nx * ny];
        for (c, p) in boxes.pos().iter().enumerate() {
            let (bx, by) = bin_of(*p);
            fill[by * nx + bx] += inst.cell_width[c];
            members[by * nx + bx].push(c);
        }
        let mut moved_any = false;
        for b in 0..nx * ny {
            if fill[b] <= cap {
                continue;
            }
            let (bx, by) = (b % nx, b / nx);
            let neighbours: Vec<(usize, usize)> =
                [(bx.wrapping_sub(1), by), (bx + 1, by), (bx, by.wrapping_sub(1)), (bx, by + 1)]
                    .into_iter()
                    .filter(|&(x, y)| x < nx && y < ny)
                    .collect();
            // cheapest outbound move per member cell
            let mut candidates: Vec<(f64, usize, usize)> = Vec::new(); // (cost, cell, dest bin)
            for &c in &members[b] {
                let mut best: Option<(f64, usize)> = None;
                for &(x, y) in &neighbours {
                    let nb = y * nx + x;
                    if fill[nb] + inst.cell_width[c] > cap {
                        continue;
                    }
                    let cost = boxes.move_delta(c, point_in_bin(boxes.pos()[c], x, y));
                    if best.is_none_or(|(bc, _)| cost < bc) {
                        best = Some((cost, nb));
                    }
                }
                if let Some((cost, nb)) = best {
                    candidates.push((cost, c, nb));
                }
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (_, c, nb) in candidates {
                if fill[b] <= cap {
                    break;
                }
                if fill[nb] + inst.cell_width[c] > cap {
                    continue; // the chosen neighbour filled up this round
                }
                boxes.commit_move(c, point_in_bin(boxes.pos()[c], nb % nx, nb / nx));
                fill[b] -= inst.cell_width[c];
                fill[nb] += inst.cell_width[c];
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
}

/// Spreads every stack of near-coincident cells (cells whose median
/// polish converged on the same point) over a small rectangle around the
/// stack, sized so each cell gets about one standard-cell slot of area.
/// Local by construction: a lone cell never moves, and a stack of `m`
/// cells moves at most ~`sqrt(m)` cell widths.
fn unstack_bins(
    inst: &PlaceInstance,
    pins: &CellPins,
    fp: &Floorplan,
    pos: &mut [Point],
    bin_size: f64,
) {
    let _span = obs::trace::span("place.kway.unstack");
    let nx = ((fp.die_width / bin_size).ceil() as usize).max(1);
    let ny = ((fp.die_height / bin_size).ceil() as usize).max(1);
    let mut bin_cells: Vec<Vec<usize>> = vec![Vec::new(); nx * ny];
    for (c, p) in pos.iter().enumerate() {
        let bx = ((p.x / bin_size) as usize).min(nx - 1);
        let by = ((p.y / bin_size) as usize).min(ny - 1);
        bin_cells[by * nx + bx].push(c);
    }
    for cells in bin_cells.iter().filter(|cells| cells.len() >= 2) {
        // centre of mass of the stack, one standard-cell slot per member
        let (mut cx, mut cy, mut area) = (0.0, 0.0, 0.0);
        for &c in cells {
            cx += pos[c].x;
            cy += pos[c].y;
            area += inst.cell_width[c] * (crate::image::ROW_HEIGHT / 2.0);
        }
        let (cx, cy) = (cx / cells.len() as f64, cy / cells.len() as f64);
        let half = (area.sqrt() / 2.0).clamp(bin_size / 4.0, 2.0 * bin_size);
        let rect = Rect {
            x0: (cx - half).clamp(0.0, (fp.die_width - 2.0 * half).max(0.0)),
            y0: (cy - half).clamp(0.0, (fp.die_height - 2.0 * half).max(0.0)),
            x1: (cx + half).clamp((2.0 * half).min(fp.die_width), fp.die_width),
            y1: (cy + half).clamp((2.0 * half).min(fp.die_height), fp.die_height),
        };
        spread_in_rect(rect, cells, pins, pos);
    }
}

/// Connectivity-averaged anchor positions used to seed the initial
/// assignment: clusters touching fixed pins start at their centroid,
/// the rest at the die centre, and a few Jacobi sweeps pull every
/// cluster toward the average of its connected pins.
fn anchor_positions(inst: &PlaceInstance, pins: &CellPins, fp: &Floorplan) -> Vec<Point> {
    const SWEEPS: usize = 40;
    let n = inst.num_cells();
    let center = Point::new(fp.die_width / 2.0, fp.die_height / 2.0);
    let mut pos = vec![center; n];
    for (c, anchor) in pos.iter_mut().enumerate() {
        let (mut x, mut y, mut m) = (0.0, 0.0, 0.0);
        for pin in pins.of_cell(c) {
            if let PinRef::Fixed(p) = pin {
                x += p.x;
                y += p.y;
                m += 1.0;
            }
        }
        if m > 0.0 {
            *anchor = Point::new(x / m, y / m);
        }
    }
    let mut next = pos.clone();
    for _ in 0..SWEEPS {
        for c in 0..n {
            let (mut x, mut y, mut m) = (0.0, 0.0, 0.0);
            for pin in pins.of_cell(c) {
                let p = match pin {
                    PinRef::Cell(o) if o == c => continue,
                    PinRef::Cell(o) => pos[o],
                    PinRef::Fixed(p) => p,
                };
                x += p.x;
                y += p.y;
                m += 1.0;
            }
            next[c] = if m > 0.0 { Point::new(x / m, y / m) } else { pos[c] };
        }
        std::mem::swap(&mut pos, &mut next);
    }
    pos
}

/// Assigns clusters to regions: heaviest first (ties by index), each to
/// the nearest region with remaining capacity (ties to the lowest
/// region index), falling back to the least-filled region when none
/// fits. Also returns how many clusters missed their home region (the
/// one containing their anchor).
fn initial_assign(
    inst: &PlaceInstance,
    grid: &RegionGrid,
    anchors: &[Point],
    cap: f64,
) -> (Vec<usize>, usize) {
    let k = grid.k();
    let n = inst.num_cells();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| inst.cell_width[b].total_cmp(&inst.cell_width[a]).then(a.cmp(&b)));
    // region centres per column and per row: the centre of region
    // `y * gx + x` is (`xs[x]`, `ys[y]`)
    let xs: Vec<f64> = (0..grid.gx).map(|x| grid.center(x).x).collect();
    let ys: Vec<f64> = (0..grid.gy).map(|y| grid.center(y * grid.gx).y).collect();
    let (mut cols, mut rows) = (Vec::new(), Vec::new());
    let mut fill = vec![0.0f64; k];
    let mut assign = vec![0usize; n];
    let mut home_misses = 0;
    for &c in &order {
        let w = inst.cell_width[c];
        // fast path: the region containing the anchor, when it has room
        let home = grid.nearest(anchors[c]);
        if fill[home] + w <= cap {
            fill[home] += w;
            assign[c] = home;
            continue;
        }
        home_misses += 1;
        // `anchor.manhattan(centre)` is `dx + dy`, and rounding is
        // monotone, so walking rows by ascending `dy` and each row's
        // columns by ascending `dx` meets every region in an order where
        // the distance never drops below a bound that only grows: stop
        // once it exceeds the best distance found (ties keep going, so
        // the lowest index among equals still wins)
        let a = anchors[c];
        by_distance(a.x, &xs, &mut cols);
        by_distance(a.y, &ys, &mut rows);
        let dx_min = (a.x - xs[cols[0]]).abs();
        let mut best: Option<(f64, usize)> = None;
        for &y in &rows {
            let dy = (a.y - ys[y]).abs();
            if best.is_some_and(|(bd, _)| dx_min + dy > bd) {
                break;
            }
            for &x in &cols {
                let d = (a.x - xs[x]).abs() + dy;
                if best.is_some_and(|(bd, _)| d > bd) {
                    break;
                }
                let r = y * grid.gx + x;
                if fill[r] + w <= cap && best.is_none_or(|(bd, br)| d < bd || (d == bd && r < br)) {
                    best = Some((d, r));
                }
            }
        }
        let r = match best {
            Some((_, r)) => r,
            // every region is at capacity: spill into the least filled
            None => {
                (0..k).min_by(|&a, &b| fill[a].total_cmp(&fill[b]).then(a.cmp(&b))).expect("k >= 1")
            }
        };
        fill[r] += w;
        assign[c] = r;
    }
    (assign, home_misses)
}

/// Indices of the ascending `centres` in ascending order of their
/// distance to `v`, as `(v - centre).abs()` rounds it: outward from `v`,
/// merging the two sides.
fn by_distance(v: f64, centres: &[f64], out: &mut Vec<usize>) {
    out.clear();
    let mut right = centres.partition_point(|&c| c <= v);
    let mut left = right;
    while left > 0 || right < centres.len() {
        let take_left = right == centres.len()
            || (left > 0 && (v - centres[left - 1]).abs() <= (v - centres[right]).abs());
        if take_left {
            left -= 1;
            out.push(left);
        } else {
            out.push(right);
            right += 1;
        }
    }
}

/// Cells grouped by region (or bin), each group in index order: region
/// `r` holds `cells[start[r]..start[r + 1]]`. Rebuilt in place, so one
/// value serves every round.
#[derive(Debug, Default)]
struct RegionCells {
    start: Vec<usize>,
    cells: Vec<usize>,
}

impl RegionCells {
    /// Groups the cells `0..assign.len()` by their region `assign[c] < k`.
    fn rebuild(&mut self, assign: &[usize], k: usize) {
        self.start.clear();
        self.start.resize(k + 1, 0);
        for &r in assign {
            self.start[r] += 1;
        }
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        // `start[r]` is now region `r`'s end; filling each region from
        // the back, in descending cell order, leaves it at the region's
        // first slot with the cells ascending
        self.cells.resize(assign.len(), 0);
        for (c, &r) in assign.iter().enumerate().rev() {
            self.start[r] -= 1;
            self.cells[self.start[r]] = c;
        }
    }

    fn of(&self, r: usize) -> &[usize] {
        &self.cells[self.start[r]..self.start[r + 1]]
    }
}

/// Refines one level's assignment: `kway_passes` sweeps over the four
/// brick-wall pair rounds, each round's pair jobs fanned out on the pool
/// against the start-of-round snapshot. Returns the number of rounds
/// fanned out: empty rounds are skipped and the sweeps stop after the
/// first one without a move.
#[allow(clippy::too_many_arguments)]
fn refine_level(
    inst: &PlaceInstance,
    pins: &CellPins,
    grid: &RegionGrid,
    assign: &mut [usize],
    cap: f64,
    opts: &PlacerOptions,
    pool: &Pool,
    level_no: usize,
) -> usize {
    let k = grid.k();
    if k < 2 || inst.num_cells() == 0 {
        return 0;
    }
    let mut span = obs::trace::span("place.kway.level");
    span.attr_num("level", level_no as f64);
    span.attr_num("cells", inst.num_cells() as f64);
    span.attr_num("regions", k as f64);
    let centers: Vec<Point> = (0..k).map(|r| grid.center(r)).collect();
    let rounds = grid.pair_rounds();
    let mut fill = vec![0.0f64; k];
    for (c, &r) in assign.iter().enumerate() {
        fill[r] += inst.cell_width[c];
    }
    let (mut regions, mut live) = (RegionCells::default(), Vec::new());
    let (mut level_moves, mut scored) = (0u64, 0usize);
    let mut rounds_run = 0usize;
    for _pass in 0..opts.kway_passes.max(1) {
        let mut pass_moves = 0u64;
        for round in &rounds {
            if round.is_empty() {
                continue;
            }
            rounds_run += 1;
            regions.rebuild(assign, k);
            // a cell only ever moves to its pair's other region, so a pair
            // in which no cell of either region fits the other can move
            // nothing: only the others fan out
            let fits = |from: usize, to: usize| {
                regions.of(from).iter().any(|&c| fill[to] + inst.cell_width[c] <= cap)
            };
            live.clear();
            live.extend(round.iter().copied().filter(|&(a, b)| fits(a, b) || fits(b, a)));
            // snapshot-round fan-out: each pair job is a pure function of
            // the frozen `assign`/`fill`, results come back in pair order
            let round_state = RoundState { inst, pins, centers: &centers, snapshot: assign, cap };
            let moves_of_pair = pool.par_map(&live, |&(a, b)| {
                refine_pair(&round_state, (a, regions.of(a), fill[a]), (b, regions.of(b), fill[b]))
            });
            for (moves, pair_scored) in &moves_of_pair {
                scored += pair_scored;
                for &(c, to) in moves {
                    fill[assign[c]] -= inst.cell_width[c];
                    fill[to] += inst.cell_width[c];
                    assign[c] = to;
                    pass_moves += 1;
                }
            }
        }
        level_moves += pass_moves;
        if pass_moves == 0 {
            break;
        }
    }
    span.attr_num("moves", level_moves as f64);
    span.attr_num("scored", scored as f64);
    span.attr_num("rounds", rounds_run as f64);
    obs::counter_add("place.kway.moves", level_moves);
    rounds_run
}

/// What every pair job of one round reads: the instance and its pin
/// list, the region centres, and the frozen start-of-round assignment.
#[derive(Clone, Copy)]
struct RoundState<'a> {
    inst: &'a PlaceInstance,
    pins: &'a CellPins,
    centers: &'a [Point],
    snapshot: &'a [usize],
    cap: f64,
}

/// Improves one region pair against the round snapshot: cells of `a` and
/// `b` (each list in index order) are visited in index order and moved
/// to the opposite region when that strictly reduces the summed HPWL of
/// their nets (evaluated with pair cells at their *local* region centres
/// and all external cells at their snapshot centres), subject to the
/// capacity cap. Returns the surviving moves as `(cell, new_region)` in
/// cell order, and how many move deltas were computed.
fn refine_pair(
    round: &RoundState,
    (a, cells_a, fill_a): (usize, &[usize], f64),
    (b, cells_b, fill_b): (usize, &[usize], f64),
) -> (Vec<(usize, usize)>, usize) {
    let RoundState { inst, pins, centers, snapshot, cap } = *round;
    let other_of = |r: usize| if r == a { b } else { a };
    // the pair cells currently off their snapshot region; every other
    // cell stays on its snapshot region
    let mut flipped: Vec<usize> = Vec::new();
    let region_of = |o: usize, flipped: &[usize]| -> usize {
        let r = snapshot[o];
        if (r == a || r == b) && flipped.contains(&o) {
            other_of(r)
        } else {
            r
        }
    };
    let (mut fa, mut fb) = (fill_a, fill_b);
    let mut scored = 0;
    for _ in 0..PAIR_PASSES {
        let mut changed = false;
        let (mut ia, mut ib) = (0, 0);
        while ia < cells_a.len() || ib < cells_b.len() {
            // the two index-sorted lists, merged
            let c = if ib == cells_b.len() || (ia < cells_a.len() && cells_a[ia] < cells_b[ib]) {
                ia += 1;
                cells_a[ia - 1]
            } else {
                ib += 1;
                cells_b[ib - 1]
            };
            let cur = region_of(c, &flipped);
            let other = other_of(cur);
            let w = inst.cell_width[c];
            let other_fill = if other == a { fa } else { fb };
            if other_fill + w > cap {
                continue;
            }
            // delta HPWL of moving c from cur to other, everything else
            // at its current (local or snapshot) region centre
            scored += 1;
            let mut delta = 0.0;
            for i in pins.incidences(c) {
                let rest = netbox::scan(pins.of_incidence(i), Some(c), |o| {
                    centers[region_of(o, &flipped)]
                });
                delta += rest.with(centers[other]).hpwl() - rest.with(centers[cur]).hpwl();
            }
            if delta < -MIN_GAIN {
                if cur == a {
                    fa -= w;
                    fb += w;
                } else {
                    fb -= w;
                    fa += w;
                }
                match flipped.iter().position(|&f| f == c) {
                    Some(at) => {
                        flipped.swap_remove(at);
                    }
                    None => flipped.push(c),
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    flipped.sort_unstable();
    (flipped.into_iter().map(|c| (c, other_of(snapshot[c]))).collect(), scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PlaceNet;
    use crate::metrics::total_hpwl_of_instance;
    use crate::netbox::tests::{instance, lattice_point, pair_cost};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain_instance(n: usize) -> PlaceInstance {
        let mut inst = PlaceInstance { cell_width: vec![1.92; n], nets: Vec::new() };
        for i in 0..n - 1 {
            inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + 1)] });
        }
        inst
    }

    #[test]
    fn grid_geometry_and_pairs_are_disjoint() {
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 640.0);
        let grid = RegionGrid::new(&fp, 12);
        assert!(grid.k() >= 12);
        for r in 0..grid.k() {
            let rect = grid.rect(r);
            assert!(rect.x0 < rect.x1 && rect.y0 < rect.y1);
            assert_eq!(grid.nearest(grid.center(r)), r, "centre maps back to its region");
        }
        for round in grid.pair_rounds() {
            let mut seen = std::collections::HashSet::new();
            for (a, b) in round {
                assert!(seen.insert(a), "region {a} paired twice in one round");
                assert!(seen.insert(b), "region {b} paired twice in one round");
            }
        }
    }

    #[test]
    fn refine_level_counts_the_rounds_it_fans_out() {
        // a chain laid out left to right over a 4 x 1 grid is already
        // optimal: the first sweep makes no move and ends the level after
        // the two horizontal rounds (a one-row grid has no vertical pairs),
        // not after the planned 4 rounds x kway_passes
        let inst = chain_instance(32);
        let grid = RegionGrid { gx: 4, gy: 1, die_w: 256.0, die_h: 64.0 };
        let mut assign: Vec<usize> = (0..32).map(|c| c / 8).collect();
        let before = assign.clone();
        let cap = inst.total_width() / 4.0 * 1.3;
        let opts = PlacerOptions::default();
        assert!(opts.kway_passes > 1);
        let pins = CellPins::new(&inst);
        let rounds = refine_level(&inst, &pins, &grid, &mut assign, cap, &opts, &Pool::serial(), 0);
        assert_eq!(assign, before);
        assert_eq!(rounds, 2);
    }

    #[test]
    fn all_cells_inside_die() {
        let inst = chain_instance(100);
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 64.0 * 10.0);
        let pos = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
        assert_eq!(pos.len(), 100);
        for p in &pos {
            assert!(p.x >= 0.0 && p.x <= fp.die_width, "x out of die: {p:?}");
            assert!(p.y >= 0.0 && p.y <= fp.die_height, "y out of die: {p:?}");
        }
    }

    #[test]
    fn chain_places_better_than_pathological() {
        let inst = chain_instance(128);
        let fp = Floorplan::with_rows_and_area(8, 6.4 * 8.0 * 51.2);
        let pos = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
        let placed = total_hpwl_of_instance(&inst, &pos);
        let bad: Vec<Point> = (0..128)
            .map(|i| {
                if i % 2 == 0 {
                    Point::new(0.0, 0.0)
                } else {
                    Point::new(fp.die_width, fp.die_height)
                }
            })
            .collect();
        let worst = total_hpwl_of_instance(&inst, &bad);
        assert!(
            placed < worst / 4.0,
            "k-way placement ({placed:.1}) should beat the pathological one ({worst:.1})"
        );
    }

    #[test]
    fn fixed_terminals_attract_connected_cells() {
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 100.0);
        let inst = PlaceInstance {
            cell_width: vec![1.92, 1.92],
            nets: vec![
                PlaceNet { pins: vec![PinRef::Fixed(Point::new(0.0, 12.8)), PinRef::Cell(0)] },
                PlaceNet {
                    pins: vec![PinRef::Fixed(Point::new(fp.die_width, 12.8)), PinRef::Cell(1)],
                },
                PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Cell(1)] },
            ],
        };
        let opts = PlacerOptions { region_cells: 1, ..PlacerOptions::default() };
        let pos = place_kway(&inst, &fp, &opts, &Pool::serial());
        assert!(
            pos[0].x < pos[1].x,
            "cell 0 ({:?}) should sit left of cell 1 ({:?})",
            pos[0],
            pos[1]
        );
    }

    #[test]
    fn parallel_refinement_is_bit_identical_to_serial() {
        for n in [37usize, 128, 300] {
            let inst = chain_instance(n);
            let fp = Floorplan::with_rows_and_area(10, 10.0 * 6.4 * (n as f64));
            let serial = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
            for workers in [2, 4, 8] {
                let par = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::new(workers));
                assert_eq!(serial, par, "n={n} workers={workers} diverged from serial");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let inst = chain_instance(64);
        let fp = Floorplan::with_rows_and_area(8, 8.0 * 6.4 * 40.0);
        let a = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
        let b = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_cell_instances() {
        let fp = Floorplan::with_rows_and_area(2, 1000.0);
        assert!(place_kway(
            &PlaceInstance::default(),
            &fp,
            &PlacerOptions::default(),
            &Pool::serial()
        )
        .is_empty());
        let one = PlaceInstance { cell_width: vec![1.92], nets: Vec::new() };
        let pos = place_kway(&one, &fp, &PlacerOptions::default(), &Pool::serial());
        assert_eq!(pos.len(), 1);
        assert!(pos[0].x > 0.0 && pos[0].x < fp.die_width);
    }

    #[test]
    fn no_duplicate_positions_after_spread() {
        let inst = PlaceInstance { cell_width: vec![1.92; 7], nets: Vec::new() };
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 30.0);
        let pos = place_kway(&inst, &fp, &PlacerOptions::default(), &Pool::serial());
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                assert!(
                    pos[i].manhattan(pos[j]) > 1e-9,
                    "cells {i} and {j} coincide at {:?}",
                    pos[i]
                );
            }
        }
    }

    /// [`swap_polish`] without the bound, as a reference: the same bins,
    /// visiting order and `MIN_GAIN` rule, with every tried pair scored by
    /// rescanning its nets in full (`pair_cost`). A [`NetBoxes`] over a
    /// copy of the positions follows the same swaps, so the bound the
    /// polish would compute is checked at every try: a pair it skips must
    /// not gain. Returns the swaps made and the pairs the bound skips.
    fn swap_polish_by_rescans(
        inst: &PlaceInstance,
        fp: &Floorplan,
        pos: &mut [Point],
        bin_size: f64,
        passes: usize,
    ) -> (usize, u64) {
        let nets_of_cell = inst.nets_of_cells();
        let nx = ((fp.die_width / bin_size).ceil() as usize).max(1);
        let ny = ((fp.die_height / bin_size).ceil() as usize).max(1);
        let mut shadow = pos.to_vec();
        let mut boxes = NetBoxes::new(inst, &mut shadow);
        let margin = boxes.swap_bound_margin();
        let (mut swaps, mut skipped, mut a_boxes) = (0, 0, Vec::new());
        for _ in 0..passes {
            let mut bin_cells: Vec<Vec<usize>> = vec![Vec::new(); nx * ny];
            for (c, p) in pos.iter().enumerate() {
                let bx = ((p.x / bin_size) as usize).min(nx - 1);
                let by = ((p.y / bin_size) as usize).min(ny - 1);
                bin_cells[by * nx + bx].push(c);
            }
            let mut moved = false;
            for b in 0..nx * ny {
                let (bx, by) = (b % nx, b / nx);
                let right: &[usize] = if bx + 1 < nx { &bin_cells[b + 1] } else { &[] };
                let upper: &[usize] = if by + 1 < ny { &bin_cells[b + nx] } else { &[] };
                for &a in &bin_cells[b] {
                    for &c in bin_cells[b].iter().chain(right).chain(upper) {
                        if c <= a {
                            continue;
                        }
                        let before = pair_cost(inst, &nets_of_cell, a, c, pos);
                        pos.swap(a, c);
                        let gain = before - pair_cost(inst, &nets_of_cell, a, c, pos);
                        pos.swap(a, c);
                        let side = boxes.swap_side(a, &mut a_boxes);
                        if boxes.swap_bound(&side, &a_boxes, c) < -margin {
                            assert!(gain <= MIN_GAIN, "skipped ({a}, {c}) gains {gain}");
                            skipped += 1;
                        }
                        if gain > MIN_GAIN {
                            pos.swap(a, c);
                            boxes.commit_swap(a, c);
                            swaps += 1;
                            moved = true;
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
        assert_eq!(boxes.pos(), &*pos, "the shadow followed every swap");
        (swaps, skipped)
    }

    #[test]
    fn bounded_swap_polish_matches_full_rescans() {
        // a 10 x 5 die over the 5 x 5 lattice of `netbox`'s instances, so
        // pins tie on box edges all the time; 2.5-wide bins
        let fp = Floorplan { die_width: 10.0, die_height: 5.0, num_rows: 1 };
        let (mut skipped, mut swaps) = (0, 0);
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cells = 24 + 4 * seed as usize;
            // a cell twice on a net, single-pin and fixed-only nets, ...
            let mut inst = instance(&mut rng, cells);
            // ... and a cell on more nets than any fixed-size slot holds
            for _ in 0..40 {
                let other = PinRef::Cell(rng.gen_range(1..cells));
                let fixed = PinRef::Fixed(lattice_point(&mut rng));
                inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(0), other, fixed] });
            }
            let start: Vec<Point> = (0..cells).map(|_| lattice_point(&mut rng)).collect();
            let (mut bounded, mut reference) = (start.clone(), start);
            let n = swap_polish(&inst, &fp, &mut bounded, 2.5, 4);
            let (m, s) = swap_polish_by_rescans(&inst, &fp, &mut reference, 2.5, 4);
            assert_eq!(n, m, "seed {seed}: swap count");
            let bits = |pos: &[Point]| -> Vec<(u64, u64)> {
                pos.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            assert_eq!(bits(&bounded), bits(&reference), "seed {seed}: positions");
            skipped += s;
            swaps += n;
        }
        assert!(skipped > 0 && swaps > 0, "{skipped} pairs skipped, {swaps} swaps");
    }

    #[test]
    fn region_capacity_is_respected_by_initial_assignment() {
        let inst = chain_instance(64);
        let fp = Floorplan::with_rows_and_area(8, 8.0 * 6.4 * 40.0);
        let grid = RegionGrid::new(&fp, 8);
        let cap = inst.total_width() / grid.k() as f64 * 1.3;
        let anchors = anchor_positions(&inst, &CellPins::new(&inst), &fp);
        let (assign, _) = initial_assign(&inst, &grid, &anchors, cap);
        let mut fill = vec![0.0f64; grid.k()];
        for (c, &r) in assign.iter().enumerate() {
            fill[r] += inst.cell_width[c];
        }
        for (r, &f) in fill.iter().enumerate() {
            assert!(f <= cap + 1e-9, "region {r} overfull: {f} > {cap}");
        }
    }
}
