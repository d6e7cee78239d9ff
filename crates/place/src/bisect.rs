//! Recursive min-cut bisection placement with terminal propagation.
//!
//! The die is split recursively (always across its longer axis); at each
//! split the region's cells are bipartitioned by [`crate::fm`] with
//! anchors derived from the current estimated positions of external pins
//! (terminal propagation). Leaf regions spread their cells on a uniform
//! grid. The result is the "initial placement" the congestion-aware
//! mapper reads its coordinates from.

use crate::fm::{refine, FmNet, FmProblem};
use crate::image::Floorplan;
use crate::instance::{PinRef, PlaceInstance};
use crate::spread::{spread_in_rect, Rect};
use crate::PlacerOptions;
use casyn_netlist::Point;
use casyn_obs as obs;
use std::collections::VecDeque;

#[derive(Debug)]
struct Region {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    cells: Vec<usize>,
}

impl Region {
    fn rect(&self) -> Rect {
        Rect { x0: self.x0, y0: self.y0, x1: self.x1, y1: self.y1 }
    }

    fn center(&self) -> Point {
        self.rect().center()
    }
}

/// Places `inst` on the floorplan with recursive min-cut bisection;
/// returns one position per movable cell. Deterministic: no randomness
/// is involved, ties resolve by cell index. Callers normally go through
/// [`crate::place`], which dispatches on [`crate::PlacerBackend`].
pub fn place_bisect(inst: &PlaceInstance, fp: &Floorplan, opts: &PlacerOptions) -> Vec<Point> {
    let n = inst.num_cells();
    let mut pos = vec![Point::new(fp.die_width / 2.0, fp.die_height / 2.0); n];
    if n == 0 {
        return pos;
    }
    for sweep in 0..opts.sweeps.max(1) {
        let mut span = obs::trace::span("place.sweep");
        span.attr_num("sweep", sweep as f64);
        pos = bisection_sweep(inst, fp, opts, pos);
        obs::log::trace(&format!("place: sweep {sweep} done"));
    }
    obs::counter_add("place.sweeps", opts.sweeps.max(1) as u64);
    pos
}

/// One full recursive-bisection pass, seeded with `pos` (used for initial
/// partition ordering and terminal propagation).
fn bisection_sweep(
    inst: &PlaceInstance,
    fp: &Floorplan,
    opts: &PlacerOptions,
    seed: Vec<Point>,
) -> Vec<Point> {
    let n = inst.num_cells();
    let prev = seed.clone();
    let mut pos = seed;
    let nets_of_cell = inst.nets_of_cells();
    let mut queue = VecDeque::new();
    queue.push_back(Region {
        x0: 0.0,
        y0: 0.0,
        x1: fp.die_width,
        y1: fp.die_height,
        cells: (0..n).collect(),
    });
    // stamp array to collect the nets local to a region without hashing
    let mut net_stamp = vec![u32::MAX; inst.nets.len()];
    let mut stamp = 0u32;
    // batched locally; one registry flush per sweep
    let mut regions_split = 0u64;
    let mut leaves_spread = 0u64;
    while let Some(region) = queue.pop_front() {
        // stop on cell count, or on a degenerate region: an unbalanced
        // cut can push every cell into one child forever while the region
        // halves, so a physical floor is required for termination
        let tiny = (region.x1 - region.x0) < 0.05 && (region.y1 - region.y0) < 0.05;
        if region.cells.len() <= opts.leaf_cells || tiny {
            spread_leaf(&region, inst, &nets_of_cell, &mut pos);
            leaves_spread += 1;
            continue;
        }
        regions_split += 1;
        let vertical = (region.x1 - region.x0) >= (region.y1 - region.y0);
        let mid =
            if vertical { (region.x0 + region.x1) / 2.0 } else { (region.y0 + region.y1) / 2.0 };
        let axis = |p: Point| if vertical { p.x } else { p.y };
        // local numbering
        let mut local_id = vec![usize::MAX; inst.num_cells()];
        for (li, &c) in region.cells.iter().enumerate() {
            local_id[c] = li;
        }
        // collect local nets
        stamp += 1;
        let mut fm_nets: Vec<FmNet> = Vec::new();
        let mut net_slot: Vec<usize> = Vec::new();
        for &c in &region.cells {
            for &ni in &nets_of_cell[c] {
                if net_stamp[ni] != stamp {
                    net_stamp[ni] = stamp;
                    net_slot.push(ni);
                    fm_nets.push(FmNet::default());
                }
            }
        }
        for (slot, &ni) in net_slot.iter().enumerate() {
            let fmn = &mut fm_nets[slot];
            for pin in &inst.nets[ni].pins {
                match pin {
                    PinRef::Cell(c) => {
                        if local_id[*c] != usize::MAX {
                            fmn.cells.push(local_id[*c]);
                        } else {
                            // external cell: anchor by its current estimate
                            fmn.anchor[(axis(pos[*c]) >= mid) as usize] = true;
                        }
                    }
                    PinRef::Fixed(p) => {
                        fmn.anchor[(axis(*p) >= mid) as usize] = true;
                    }
                }
            }
        }
        // initial sides: order along the axis (stable by index), first
        // half of the weight to side 0
        // order by the *previous sweep's* coordinates: the running `pos`
        // array only holds region centres at this depth, which would tie
        let mut order: Vec<usize> = (0..region.cells.len()).collect();
        order.sort_by(|&a, &b| {
            axis(prev[region.cells[a]])
                .total_cmp(&axis(prev[region.cells[b]]))
                .then(region.cells[a].cmp(&region.cells[b]))
        });
        let total_w: f64 = region.cells.iter().map(|&c| inst.cell_width[c]).sum();
        let mut side = vec![false; region.cells.len()];
        let mut acc = 0.0;
        for &li in &order {
            side[li] = acc >= total_w / 2.0;
            acc += inst.cell_width[region.cells[li]];
        }
        let problem = FmProblem {
            weights: region.cells.iter().map(|&c| inst.cell_width[c]).collect(),
            nets: fm_nets,
            balance_tol: opts.balance_tol,
        };
        refine(&problem, &mut side, opts.fm_passes);
        // orientation: FM minimizes the cut but cannot perform the bulk
        // flip that swaps the two sides; anchors break the symmetry, so
        // pick the labelling with the smaller anchored cut
        let flipped: Vec<bool> = side.iter().map(|s| !s).collect();
        if problem.cut(&flipped) < problem.cut(&side) {
            side = flipped;
        }
        // split the region in proportion to the partition weights, so a
        // loosely balanced cut still yields uniform density
        let (mut lo, mut hi) = (region, Vec::new());
        let cells = std::mem::take(&mut lo.cells);
        let mut lo_cells = Vec::new();
        let mut lo_w = 0.0;
        for (li, c) in cells.into_iter().enumerate() {
            if side[li] {
                hi.push(c);
            } else {
                lo_w += inst.cell_width[c];
                lo_cells.push(c);
            }
        }
        let frac = if opts.proportional_split {
            (lo_w / total_w.max(1e-12)).clamp(0.05, 0.95)
        } else {
            0.5
        };
        let split =
            if vertical { lo.x0 + (lo.x1 - lo.x0) * frac } else { lo.y0 + (lo.y1 - lo.y0) * frac };
        let (r0, r1) = if vertical {
            (
                Region { x0: lo.x0, y0: lo.y0, x1: split, y1: lo.y1, cells: lo_cells },
                Region { x0: split, y0: lo.y0, x1: lo.x1, y1: lo.y1, cells: hi },
            )
        } else {
            (
                Region { x0: lo.x0, y0: lo.y0, x1: lo.x1, y1: split, cells: lo_cells },
                Region { x0: lo.x0, y0: split, x1: lo.x1, y1: lo.y1, cells: hi },
            )
        };
        for r in [r0, r1] {
            for &c in &r.cells {
                pos[c] = r.center();
            }
            if !r.cells.is_empty() {
                queue.push_back(r);
            }
        }
    }
    if obs::enabled() {
        obs::counter_add("place.bisect_regions", regions_split);
        obs::counter_add("place.leaf_spreads", leaves_spread);
    }
    pos
}

/// Spreads the cells of a leaf region on a uniform grid inside it — the
/// shared [`crate::spread`] helper, also used by the k-way backend's
/// finest-level regions.
fn spread_leaf(
    region: &Region,
    inst: &PlaceInstance,
    nets_of_cell: &[Vec<usize>],
    pos: &mut [Point],
) {
    let pins_of =
        |c: usize| nets_of_cell[c].iter().flat_map(|&ni| inst.nets[ni].pins.iter().copied());
    spread_in_rect(region.rect(), &region.cells, pins_of, pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{PinRef, PlaceNet};
    use crate::metrics::total_hpwl_of_instance;

    fn chain_instance(n: usize) -> PlaceInstance {
        // a 1-D chain: c0-c1-...-c(n-1); optimum keeps neighbours adjacent
        let mut inst = PlaceInstance { cell_width: vec![1.92; n], nets: Vec::new() };
        for i in 0..n - 1 {
            inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + 1)] });
        }
        inst
    }

    #[test]
    fn all_cells_inside_die() {
        let inst = chain_instance(100);
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 64.0 * 10.0);
        let pos = place_bisect(&inst, &fp, &PlacerOptions::default());
        assert_eq!(pos.len(), 100);
        for p in &pos {
            assert!(p.x >= 0.0 && p.x <= fp.die_width, "x out of die: {p:?}");
            assert!(p.y >= 0.0 && p.y <= fp.die_height, "y out of die: {p:?}");
        }
    }

    #[test]
    fn chain_places_better_than_random_spread() {
        let inst = chain_instance(128);
        let fp = Floorplan::with_rows_and_area(8, 6.4 * 8.0 * 51.2);
        let pos = place_bisect(&inst, &fp, &PlacerOptions::default());
        let placed = total_hpwl_of_instance(&inst, &pos);
        // compare to a pathological placement: cells at alternating corners
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
            "min-cut placement ({placed:.1}) should beat the pathological one ({worst:.1}) easily"
        );
    }

    #[test]
    fn fixed_terminals_attract_connected_cells() {
        // two cells, one tied to the left edge, one to the right
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 100.0);
        let inst = PlaceInstance {
            cell_width: vec![1.92, 1.92],
            nets: vec![
                PlaceNet { pins: vec![PinRef::Fixed(Point::new(0.0, 12.8)), PinRef::Cell(0)] },
                PlaceNet {
                    pins: vec![PinRef::Fixed(Point::new(fp.die_width, 12.8)), PinRef::Cell(1)],
                },
                // weak tie between them so they are in one connected problem
                PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Cell(1)] },
            ],
        };
        let pos = place_bisect(&inst, &fp, &PlacerOptions { leaf_cells: 1, ..Default::default() });
        assert!(
            pos[0].x < pos[1].x,
            "cell 0 ({:?}) should sit left of cell 1 ({:?})",
            pos[0],
            pos[1]
        );
    }

    #[test]
    fn deterministic() {
        let inst = chain_instance(64);
        let fp = Floorplan::with_rows_and_area(8, 8.0 * 6.4 * 40.0);
        let a = place_bisect(&inst, &fp, &PlacerOptions::default());
        let b = place_bisect(&inst, &fp, &PlacerOptions::default());
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p, q);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = PlaceInstance::default();
        let fp = Floorplan::with_rows_and_area(2, 1000.0);
        assert!(place_bisect(&inst, &fp, &PlacerOptions::default()).is_empty());
    }

    #[test]
    fn leaf_spread_has_no_duplicate_positions() {
        let inst = PlaceInstance { cell_width: vec![1.92; 7], nets: Vec::new() };
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 30.0);
        let pos = place_bisect(&inst, &fp, &PlacerOptions { leaf_cells: 8, ..Default::default() });
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
}
