//! Median-improvement placement refinement.
//!
//! After global placement (either backend), each cell is iteratively moved toward the
//! median of its connected pins — the optimal single-cell position under
//! the HPWL objective. A per-bin density clamp stops cells from
//! collapsing onto their nets' centroids; the subsequent row legalization
//! resolves residual overlap.

use crate::image::Floorplan;
use crate::instance::{CellPins, PinRef, PlaceInstance};
use casyn_netlist::Point;

/// Options for [`median_improve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Number of whole-netlist improvement sweeps.
    pub iterations: usize,
    /// Density-bin edge length in micrometres.
    pub bin_size: f64,
    /// Maximum allowed bin occupancy as a multiple of the average.
    pub max_density: f64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { iterations: 2, bin_size: 12.8, max_density: 2.0 }
    }
}

/// Moves each cell toward the median of its connected pins, subject to a
/// density clamp. Returns the number of moves applied.
pub fn median_improve(
    inst: &PlaceInstance,
    fp: &Floorplan,
    pos: &mut [Point],
    opts: &RefineOptions,
) -> usize {
    median_improve_with(inst, &CellPins::new(inst), fp, pos, opts)
}

/// [`median_improve`] over the instance's pin list, built by the caller.
pub(crate) fn median_improve_with(
    inst: &PlaceInstance,
    pins: &CellPins,
    fp: &Floorplan,
    pos: &mut [Point],
    opts: &RefineOptions,
) -> usize {
    let n = inst.num_cells();
    if n == 0 {
        return 0;
    }
    let nx = ((fp.die_width / opts.bin_size).ceil() as usize).max(1);
    let ny = ((fp.die_height / opts.bin_size).ceil() as usize).max(1);
    let bin_of = |p: Point| -> usize {
        let bx = ((p.x / opts.bin_size) as usize).min(nx - 1);
        let by = ((p.y / opts.bin_size) as usize).min(ny - 1);
        by * nx + bx
    };
    let cap = (inst.total_width() / (nx * ny) as f64) * opts.max_density;
    let mut bin_fill = vec![0.0f64; nx * ny];
    for (c, p) in pos.iter().enumerate() {
        bin_fill[bin_of(*p)] += inst.cell_width[c];
    }
    let mut moves = 0;
    let (mut xs, mut ys): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for _ in 0..opts.iterations {
        for c in 0..n {
            if pins.incidences(c).is_empty() {
                continue;
            }
            // gather connected pin coordinates (excluding this cell)
            xs.clear();
            ys.clear();
            for pin in pins.of_cell(c) {
                let p = match pin {
                    PinRef::Cell(o) if o == c => continue,
                    PinRef::Cell(o) => pos[o],
                    PinRef::Fixed(p) => p,
                };
                xs.push(p.x);
                ys.push(p.y);
            }
            if xs.is_empty() {
                continue;
            }
            // the element a sort would put at len / 2: values equal under
            // total_cmp have equal bits, so selection picks the same one
            let mid = xs.len() / 2;
            let x = *xs.select_nth_unstable_by(mid, f64::total_cmp).1;
            let y = *ys.select_nth_unstable_by(mid, f64::total_cmp).1;
            let target = fp.clamp(Point::new(x, y));
            let from = bin_of(pos[c]);
            let to = bin_of(target);
            if from == to {
                pos[c] = target;
                continue;
            }
            if bin_fill[to] + inst.cell_width[c] > cap {
                continue; // destination too dense
            }
            bin_fill[from] -= inst.cell_width[c];
            bin_fill[to] += inst.cell_width[c];
            pos[c] = target;
            moves += 1;
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PlaceNet;
    use crate::metrics::total_hpwl_of_instance;
    use crate::{place, PlacerOptions};

    fn mesh(side: usize) -> PlaceInstance {
        let n = side * side;
        let mut inst = PlaceInstance { cell_width: vec![1.92; n], nets: Vec::new() };
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + 1)] });
                }
                if r + 1 < side {
                    inst.nets
                        .push(PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + side)] });
                }
            }
        }
        inst
    }

    #[test]
    fn refinement_never_worsens_mesh_hpwl_much_and_usually_helps() {
        let inst = mesh(24);
        let fp = Floorplan::with_rows_and_area(24, 24.0 * 6.4 * 160.0);
        let mut pos = place(&inst, &fp, &PlacerOptions::default());
        let before = total_hpwl_of_instance(&inst, &pos);
        median_improve(&inst, &fp, &mut pos, &RefineOptions::default());
        let after = total_hpwl_of_instance(&inst, &pos);
        assert!(
            after <= before * 1.02,
            "refinement must not blow up HPWL: {before:.0} -> {after:.0}"
        );
    }

    #[test]
    fn density_clamp_prevents_collapse() {
        // star: all leaves connect to one fixed point; without the clamp
        // every cell would pile onto it
        let n = 64;
        let mut inst = PlaceInstance { cell_width: vec![1.92; n], nets: Vec::new() };
        for i in 0..n {
            inst.nets.push(PlaceNet {
                pins: vec![PinRef::Cell(i), PinRef::Fixed(Point::new(32.0, 32.0))],
            });
        }
        let fp = Floorplan::with_rows_and_area(10, 10.0 * 6.4 * 64.0);
        let mut pos: Vec<Point> =
            (0..n).map(|i| Point::new((i % 8) as f64 * 8.0, (i / 8) as f64 * 8.0)).collect();
        let opts = RefineOptions { iterations: 3, bin_size: 8.0, max_density: 1.5 };
        median_improve(&inst, &fp, &mut pos, &opts);
        // count cells inside the centre bin: bounded by the density clamp
        let center =
            pos.iter().filter(|p| (p.x - 32.0).abs() < 4.0 && (p.y - 32.0).abs() < 4.0).count();
        assert!(center < n / 2, "density clamp must prevent total collapse: {center}");
    }

    #[test]
    fn empty_instance_is_noop() {
        let inst = PlaceInstance::default();
        let fp = Floorplan::with_rows_and_area(2, 1000.0);
        let mut pos: Vec<Point> = Vec::new();
        assert_eq!(median_improve(&inst, &fp, &mut pos, &RefineOptions::default()), 0);
    }

    #[test]
    fn single_cell_moves_to_median_of_fixed_pins() {
        // one movable cell tied to three fixed ports: the optimal spot is
        // the per-axis median of the connected pins
        let mut inst = PlaceInstance { cell_width: vec![1.92], nets: Vec::new() };
        for p in [Point::new(10.0, 40.0), Point::new(30.0, 10.0), Point::new(50.0, 20.0)] {
            inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Fixed(p)] });
        }
        let fp = Floorplan::with_rows_and_area(10, 10.0 * 6.4 * 64.0);
        let mut pos = vec![Point::new(0.0, 0.0)];
        // one bin spanning the die: with a single cell the per-bin density
        // cap (2x the average fill) is below one cell width, so any
        // cross-bin move would be vetoed regardless of wirelength
        let opts = RefineOptions { bin_size: 64.0, ..RefineOptions::default() };
        median_improve(&inst, &fp, &mut pos, &opts);
        assert!((pos[0].x - 30.0).abs() < 1e-9 && (pos[0].y - 20.0).abs() < 1e-9, "{:?}", pos[0]);
    }

    #[test]
    fn all_fixed_port_nets_leave_nothing_to_move() {
        // nets made of fixed ports only: no cell appears on any net, so
        // every cell is isolated and refinement is a no-op
        let mut inst = PlaceInstance { cell_width: vec![1.92; 3], nets: Vec::new() };
        inst.nets.push(PlaceNet {
            pins: vec![PinRef::Fixed(Point::new(0.0, 0.0)), PinRef::Fixed(Point::new(9.0, 9.0))],
        });
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 50.0);
        let mut pos = vec![Point::new(3.0, 3.0), Point::new(6.0, 6.0), Point::new(9.0, 9.0)];
        let before = pos.clone();
        assert_eq!(median_improve(&inst, &fp, &mut pos, &RefineOptions::default()), 0);
        assert_eq!(pos, before);
    }

    #[test]
    fn isolated_cells_stay_put() {
        let inst = PlaceInstance { cell_width: vec![1.92; 2], nets: Vec::new() };
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 50.0);
        let mut pos = vec![Point::new(5.0, 5.0), Point::new(20.0, 20.0)];
        let before = pos.clone();
        median_improve(&inst, &fp, &mut pos, &RefineOptions::default());
        assert_eq!(pos, before);
    }
}
