//! Uniform-grid spreading of a cell set inside a rectangle: the k-way
//! placer's gcell regions and its polish's unstacked piles.
//!
//! Cells are laid out on a `cols × rows` grid inside the rectangle,
//! ordered by the centroid of each cell's connections (y first for the
//! row band, then x inside the band) so neighbours land on nearby slots.

use crate::instance::{CellPins, PinRef};
use casyn_netlist::Point;

/// An axis-aligned rectangle inside the die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rect {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Rect {
    pub(crate) fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }
}

/// Spreads `cells` on a uniform grid inside `rect`, ordered by the
/// centroid of each cell's connections — the pins of its nets, its own
/// included, read from the current `pos` estimates — so strongly
/// connected cells land on nearby slots. Deterministic: ties resolve by
/// cell index.
pub(crate) fn spread_in_rect(rect: Rect, cells: &[usize], pins: &CellPins, pos: &mut [Point]) {
    let n = cells.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        pos[cells[0]] = rect.center();
        return;
    }
    // centroid of every pin connected to each cell (self included)
    let centroid = |c: usize| -> Point {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut k = 0.0;
        for pin in pins.of_cell(c) {
            let p = match pin {
                PinRef::Cell(o) => pos[o],
                PinRef::Fixed(p) => p,
            };
            x += p.x;
            y += p.y;
            k += 1.0;
        }
        if k == 0.0 {
            rect.center()
        } else {
            Point::new(x / k, y / k)
        }
    };
    let w = rect.x1 - rect.x0;
    let h = rect.y1 - rect.y0;
    let cols = ((n as f64 * w / h.max(1e-9)).sqrt().ceil() as usize).clamp(1, n);
    let rows = n.div_ceil(cols);
    let mut order: Vec<(Point, usize)> = cells.iter().map(|&c| (centroid(c), c)).collect();
    // row-major by centroid: y first, then x inside the row band
    order.sort_by(|a, b| a.0.y.total_cmp(&b.0.y).then(a.1.cmp(&b.1)));
    let mut slots: Vec<(usize, usize)> = Vec::with_capacity(n);
    for row in 0..rows {
        for col in 0..cols {
            if slots.len() < n {
                slots.push((row, col));
            }
        }
    }
    // within each row band, order by centroid x
    let mut i = 0;
    while i < order.len() {
        let row = slots[i].0;
        let mut j = i;
        while j < order.len() && slots[j].0 == row {
            j += 1;
        }
        order[i..j].sort_by(|a, b| a.0.x.total_cmp(&b.0.x).then(a.1.cmp(&b.1)));
        i = j;
    }
    for ((_, c), (row, col)) in order.iter().zip(&slots) {
        pos[*c] = Point::new(
            rect.x0 + (*col as f64 + 0.5) * w / cols as f64,
            rect.y0 + (*row as f64 + 0.5) * h / rows as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PlaceInstance;

    #[test]
    fn spread_fills_rect_without_duplicates() {
        let inst = PlaceInstance { cell_width: vec![1.92; 7], nets: Vec::new() };
        let rect = Rect { x0: 10.0, y0: 5.0, x1: 30.0, y1: 25.0 };
        let cells: Vec<usize> = (0..7).collect();
        let pins = CellPins::new(&inst);
        let mut pos = vec![Point::default(); 7];
        spread_in_rect(rect, &cells, &pins, &mut pos);
        for (i, p) in pos.iter().enumerate() {
            assert!(p.x > rect.x0 && p.x < rect.x1, "cell {i} x outside rect: {p:?}");
            assert!(p.y > rect.y0 && p.y < rect.y1, "cell {i} y outside rect: {p:?}");
            for (j, q) in pos.iter().enumerate().skip(i + 1) {
                assert!(p.manhattan(*q) > 1e-9, "cells {i} and {j} coincide at {p:?}");
            }
        }
    }

    #[test]
    fn single_cell_sits_at_center() {
        let inst = PlaceInstance { cell_width: vec![1.92], nets: Vec::new() };
        let rect = Rect { x0: 0.0, y0: 0.0, x1: 8.0, y1: 4.0 };
        let pins = CellPins::new(&inst);
        let mut pos = vec![Point::default(); 1];
        spread_in_rect(rect, &[0], &pins, &mut pos);
        assert_eq!(pos[0], Point::new(4.0, 2.0));
    }
}
