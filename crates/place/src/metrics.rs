//! Wirelength metrics.

use crate::instance::{PlaceInstance, PlaceNet};
use crate::netbox::scan;
use casyn_netlist::Point;

/// Half-perimeter wirelength of one set of pin positions.
pub fn hpwl(points: &[Point]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in points {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    (max_x - min_x) + (max_y - min_y)
}

/// HPWL of a placement net given cell positions.
pub fn net_hpwl(net: &PlaceNet, pos: &[Point]) -> f64 {
    scan(net.pins.iter().copied(), None, |c| pos[c]).hpwl()
}

/// Sum of HPWL over nets given per-net pin positions.
pub fn total_hpwl(nets: &[Vec<Point>]) -> f64 {
    nets.iter().map(|pts| hpwl(pts)).sum()
}

/// Sum of HPWL over the nets of a placement instance.
pub fn total_hpwl_of_instance(inst: &PlaceInstance, pos: &[Point]) -> f64 {
    inst.nets.iter().map(|n| net_hpwl(n, pos)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PinRef;

    #[test]
    fn hpwl_of_bounding_box() {
        let pts = [Point::new(0.0, 0.0), Point::new(3.0, 1.0), Point::new(1.0, 4.0)];
        assert!((hpwl(&pts) - 7.0).abs() < 1e-12);
        assert_eq!(hpwl(&pts[..1]), 0.0);
        assert_eq!(hpwl(&[]), 0.0);
    }

    #[test]
    fn net_hpwl_mixes_cells_and_fixed() {
        let net = PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Fixed(Point::new(10.0, 0.0))] };
        let pos = [Point::new(0.0, 5.0)];
        assert!((net_hpwl(&net, &pos) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn totals_sum() {
        let nets = vec![
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![Point::new(0.0, 0.0), Point::new(0.0, 2.0)],
        ];
        assert!((total_hpwl(&nets) - 3.0).abs() < 1e-12);
    }
}
