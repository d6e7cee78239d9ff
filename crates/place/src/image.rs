//! The layout image: die outline, standard-cell rows and peripheral port
//! assignment.

use casyn_netlist::Point;

/// Standard-cell row height in micrometres (matches
/// `casyn_library::ROW_HEIGHT`; duplicated here to keep this crate free of
/// a library dependency).
pub const ROW_HEIGHT: f64 = 6.4;

/// A fixed die with horizontal standard-cell rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floorplan {
    /// Die width in micrometres.
    pub die_width: f64,
    /// Die height in micrometres.
    pub die_height: f64,
    /// Number of standard-cell rows (`die_height / ROW_HEIGHT`).
    pub num_rows: usize,
}

impl Floorplan {
    /// Builds a floorplan from a row count and a total die area — the way
    /// the paper specifies its experiments ("die size was fixed to
    /// 207062 µm² … corresponding to 71 standard cell rows").
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `die_area` is not positive.
    pub fn with_rows_and_area(rows: usize, die_area: f64) -> Self {
        assert!(rows > 0 && die_area > 0.0);
        let die_height = rows as f64 * ROW_HEIGHT;
        Floorplan { die_width: die_area / die_height, die_height, num_rows: rows }
    }

    /// Builds a floorplan from a die area and aspect ratio
    /// (`width / height`), rounding the height to whole rows.
    ///
    /// # Panics
    ///
    /// Panics if the area or aspect ratio is not positive.
    pub fn with_area(die_area: f64, aspect: f64) -> Self {
        assert!(die_area > 0.0 && aspect > 0.0);
        let height = (die_area / aspect).sqrt();
        let rows = (height / ROW_HEIGHT).round().max(1.0) as usize;
        Self::with_rows_and_area(rows, die_area)
    }

    /// Total die area in square micrometres.
    pub fn die_area(&self) -> f64 {
        self.die_width * self.die_height
    }

    /// Vertical centre of row `r` (row 0 at the bottom).
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rows`.
    pub fn row_y(&self, r: usize) -> f64 {
        assert!(r < self.num_rows);
        (r as f64 + 0.5) * ROW_HEIGHT
    }

    /// The row whose band contains `y`, clamped to valid rows.
    pub fn row_of(&self, y: f64) -> usize {
        ((y / ROW_HEIGHT).floor().max(0.0) as usize).min(self.num_rows - 1)
    }

    /// Utilization of a netlist with the given total cell area, as the
    /// percentage the paper reports (`cell area / die area × 100`).
    pub fn utilization_pct(&self, cell_area: f64) -> f64 {
        100.0 * cell_area / self.die_area()
    }

    /// Assigns port positions around the periphery: inputs evenly along
    /// the left edge, outputs along the right edge (the classic
    /// left-to-right dataflow pin assignment).
    pub fn assign_ports(&self, num_inputs: usize, num_outputs: usize) -> (Vec<Point>, Vec<Point>) {
        let spread = |n: usize, x: f64| -> Vec<Point> {
            (0..n)
                .map(|i| Point::new(x, (i as f64 + 0.5) * self.die_height / n.max(1) as f64))
                .collect()
        };
        (spread(num_inputs, 0.0), spread(num_outputs, self.die_width))
    }

    /// Clamps a point into the die.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.die_width), p.y.clamp(0.0, self.die_height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spla_floorplan_matches_paper() {
        // 207062 um^2, 71 rows (Table 2 experiment)
        let fp = Floorplan::with_rows_and_area(71, 207_062.0);
        assert_eq!(fp.num_rows, 71);
        assert!((fp.die_area() - 207_062.0).abs() < 1e-6);
        assert!((fp.die_height - 454.4).abs() < 1e-9);
        // utilization of the paper's K=0 netlist: 126521/207062 = 61.1%
        assert!((fp.utilization_pct(126_521.0) - 61.1).abs() < 0.05);
    }

    #[test]
    fn with_area_rounds_to_rows() {
        let fp = Floorplan::with_area(207_062.0, 1.0);
        assert!((fp.die_height / ROW_HEIGHT).fract().abs() < 1e-9);
        assert!((fp.die_area() - 207_062.0).abs() < 1e-6);
    }

    #[test]
    fn row_geometry() {
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 640.0);
        assert!((fp.row_y(0) - 3.2).abs() < 1e-9);
        assert_eq!(fp.row_of(3.2), 0);
        assert_eq!(fp.row_of(6.4), 1);
        assert_eq!(fp.row_of(1e9), 9);
        assert_eq!(fp.row_of(-5.0), 0);
    }

    #[test]
    fn ports_on_left_and_right_edges() {
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 640.0);
        let (pis, pos) = fp.assign_ports(4, 2);
        assert_eq!(pis.len(), 4);
        assert_eq!(pos.len(), 2);
        for p in &pis {
            assert_eq!(p.x, 0.0);
            assert!(p.y > 0.0 && p.y < fp.die_height);
        }
        for p in &pos {
            assert_eq!(p.x, fp.die_width);
        }
        // evenly spread
        assert!((pis[1].y - pis[0].y - fp.die_height / 4.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_keeps_points_inside() {
        let fp = Floorplan::with_rows_and_area(10, 64.0 * 640.0);
        let p = fp.clamp(Point::new(-3.0, 1e6));
        assert_eq!(p.x, 0.0);
        assert_eq!(p.y, fp.die_height);
    }
}
