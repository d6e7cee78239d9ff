//! Core intermediate representations for congestion-aware logic synthesis.
//!
//! This crate provides the data structures shared by the whole `casyn`
//! stack:
//!
//! * [`sop`] — cubes and sum-of-products covers, the two-level
//!   representation used by PLAs and by the algebraic optimizer.
//! * [`network`] — the multi-level Boolean network (technology-independent
//!   logic, one SOP per node) produced by the front end.
//! * [`subject`] — the *subject graph*: a DAG of base gates (two-input
//!   NANDs and inverters) that technology mapping covers with library
//!   cells, exactly as in DAGON/MIS.
//! * [`mapped`] — the technology-dependent gate-level netlist produced by
//!   the mapper, with cell positions and derived nets.
//! * [`pla`] — espresso-style `.pla` parsing/printing.
//! * [`mod@bench`] — seeded synthetic benchmark generators standing in for the
//!   IWLS93 circuits used by the paper (SPLA, PDC, TOO_LARGE).
//!
//! # Example
//!
//! ```
//! use casyn_netlist::subject::SubjectGraph;
//!
//! let mut g = SubjectGraph::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let n = g.add_nand2(a, b);
//! let y = g.add_inv(n); // y = a AND b
//! g.add_output("y", y);
//! assert_eq!(g.num_gates(), 2);
//! ```

pub mod bench;
pub mod blif;
pub mod mapped;
pub mod network;
pub mod pla;
pub mod seq;
pub mod sop;
pub mod subject;
pub mod verilog;

pub use blif::Blif;
pub use mapped::{MappedCell, MappedNetlist, Net, SignalRef};
pub use network::{Network, NodeFunction, NodeId};
pub use pla::Pla;
pub use seq::{Latch, LatchInit, SeqNetwork};
pub use sop::{Cube, Sop};
pub use subject::{BaseKind, GateId, SubjectGraph};
pub use verilog::to_verilog;

/// A point on the chip layout image, in micrometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in micrometres.
    pub x: f64,
    /// Vertical coordinate in micrometres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Manhattan (rectilinear) distance to `other`, the metric used by the
    /// paper's `distance()` function: routing is rectilinear, so the L1
    /// norm reflects wirelength.
    pub fn manhattan(&self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean distance to `other`.
    pub fn euclidean(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.manhattan(b), 7.0);
        assert!((a.euclidean(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_default_is_origin() {
        let p = Point::default();
        assert_eq!(p, Point::new(0.0, 0.0));
    }
}
