//! Congestion-aware technology mapping — the primary contribution of
//! *Congestion-Aware Logic Synthesis* (Pandini, Pileggi, Strojwas,
//! DATE 2002).
//!
//! The mapper consumes a placed NAND2/INV subject graph and a pattern
//! library, and produces a placed gate-level netlist:
//!
//! 1. [`mod@partition`] — the subject DAG becomes a forest of trees. Beside
//!    the classic DAGON and MIS cone schemes, the paper's
//!    *placement-driven DAG partitioning* keeps each multi-fanout vertex
//!    attached to its **nearest** fanout on the layout image (Fig. 2 of
//!    the paper).
//! 2. [`matcher`] — library pattern trees are structurally matched
//!    against every tree node.
//! 3. [`cover`] — optimal dynamic-programming covering under a pluggable
//!    cost: minimum area (DAGON) or the paper's
//!    `COST(m, v) = AREA(m, v) + K · WIRE(m, v)` with the local wire
//!    terms of Eqs. 2–4.
//! 4. [`mapper`] — demand-driven emission with logic duplication and
//!    centre-of-mass placement of every emitted cell.
//!
//! # Example
//!
//! ```
//! use casyn_core::{map, MapOptions, CostKind, PartitionScheme};
//! use casyn_library::corelib018;
//! use casyn_netlist::{subject::SubjectGraph, Point};
//!
//! let mut g = SubjectGraph::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let n = g.add_nand2(a, b);
//! let y = g.add_inv(n);
//! g.add_output("y", y);
//! let positions = vec![Point::default(); g.num_vertices()];
//! let lib = corelib018();
//! let result = map(&g, &positions, &lib, &MapOptions {
//!     scheme: PartitionScheme::PlacementDriven,
//!     cost: CostKind::AreaWire { k: 0.001 },
//! });
//! assert_eq!(result.netlist.num_cells(), 1); // one AN2
//! ```

pub mod cover;
pub mod mapper;
pub mod matcher;
pub mod partition;

pub use cover::{cover_tree, CostKind, NodeSolution, TreeCover};
pub use mapper::{map, star_wirelength, MapOptions, MapResult, MapStats};
pub use matcher::{matches_at, Match, MatchBuf, MatchRef, SharedPolicy};
pub use partition::{partition, Forest, PartitionScheme, Tree, TreeNode};
