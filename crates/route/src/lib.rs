//! Global routing on a capacitated gcell grid.
//!
//! This crate is the stand-in for the place&route oracle (Silicon
//! Ensemble) the paper uses to decide whether a mapped netlist is
//! *routable* within a fixed die and metal-layer budget. The die is
//! tessellated into gcells; each gcell boundary has a track capacity
//! derived from the wire pitch and the number of metal layers; nets are
//! decomposed into two-pin connections (Prim MST) and routed by an A* maze
//! router under PathFinder-style negotiated congestion (history + present
//! cost). Residual overflow after the final iteration is reported as the
//! *routing violations* count — the standard academic proxy for detailed-
//! routing failures.
//!
//! * [`grid`] — the capacitated routing grid.
//! * [`router`] — MST decomposition, A* search, the negotiation loop.
//! * `speculate` — the negotiation's searches on every worker, committed
//!   in connection order with bit-identical results.
//! * [`congestion`] — congestion maps and acceptance tests.
//! * [`audit`] — per-boundary overflow attribution by net.

pub mod audit;
pub mod congestion;
pub mod grid;
mod heap;
pub mod router;
mod speculate;

pub use audit::{BoundaryAudit, NetOffender, NetShare, OverflowAudit};
pub use congestion::{heatmap_json, CongestionMap, HeatmapError};
pub use grid::{GcellCoord, RouteConfig, RouteGrid};
pub use router::{
    route_mapped, route_mapped_pool, route_pin_sets, RouteConvergence, RouteError, RouteIterStats,
    RouteResult,
};
