//! # casyn — Congestion-Aware Logic Synthesis
//!
//! A from-scratch Rust implementation of *Congestion-Aware Logic
//! Synthesis* (Pandini, Pileggi, Strojwas — DATE 2002): a technology
//! mapper whose dynamic-programming tree covering blends cell area with an
//! incremental wirelength term, `COST(m, v) = AREA(m, v) + K · WIRE(m, v)`,
//! over a placed technology-independent netlist — together with every
//! substrate the experiments need (logic optimizer, placer, global router,
//! static timing analysis, cell library).
//!
//! This facade crate re-exports the full stack:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`netlist`] | `casyn-netlist` | SOPs, Boolean networks, subject graphs, mapped netlists, PLA I/O, benchmark generators |
//! | [`logic`] | `casyn-logic` | kernel/cube extraction, NAND2/INV decomposition |
//! | [`library`] | `casyn-library` | cell + pattern model, the synthetic 0.18 µm library |
//! | [`place`] | `casyn-place` | layout image, k-way multilevel placement, legalization |
//! | [`route`] | `casyn-route` | capacitated global routing, congestion maps |
//! | [`timing`] | `casyn-timing` | static timing analysis |
//! | [`core`] | `casyn-core` | DAG partitioning, matching, congestion-aware covering |
//! | [`flow`] | `casyn-flow` | end-to-end flows, K sweeps, batch runner, the Fig. 3 methodology |
//! | [`exec`] | `casyn-exec` | deterministic claim-counter pool, cancellation, deadlines |
//! | [`obs`] | `casyn-obs` | metrics registry, stage tracing, telemetry JSON |
//! | [`serve`] | `casyn-serve` | HTTP job service with a content-addressed artifact cache |
//!
//! # Quickstart
//!
//! ```
//! use casyn::netlist::bench::{random_pla, PlaGenConfig};
//! use casyn::flow::{FlowOptions, congestion_flow};
//!
//! let pla = random_pla(&PlaGenConfig { terms: 24, ..Default::default() });
//! let opts = FlowOptions::default();
//! let result = congestion_flow(&pla.to_network(), 0.001, &opts).unwrap();
//! println!("mapped {} cells, {} routing violations",
//!          result.netlist.num_cells(), result.route.violations);
//! ```

pub use casyn_core as core;
pub use casyn_exec as exec;
pub use casyn_flow as flow;
pub use casyn_library as library;
pub use casyn_logic as logic;
pub use casyn_netlist as netlist;
pub use casyn_obs as obs;
pub use casyn_place as place;
pub use casyn_route as route;
pub use casyn_serve as serve;
pub use casyn_timing as timing;

/// One-import convenience for application code.
///
/// ```
/// use casyn::prelude::*;
///
/// let pla = random_pla(&PlaGenConfig { terms: 16, ..Default::default() });
/// let result = congestion_flow(&pla.to_network(), 0.5, &FlowOptions::default()).unwrap();
/// assert!(result.num_cells > 0);
/// ```
pub mod prelude {
    pub use casyn_core::{map, CostKind, MapOptions, MapResult, PartitionScheme};
    pub use casyn_flow::{
        congestion_flow, dagon_flow, k_sweep_prepared, map_at, prepare, route_at, run_methodology,
        sis_flow, FlowError, FlowErrorKind, FlowOptions, FlowResult, Mapped, Prepared, Stage,
    };
    pub use casyn_library::{corelib018, Library};
    pub use casyn_logic::{decompose, optimize, OptimizeOptions};
    pub use casyn_netlist::bench::{random_pla, PlaGenConfig};
    pub use casyn_netlist::{MappedNetlist, Network, Pla, Point, SubjectGraph};
    pub use casyn_place::{place_subject, Floorplan, PlacerOptions};
    pub use casyn_route::{route_mapped, RouteConfig};
    pub use casyn_timing::{analyze, analyze_routed, TimingConfig};
}
