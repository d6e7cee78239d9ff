//! Technology-independent logic optimization — the "SIS substitute".
//!
//! The paper's flows start from a technology-independent netlist produced
//! by SIS. This crate rebuilds the pieces of that phase the experiments
//! depend on:
//!
//! * [`mod@kernels`] — kernel enumeration of sum-of-products covers (the
//!   classic recursive algorithm from multilevel logic synthesis).
//! * [`extract`] — greedy common-cube and kernel extraction across the
//!   network. Extraction minimizes literals by *sharing* logic, which is
//!   exactly the mechanism the paper blames for congestion: "a gate of
//!   small size shared between several functions may increase the wiring
//!   area to an extent that far exceeds the area saved".
//! * [`mod@decompose`] — decomposition of an optimized network into the
//!   NAND2/INV subject graph consumed by technology mapping.
//!
//! # Example
//!
//! ```
//! use casyn_netlist::bench::{random_pla, PlaGenConfig};
//! use casyn_logic::{decompose, optimize, OptimizeOptions};
//!
//! let pla = random_pla(&PlaGenConfig { terms: 16, ..Default::default() });
//! let mut net = pla.to_network();
//! let before = net.literal_count();
//! optimize(&mut net, &OptimizeOptions::default());
//! assert!(net.literal_count() <= before);
//! let dec = decompose(&net);
//! assert!(dec.graph.num_gates() > 0);
//! ```

pub mod decompose;
pub mod extract;
pub mod kernels;

pub use decompose::{decompose, Decomposed};
pub use extract::{extract_cubes, extract_kernels, optimize, OptimizeOptions};
pub use kernels::{kernels, KernelPair};
