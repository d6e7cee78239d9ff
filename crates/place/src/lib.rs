//! Placement: the layout image, the direct k-way wire-aware multilevel
//! global placer, a row legalizer and wirelength metrics.
//!
//! The paper's methodology places the technology-independent netlist
//! *once* on a layout image whose size comes from the floorplan
//! constraints; the mapper then reads those coordinates. After mapping,
//! the gate-level netlist is legalized into standard-cell rows (seeded by
//! the mapper's centre-of-mass positions, the incremental-update scheme of
//! Pedram–Bhat) and handed to the global router.
//!
//! * [`image`] — die/rows floorplan and peripheral port assignment.
//! * [`instance`] — the placement hypergraph, with builders from subject
//!   graphs and mapped netlists.
//! * [`coarsen`] — heavy-edge multilevel clustering of the hypergraph.
//! * `kway` — the direct k-way placer: region-grid assignment refined
//!   under the HPWL objective, parallel over independent region pairs.
//! * `netbox` — the k-way placer's net bounding boxes: the one pin scan,
//!   and boxes cached per net and per (cell, net) incidence so a candidate
//!   move is scored without walking pins, bit-identically to a rescan,
//!   plus the bound that lets the swap polish skip pairs that cannot gain.
//! * [`legalize`] — row legalization with Abacus-style clumping.
//! * [`refine`] — median-improvement refinement with a density clamp.
//! * [`metrics`] — half-perimeter wirelength and utilization.

pub mod coarsen;
pub mod image;
pub mod instance;
mod kway;
pub mod legalize;
pub mod metrics;
mod netbox;
pub mod refine;
mod spread;

pub use image::Floorplan;
pub use instance::{PinRef, PlaceInstance, PlaceNet};
pub use legalize::{legalize_rows, LegalizedRows};
pub use metrics::{hpwl, total_hpwl};
pub use refine::{median_improve, RefineOptions};

use casyn_exec::Pool;

/// Tuning knobs for [`place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Region capacity slack as a fraction of the ideal region weight.
    pub balance_tol: f64,
    /// Target cells per gcell region; the region count is the cell count
    /// divided by this.
    pub region_cells: usize,
    /// Refinement passes over the pair rounds at every level.
    pub kway_passes: usize,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions { balance_tol: 0.3, region_cells: 8, kway_passes: 4 }
    }
}

/// Places `inst` on the floorplan with the k-way placer; returns
/// one position per movable cell. Deterministic: no randomness is
/// involved, ties resolve by cell index.
///
/// # Example
///
/// ```
/// use casyn_place::{place, Floorplan, PlacerOptions};
/// use casyn_place::instance::{PinRef, PlaceInstance, PlaceNet};
///
/// let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 60.0);
/// let inst = PlaceInstance {
///     cell_width: vec![1.92, 1.92],
///     nets: vec![PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Cell(1)] }],
/// };
/// let pos = place(&inst, &fp, &PlacerOptions::default());
/// assert_eq!(pos.len(), 2);
/// assert!(pos.iter().all(|p| p.x <= fp.die_width && p.y <= fp.die_height));
/// ```
pub fn place(
    inst: &PlaceInstance,
    fp: &Floorplan,
    opts: &PlacerOptions,
) -> Vec<casyn_netlist::Point> {
    place_with_pool(inst, fp, opts, &Pool::serial())
}

/// [`place`] with the independent region-pair refinement fanned out on
/// `pool`. The result is **bit-identical** to the serial path for any
/// worker count: pair jobs read only the immutable start-of-round
/// snapshot and `par_map` returns their moves in pair order.
pub fn place_with_pool(
    inst: &PlaceInstance,
    fp: &Floorplan,
    opts: &PlacerOptions,
    pool: &Pool,
) -> Vec<casyn_netlist::Point> {
    kway::place_kway(inst, fp, opts, pool)
}

/// Why [`place_subject`] could not produce a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceError {
    /// The subject-graph vertex that could not be positioned.
    pub vertex: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "placement failed at vertex {}: {}", self.vertex, self.reason)
    }
}

impl std::error::Error for PlaceError {}

/// Places a subject graph on the floorplan's layout image and returns one
/// position per subject-graph vertex (primary inputs get their port
/// positions). This is the "initial placement" box of the paper's Fig. 3.
/// A vertex that is neither a movable cell nor a fixed port — a corrupt
/// placement instance — is reported as a [`PlaceError`] instead of a
/// panic.
pub fn place_subject(
    graph: &casyn_netlist::subject::SubjectGraph,
    fp: &Floorplan,
    opts: &PlacerOptions,
) -> Result<Vec<casyn_netlist::Point>, PlaceError> {
    place_subject_pool(graph, fp, opts, &Pool::serial())
}

/// [`place_subject`] on a pool: see [`place_with_pool`] for the
/// determinism contract.
pub fn place_subject_pool(
    graph: &casyn_netlist::subject::SubjectGraph,
    fp: &Floorplan,
    opts: &PlacerOptions,
    pool: &Pool,
) -> Result<Vec<casyn_netlist::Point>, PlaceError> {
    let built = instance::from_subject(graph, fp);
    let cell_pos = place_with_pool(&built.instance, fp, opts, pool);
    let mut pos = vec![casyn_netlist::Point::default(); graph.num_vertices()];
    for (v, slot) in built.cell_of_vertex.iter().enumerate() {
        match slot {
            Some(c) => pos[v] = cell_pos[*c],
            None => match built.fixed_of_vertex[v] {
                Some(p) => pos[v] = p,
                None => {
                    return Err(PlaceError {
                        vertex: v,
                        reason: "vertex has neither a movable cell nor a fixed port position"
                            .to_string(),
                    })
                }
            },
        }
    }
    Ok(pos)
}
