//! Placement: the layout image, two global-placement backends — a direct
//! k-way wire-aware multilevel placer (the default) and a recursive
//! min-cut bisection placer with Fiduccia–Mattheyses refinement — plus a
//! row legalizer and wirelength metrics.
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
//! * [`fm`] — Fiduccia–Mattheyses bipartition refinement.
//! * [`bisect`] — the recursive min-cut placer with terminal propagation
//!   (the legacy backend, kept for A/B comparison).
//! * [`legalize`] — row legalization with Abacus-style clumping.
//! * [`refine`] — median-improvement refinement with a density clamp.
//! * [`metrics`] — half-perimeter wirelength and utilization.

pub mod bisect;
pub mod coarsen;
pub mod fm;
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

/// Which global-placement algorithm [`place`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacerBackend {
    /// Recursive min-cut bisection with FM refinement — the legacy
    /// backend, kept for A/B comparison.
    Bisect,
    /// Direct k-way multilevel placement refined under the HPWL
    /// objective (the default).
    #[default]
    KWay,
}

impl PlacerBackend {
    /// Parses a backend name as the CLI and batch manifests spell it.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bisect" | "bisection" => Some(PlacerBackend::Bisect),
            "kway" | "k-way" => Some(PlacerBackend::KWay),
            _ => None,
        }
    }

    /// The canonical spelling [`PlacerBackend::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            PlacerBackend::Bisect => "bisect",
            PlacerBackend::KWay => "kway",
        }
    }

    /// The backend selected by the `CASYN_PLACER` environment variable,
    /// falling back to the default (k-way) when unset or unrecognized.
    /// This is what [`PlacerOptions::default`] reads, so one environment
    /// variable pins the whole test suite to a backend.
    pub fn from_env() -> Self {
        std::env::var("CASYN_PLACER").ok().and_then(|s| Self::parse(&s)).unwrap_or_default()
    }
}

impl std::fmt::Display for PlacerBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for [`place`], shared by both backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Which global-placement algorithm runs.
    pub backend: PlacerBackend,
    /// Balance tolerance as a fraction of the ideal partition/region
    /// weight (FM balance for bisection, region capacity slack for
    /// k-way).
    pub balance_tol: f64,
    /// Bisection: regions with at most this many cells are spread
    /// directly.
    pub leaf_cells: usize,
    /// Bisection: FM passes per cut.
    pub fm_passes: usize,
    /// Bisection: global placement sweeps — each sweep re-runs the full
    /// recursive bisection seeded with the previous sweep's positions,
    /// which makes the initial partitions and the terminal-propagation
    /// anchors far more accurate than a cold start.
    pub sweeps: usize,
    /// Bisection: place the split line proportional to the partition
    /// weights (uniform density under loose balance) instead of at the
    /// region midpoint.
    pub proportional_split: bool,
    /// K-way: target cells per gcell region; the region count is the
    /// cell count divided by this.
    pub region_cells: usize,
    /// K-way: refinement passes over the pair rounds at every level.
    pub kway_passes: usize,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            backend: PlacerBackend::from_env(),
            balance_tol: 0.3,
            leaf_cells: 2,
            fm_passes: 6,
            sweeps: 6,
            proportional_split: false,
            region_cells: 8,
            kway_passes: 4,
        }
    }
}

/// Places `inst` on the floorplan with the configured backend; returns
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

/// [`place`] with the k-way backend's independent region-pair refinement
/// fanned out on `pool`. The result is **bit-identical** to the serial
/// path for any worker count: pair jobs read only the immutable
/// start-of-round snapshot and `par_map` returns their moves in pair
/// order (the bisection backend is serial and ignores the pool).
pub fn place_with_pool(
    inst: &PlaceInstance,
    fp: &Floorplan,
    opts: &PlacerOptions,
    pool: &Pool,
) -> Vec<casyn_netlist::Point> {
    match opts.backend {
        PlacerBackend::Bisect => bisect::place_bisect(inst, fp, opts),
        PlacerBackend::KWay => kway::place_kway(inst, fp, opts, pool),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_roundtrips() {
        for b in [PlacerBackend::Bisect, PlacerBackend::KWay] {
            assert_eq!(PlacerBackend::parse(b.name()), Some(b));
        }
        assert_eq!(PlacerBackend::parse("Bisection"), Some(PlacerBackend::Bisect));
        assert_eq!(PlacerBackend::parse(" K-WAY "), Some(PlacerBackend::KWay));
        assert_eq!(PlacerBackend::parse("quadratic"), None);
        assert_eq!(PlacerBackend::default(), PlacerBackend::KWay);
    }

    #[test]
    fn both_backends_place_the_same_instance() {
        let inst = PlaceInstance {
            cell_width: vec![1.92; 24],
            nets: (0..23)
                .map(|i| PlaceNet { pins: vec![PinRef::Cell(i), PinRef::Cell(i + 1)] })
                .collect(),
        };
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 60.0);
        for backend in [PlacerBackend::Bisect, PlacerBackend::KWay] {
            let opts = PlacerOptions { backend, ..Default::default() };
            let pos = place(&inst, &fp, &opts);
            assert_eq!(pos.len(), 24, "{backend}");
            for p in &pos {
                assert!(p.x >= 0.0 && p.x <= fp.die_width, "{backend}: {p:?}");
                assert!(p.y >= 0.0 && p.y <= fp.die_height, "{backend}: {p:?}");
            }
        }
    }
}
