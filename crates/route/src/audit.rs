//! Overflow attribution: decomposes the demand on each over-capacity
//! gcell boundary by the nets that cross it, so a congested run answers
//! "which nets did this" instead of only "where". This is the evidence
//! the paper's methodology loop needs before deciding whether to raise K
//! — a hot region caused by a handful of long nets reads very
//! differently from one caused by uniform local demand.
//!
//! Attribution is exact, not heuristic: routed usage on a boundary is
//! the number of committed path edges crossing it, so summing each
//! net's edge count recovers the boundary's usage term, and adding the
//! static pin-escape blockage recovers the full load the capacity check
//! saw. `build_audit` asserts nothing but guarantees by construction
//! that for every audited boundary
//! `blockage + Σ nets[i].demand == demand` up to floating-point
//! rounding — the invariant the test suite checks.

use crate::grid::RouteGrid;
use casyn_obs::json::JsonValue;

/// One net's contribution to a boundary's demand, in tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct NetShare {
    /// Net index (the caller's net order; for
    /// [`route_mapped`](crate::route_mapped) the order of
    /// [`MappedNetlist::nets`](casyn_netlist::mapped::MappedNetlist::nets)).
    pub net: usize,
    /// Tracks this net occupies on the boundary (one per committed path
    /// edge; a multi-fanout net whose tree crosses the boundary twice
    /// counts twice, matching the router's usage accounting).
    pub demand: f64,
}

/// The demand decomposition of one over-capacity gcell boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryAudit {
    /// True for a horizontal boundary (between `(x, y)` and `(x+1, y)`),
    /// false for a vertical one (between `(x, y)` and `(x, y+1)`).
    pub horizontal: bool,
    /// Gcell column of the boundary's lower-left gcell.
    pub x: usize,
    /// Gcell row of the boundary's lower-left gcell.
    pub y: usize,
    /// Track capacity of the boundary.
    pub capacity: f64,
    /// Total load: routed usage plus static blockage. Exceeds
    /// `capacity` by construction — only overflowed boundaries are
    /// audited.
    pub demand: f64,
    /// Static pin-escape blockage share of the demand.
    pub blockage: f64,
    /// Per-net demand, sorted by demand descending (net index ascending
    /// on ties). Sums to `demand - blockage` within floating-point
    /// rounding.
    pub nets: Vec<NetShare>,
}

impl BoundaryAudit {
    /// Overflow of this boundary in tracks.
    pub fn overflow(&self) -> f64 {
        self.demand - self.capacity
    }
}

/// A net ranked by its total demand on overflowed boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct NetOffender {
    /// Net index.
    pub net: usize,
    /// Human-readable identity. Defaults to `net{N}`;
    /// [`route_mapped`](crate::route_mapped) rewrites it to the driver —
    /// `pi:<name>` for a primary input, `<master>#<cell>` for a cell.
    pub label: String,
    /// Subject-graph tree the driver cell was mapped from, when known
    /// (cells synthesized outside tree covering — buffers, sequential
    /// elements — have none).
    pub tree: Option<u32>,
    /// Tracks this net occupies across all overflowed boundaries.
    pub demand: f64,
    /// `demand` as a fraction of the total load on all overflowed
    /// boundaries (blockage included in the denominator, so net shares
    /// and the blockage share jointly cover 1.0).
    pub share: f64,
    /// Number of distinct overflowed boundaries the net crosses.
    pub boundaries: usize,
    /// Gcell bounding box of the net's pins: `(x_min, y_min, x_max,
    /// y_max)`.
    pub bbox: (u16, u16, u16, u16),
}

/// The overflow-attribution report of one routing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverflowAudit {
    /// Total residual overflow in track-segments (same figure as
    /// [`RouteResult::overflow`](crate::RouteResult::overflow)).
    pub total_overflow: f64,
    /// Every over-capacity boundary with its demand decomposition,
    /// ordered horizontals-then-verticals, row-major.
    pub boundaries: Vec<BoundaryAudit>,
    /// Nets ranked by their demand on overflowed boundaries
    /// (descending; net index ascending on ties).
    pub offenders: Vec<NetOffender>,
}

impl OverflowAudit {
    /// True when the run had no overflowed boundaries.
    pub fn is_clean(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// Serializes the report as a `casyn.audit.v1` document:
    ///
    /// ```json
    /// {
    ///   "schema": "casyn.audit.v1",
    ///   "total_overflow": 12.5,
    ///   "boundaries": [
    ///     {"dir": "h", "x": 3, "y": 1, "capacity": 12.5,
    ///      "demand": 17.2, "blockage": 1.2,
    ///      "nets": [{"net": 4, "demand": 9}, ...]}
    ///   ],
    ///   "offenders": [
    ///     {"net": 4, "label": "ND2#12", "tree": 3, "demand": 18,
    ///      "share": 0.31, "boundaries": 2, "bbox": [0, 1, 7, 2]}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> JsonValue {
        let boundaries = self
            .boundaries
            .iter()
            .map(|b| {
                JsonValue::object(vec![
                    (
                        "dir".into(),
                        JsonValue::Str(if b.horizontal { "h".into() } else { "v".into() }),
                    ),
                    ("x".into(), JsonValue::Number(b.x as f64)),
                    ("y".into(), JsonValue::Number(b.y as f64)),
                    ("capacity".into(), JsonValue::Number(b.capacity)),
                    ("demand".into(), JsonValue::Number(b.demand)),
                    ("blockage".into(), JsonValue::Number(b.blockage)),
                    (
                        "nets".into(),
                        JsonValue::Array(
                            b.nets
                                .iter()
                                .map(|s| {
                                    JsonValue::object(vec![
                                        ("net".into(), JsonValue::Number(s.net as f64)),
                                        ("demand".into(), JsonValue::Number(s.demand)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let offenders = self
            .offenders
            .iter()
            .map(|o| {
                let mut fields = vec![
                    ("net".into(), JsonValue::Number(o.net as f64)),
                    ("label".into(), JsonValue::Str(o.label.clone())),
                ];
                if let Some(t) = o.tree {
                    fields.push(("tree".into(), JsonValue::Number(t as f64)));
                }
                fields.extend([
                    ("demand".into(), JsonValue::Number(o.demand)),
                    ("share".into(), JsonValue::Number(o.share)),
                    ("boundaries".into(), JsonValue::Number(o.boundaries as f64)),
                    (
                        "bbox".into(),
                        JsonValue::Array(
                            [o.bbox.0, o.bbox.1, o.bbox.2, o.bbox.3]
                                .iter()
                                .map(|&v| JsonValue::Number(v as f64))
                                .collect(),
                        ),
                    ),
                ]);
                JsonValue::object(fields)
            })
            .collect();
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.audit.v1".into())),
            ("total_overflow".into(), JsonValue::Number(self.total_overflow)),
            ("boundaries".into(), JsonValue::Array(boundaries)),
            ("offenders".into(), JsonValue::Array(offenders)),
        ])
    }
}

/// Builds the attribution report from the final grid state and the
/// committed paths. Only over-capacity boundaries are audited, so a
/// clean run costs one pass over the grid and nothing per net.
pub(crate) fn build_audit(
    grid: &RouteGrid,
    paths: &[Vec<u32>],
    net_of_connection: &[usize],
    net_bbox: &[(u16, u16, u16, u16)],
) -> OverflowAudit {
    // map each overflowed edge to its boundary-audit slot; edge ids run
    // horizontals-then-verticals, row-major, which is the report's order
    let mut slot_of_edge: Vec<Option<usize>> = vec![None; grid.num_edges()];
    let mut boundaries: Vec<BoundaryAudit> = Vec::new();
    for (e, slot) in slot_of_edge.iter_mut().enumerate() {
        let (load, capacity) = (grid.edge_load(e), grid.edge_cap(e));
        if load > capacity {
            *slot = Some(boundaries.len());
            let (horizontal, x, y) = grid.edge_at(e);
            boundaries.push(BoundaryAudit {
                horizontal,
                x,
                y,
                capacity,
                demand: load,
                blockage: load - grid.edge_usage(e),
                nets: Vec::new(),
            });
        }
    }
    if boundaries.is_empty() {
        return OverflowAudit::default();
    }
    // one linear walk over every committed edge: tally (boundary, net)
    // occupancy for the overflowed boundaries only
    let mut per_boundary: Vec<std::collections::BTreeMap<usize, f64>> =
        vec![std::collections::BTreeMap::new(); boundaries.len()];
    for (ci, path) in paths.iter().enumerate() {
        let net = net_of_connection[ci];
        for &e in path {
            if let Some(b) = slot_of_edge[e as usize] {
                *per_boundary[b].entry(net).or_insert(0.0) += 1.0;
            }
        }
    }
    let mut offender_demand: std::collections::BTreeMap<usize, (f64, usize)> =
        std::collections::BTreeMap::new();
    let mut total_demand = 0.0;
    for (b, tally) in per_boundary.into_iter().enumerate() {
        total_demand += boundaries[b].demand;
        let mut nets: Vec<NetShare> =
            tally.into_iter().map(|(net, demand)| NetShare { net, demand }).collect();
        for s in &nets {
            let e = offender_demand.entry(s.net).or_insert((0.0, 0));
            e.0 += s.demand;
            e.1 += 1;
        }
        nets.sort_by(|a, b| b.demand.total_cmp(&a.demand).then(a.net.cmp(&b.net)));
        boundaries[b].nets = nets;
    }
    let mut offenders: Vec<NetOffender> = offender_demand
        .into_iter()
        .map(|(net, (demand, crossed))| NetOffender {
            net,
            label: format!("net{net}"),
            tree: None,
            demand,
            share: if total_demand > 0.0 { demand / total_demand } else { 0.0 },
            boundaries: crossed,
            bbox: net_bbox.get(net).copied().unwrap_or((0, 0, 0, 0)),
        })
        .collect();
    offenders.sort_by(|a, b| b.demand.total_cmp(&a.demand).then(a.net.cmp(&b.net)));
    OverflowAudit { total_overflow: grid.total_overflow(), boundaries, offenders }
}

#[cfg(test)]
mod tests {
    use crate::grid::RouteConfig;
    use crate::{route_pin_sets, RouteResult};
    use casyn_netlist::Point;
    use casyn_place::Floorplan;

    fn congested() -> RouteResult {
        // the channel from the router tests: 40 parallel nets through a
        // 3-row channel of capacity 12.5 — guaranteed overflow
        let fp = Floorplan::with_rows_and_area(3, (3.0 * 6.4) * (8.0 * 6.4));
        let cfg = RouteConfig { max_iters: 10, ..Default::default() };
        let mut nets = Vec::new();
        for i in 0..40 {
            let y = 3.2 + 6.4 * ((i % 3) as f64);
            nets.push(vec![Point::new(3.2, y), Point::new(3.2 + 6.4 * 6.0, y)]);
        }
        route_pin_sets(&nets, &fp, &cfg).unwrap()
    }

    #[test]
    fn clean_run_has_empty_audit() {
        let fp = Floorplan::with_rows_and_area(10, (10.0 * 6.4) * (10.0 * 6.4));
        let nets = vec![vec![Point::new(3.2, 3.2), Point::new(35.0, 35.0)]];
        let r = route_pin_sets(&nets, &fp, &RouteConfig::default()).unwrap();
        assert!(r.is_routable());
        assert!(r.audit.is_clean());
        assert_eq!(r.audit.total_overflow, 0.0);
        assert!(r.audit.offenders.is_empty());
    }

    #[test]
    fn audited_boundaries_are_exactly_the_overflowed_ones() {
        let r = congested();
        assert!(!r.is_routable());
        assert_eq!(r.audit.boundaries.len(), r.overflowed_edges);
        assert!((r.audit.total_overflow - r.overflow).abs() < 1e-9);
        for b in &r.audit.boundaries {
            assert!(b.demand > b.capacity, "audited boundary is not overflowed");
            assert!(b.overflow() > 0.0);
        }
    }

    #[test]
    fn per_net_shares_sum_to_boundary_demand() {
        let r = congested();
        assert!(!r.audit.boundaries.is_empty());
        for b in &r.audit.boundaries {
            let nets: f64 = b.nets.iter().map(|s| s.demand).sum();
            assert!(
                (b.blockage + nets - b.demand).abs() < 1e-9,
                "boundary ({}, {}, h={}) demand {} != blockage {} + nets {}",
                b.x,
                b.y,
                b.horizontal,
                b.demand,
                b.blockage,
                nets
            );
        }
    }

    #[test]
    fn offender_shares_and_ranking() {
        let r = congested();
        let offs = &r.audit.offenders;
        assert!(!offs.is_empty());
        // ranked by demand descending
        for w in offs.windows(2) {
            assert!(w[0].demand >= w[1].demand);
        }
        // shares fractional; with blockage zero here they cover 1.0
        let total_share: f64 = offs.iter().map(|o| o.share).sum();
        let blockage: f64 = r.audit.boundaries.iter().map(|b| b.blockage).sum();
        assert_eq!(blockage, 0.0, "route_pin_sets adds no blockage");
        assert!((total_share - 1.0).abs() < 1e-9, "shares sum to {total_share}");
        // default labels; route_mapped overrides them
        assert!(offs.iter().all(|o| o.label == format!("net{}", o.net)));
        // the channel nets run along y, bbox must span the 6 gcells
        let top = &offs[0];
        assert_eq!(top.bbox.2 - top.bbox.0, 6);
    }

    #[test]
    fn audit_json_shape() {
        let r = congested();
        let doc = r.audit.to_json().to_string_pretty();
        assert!(doc.contains("\"schema\": \"casyn.audit.v1\""));
        assert!(doc.contains("\"offenders\""));
        assert!(doc.contains("\"boundaries\""));
        let parsed = casyn_obs::json::JsonValue::parse(&doc).unwrap();
        let offs = parsed.get("offenders").and_then(|v| v.as_array()).unwrap();
        assert_eq!(offs.len(), r.audit.offenders.len());
        let bbox = offs[0].get("bbox").and_then(|v| v.as_array()).unwrap();
        assert_eq!(bbox.len(), 4);
    }
}
