//! Table formatting mirroring the paper's layout.

use crate::flows::FlowResult;
use crate::sweep::KSweepEntry;
use crate::telemetry::FlowTelemetry;
use casyn_route::{CongestionMap, OverflowAudit, RouteConvergence};

/// Formats a K-sweep as the paper's Table 2/4 layout, extended with the
/// router's convergence columns:
/// `K | Cell Area (µm²) | No. of Cells | Area Utilization% | No. of
/// Routing violations | Route iters | Overflow | Ovfl edges`.
pub fn format_k_sweep_table(title: &str, rows: &[KSweepEntry]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>10}  {:>14}  {:>12}  {:>18}  {:>22}  {:>11}  {:>10}  {:>10}\n",
        "K",
        "Cell Area (um2)",
        "No. of Cells",
        "Area Utilization%",
        "No. of Routing viol.",
        "Route iters",
        "Overflow",
        "Ovfl edges"
    ));
    for row in rows {
        let r = &row.result;
        s.push_str(&format!(
            "{:>10}  {:>14.0}  {:>12}  {:>18.2}  {:>22}  {:>11}  {:>10.1}  {:>10}\n",
            trim_k(row.k),
            r.cell_area,
            r.num_cells,
            r.utilization_pct,
            r.route.violations,
            r.route.iterations,
            r.route.overflow,
            r.route.overflowed_edges
        ));
    }
    s
}

/// Formats named flow results as the paper's Table 1 layout, extended
/// with the router's convergence columns:
/// `flow | Cell Area | No. of Rows | Area Utilization% | Routing
/// violations | Route iters | Overflow | Ovfl edges`.
pub fn format_routing_table(title: &str, rows: &[(&str, &FlowResult)]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>8}  {:>14}  {:>12}  {:>18}  {:>22}  {:>11}  {:>10}  {:>10}\n",
        "",
        "Cell Area (um2)",
        "No. of Rows",
        "Area Utilization%",
        "No. of Routing viol.",
        "Route iters",
        "Overflow",
        "Ovfl edges"
    ));
    for (name, r) in rows {
        s.push_str(&format!(
            "{:>8}  {:>14.0}  {:>12}  {:>18.2}  {:>22}  {:>11}  {:>10.1}  {:>10}\n",
            name,
            r.cell_area,
            r.floorplan.num_rows,
            r.utilization_pct,
            r.route.violations,
            r.route.iterations,
            r.route.overflow,
            r.route.overflowed_edges
        ));
    }
    s
}

/// Formats per-stage telemetry as a table: one line per stage with its
/// wall clock, allocator traffic (allocated / peak live, in KiB; zeros
/// when the `alloc-track` feature is off or obs is disabled), and the
/// metrics it moved (`key=value`, space-separated).
pub fn format_telemetry_table(title: &str, t: &FlowTelemetry) -> String {
    let kib = |b: u64| b as f64 / 1024.0;
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>10}  {:>10}  {:>11}  {:>10}  metrics\n",
        "stage", "wall ms", "alloc KiB", "peak KiB"
    ));
    for stage in &t.stages {
        let metrics = stage
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={}", casyn_obs::json::fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(" ");
        s.push_str(&format!(
            "{:>10}  {:>10.3}  {:>11.1}  {:>10.1}  {}\n",
            stage.stage,
            stage.wall_ms,
            kib(stage.alloc_bytes),
            kib(stage.peak_bytes),
            metrics
        ));
    }
    s.push_str(&format!(
        "{:>10}  {:>10.3}  {:>11}  {:>10.1}  peak_live_nodes={}\n",
        "total",
        t.total_ms,
        "",
        kib(t.peak_alloc_bytes),
        t.peak_live_nodes
    ));
    s
}

/// Formats STA comparisons as the paper's Table 3/5 layout:
/// `flow | Critical Path + Arrival | Chip Area / rows`.
pub fn format_sta_table(title: &str, rows: &[(&str, &FlowResult)]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>8}  {:>34}  {:>14}  {:>20}\n",
        "", "Critical Path (arrival ns)", "Chip Area (um2)", "No. of rows"
    ));
    for (name, r) in rows {
        s.push_str(&format!(
            "{:>8}  {:>24} {:>9.2}  {:>14.0}  {:>20}\n",
            name,
            r.sta.critical_endpoints(),
            r.sta.critical_arrival(),
            r.floorplan.die_area(),
            r.floorplan.num_rows
        ));
    }
    s
}

/// Formats the overflow-attribution report as a table of the `top`
/// offender nets:
/// `net | driver | tree | demand | share% | boundaries | bbox`.
/// Returns a one-line all-clear when the audit is empty.
pub fn format_audit_table(title: &str, audit: &OverflowAudit, top: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    if audit.is_clean() {
        s.push_str("no overflowed boundaries\n");
        return s;
    }
    s.push_str(&format!(
        "overflow {:.1} track-segments over {} boundaries\n",
        audit.total_overflow,
        audit.boundaries.len()
    ));
    s.push_str(&format!(
        "{:>6}  {:>16}  {:>6}  {:>8}  {:>7}  {:>10}  bbox (gcells)\n",
        "net", "driver", "tree", "demand", "share%", "boundaries"
    ));
    for o in audit.offenders.iter().take(top) {
        let tree = o.tree.map_or("-".to_string(), |t| t.to_string());
        s.push_str(&format!(
            "{:>6}  {:>16}  {:>6}  {:>8.1}  {:>7.1}  {:>10}  ({}, {})-({}, {})\n",
            o.net,
            o.label,
            tree,
            o.demand,
            100.0 * o.share,
            o.boundaries,
            o.bbox.0,
            o.bbox.1,
            o.bbox.2,
            o.bbox.3
        ));
    }
    if audit.offenders.len() > top {
        s.push_str(&format!("... and {} more nets\n", audit.offenders.len() - top));
    }
    s
}

/// Renders the router's overflow trajectory as a one-line Unicode
/// sparkline (scaled to the series maximum) followed by a summary:
///
/// ```text
/// route convergence: █▆▅▃▂▁▁ (7 iters, overflow 42.0 -> 0.0)
/// ```
pub fn format_convergence_sparkline(conv: &RouteConvergence) -> String {
    let series = conv.overflow_series();
    if series.is_empty() {
        return "route convergence: (no iterations)\n".to_string();
    }
    format!(
        "route convergence: {} ({} iters, overflow {:.1} -> {:.1})\n",
        format_sparkline(&series),
        series.len(),
        series.first().copied().unwrap_or(0.0),
        series.last().copied().unwrap_or(0.0)
    )
}

/// Renders any numeric series as a one-line Unicode sparkline scaled to
/// the series maximum (an all-zero series renders as a flat baseline).
/// Shared by the convergence report above and the `casyn top` live
/// dashboard.
pub fn format_sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().fold(0.0f64, |a, &b| a.max(b));
    series
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() || v <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders a congestion map as a bordered ASCII heatmap with the legend
/// of [`CongestionMap`]'s `Display` impl (`.` < 50%, `-` < 80%, `+` <
/// 100%, `#` ≥ 100%), so the CLI can print the Fig. 3 artifact directly.
pub fn format_congestion_heatmap(title: &str, map: &CongestionMap) -> String {
    let body = format!("{map}");
    let width = map.nx();
    let mut s = String::new();
    s.push_str(&format!(
        "{title} ({}x{} gcells, max util {:.0}%, legend . <50% - <80% + <100% # >=100%)\n",
        map.nx(),
        map.ny(),
        100.0 * map.max_util()
    ));
    s.push_str(&format!("+{}+\n", "-".repeat(width)));
    for line in body.lines() {
        s.push_str(&format!("|{line}|\n"));
    }
    s.push_str(&format!("+{}+\n", "-".repeat(width)));
    s
}

fn trim_k(k: f64) -> String {
    if k == 0.0 {
        "0.0".to_string()
    } else {
        format!("{k}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{congestion_flow, FlowOptions};
    use casyn_netlist::bench::{random_pla, PlaGenConfig};

    fn one_result() -> FlowResult {
        let net = random_pla(&PlaGenConfig {
            inputs: 8,
            outputs: 4,
            terms: 16,
            min_literals: 2,
            max_literals: 4,
            mean_outputs_per_term: 1.3,
            seed: 3,
        })
        .to_network();
        congestion_flow(&net, 0.001, &FlowOptions::default()).unwrap()
    }

    #[test]
    fn k_sweep_table_has_header_and_rows() {
        let r = one_result();
        let rows = vec![KSweepEntry { k: 0.001, result: r }];
        let s = format_k_sweep_table("Table 2. test", &rows);
        assert!(s.contains("Table 2. test"));
        assert!(s.contains("Cell Area"));
        assert!(s.lines().count() == 3);
        assert!(s.contains("0.001"));
    }

    #[test]
    fn routing_and_sta_tables_render() {
        let r = one_result();
        let t1 = format_routing_table("Table 1", &[("SIS", &r), ("DAGON", &r)]);
        assert!(t1.contains("SIS") && t1.contains("DAGON"));
        assert_eq!(t1.lines().count(), 4);
        let t3 = format_sta_table("Table 3", &[("0.0", &r)]);
        assert!(t3.contains("(in)") && t3.contains("(out)"));
    }

    #[test]
    fn telemetry_table_lists_stages_and_total() {
        let r = one_result();
        let s = format_telemetry_table("Telemetry", &r.telemetry);
        assert!(s.contains("Telemetry"));
        assert!(s.contains("wall ms"));
        assert!(s.contains("peak KiB"));
        for stage in ["decompose", "place", "map", "route", "sta"] {
            assert!(s.contains(stage), "missing stage {stage} in:\n{s}");
        }
        assert!(s.contains("peak_live_nodes="));
    }

    #[test]
    fn k_formatting() {
        assert_eq!(trim_k(0.0), "0.0");
        assert_eq!(trim_k(0.0001), "0.0001");
        assert_eq!(trim_k(1.0), "1");
    }

    #[test]
    fn audit_table_renders_offenders_or_all_clear() {
        let r = one_result();
        let s = format_audit_table("Audit", &r.route.audit, 8);
        assert!(s.starts_with("Audit\n"));
        if r.route.audit.is_clean() {
            assert!(s.contains("no overflowed boundaries"));
        } else {
            assert!(s.contains("driver") && s.contains("share%"));
        }
        // congested pin-set route: offenders must show up
        use casyn_netlist::Point;
        use casyn_route::{route_pin_sets, RouteConfig};
        let fp = casyn_place::Floorplan::with_rows_and_area(3, (3.0 * 6.4) * (8.0 * 6.4));
        let nets: Vec<Vec<Point>> = (0..40)
            .map(|i| {
                let y = 3.2 + 6.4 * ((i % 3) as f64);
                vec![Point::new(3.2, y), Point::new(3.2 + 6.4 * 6.0, y)]
            })
            .collect();
        let cfg = RouteConfig { max_iters: 10, ..Default::default() };
        let rr = route_pin_sets(&nets, &fp, &cfg).unwrap();
        let s = format_audit_table("Audit", &rr.audit, 4);
        assert!(s.contains("net0") || s.contains("net"), "{s}");
        assert!(s.contains("boundaries"));
        assert!(s.contains("... and"), "40 offenders truncated to 4:\n{s}");
    }

    #[test]
    fn sparkline_tracks_series_length() {
        let r = one_result();
        let s = format_convergence_sparkline(&r.route.convergence);
        assert!(s.contains("route convergence:"));
        assert!(s.contains(&format!("({} iters", r.route.iterations)));
        let empty = format_convergence_sparkline(&Default::default());
        assert!(empty.contains("no iterations"));
    }

    #[test]
    fn heatmap_frame_matches_grid_width() {
        let r = one_result();
        let s = format_congestion_heatmap("Congestion", &r.route.congestion);
        let nx = r.route.congestion.nx();
        assert!(s.contains("legend"));
        let border = format!("+{}+", "-".repeat(nx));
        assert_eq!(s.matches(&border).count(), 2, "{s}");
        assert_eq!(s.lines().count(), 3 + r.route.congestion.ny());
    }
}
