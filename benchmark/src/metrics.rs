//! The benchmark's metric names, units and bounds — one table, mirrored
//! by `BENCHMARK.json` at the repo root (a test keeps the two equal).

use crate::stats::Better;
use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `bound` of `BENCHMARK.json`: the share of the base median by which
    /// the median over a set of seeds may worsen. The acceptance driver
    /// also requires the spread of the metric over ten seeds to stay inside
    /// it, on every workload, and each seed is another design: this bound
    /// has to cover the variety of the inputs (README, "Bounds").
    pub bound: f64,
    /// The share by which a run may be worse than the base run of the
    /// same seed, which `agree` gates on. The designs are the same, so it
    /// only has to cover what the machine adds.
    pub same_seed_bound: f64,
}

/// A metric of one layer, from the traced pass. No bound: it explains a
/// change in an end-to-end metric, it does not gate one. A workload that
/// does not run a layer reports that layer's metrics as 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    same_seed_bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, same_seed_bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Bounds over seeds, then bounds for one seed. Over seeds every timing
/// carries the widest bound the contract allows (README, "Bounds"). For
/// one seed the quality metrics repeat exactly, so their bounds are the
/// issue's (1 % area, 2 % wirelength and arrival), and the timings carry
/// the 10 % the issue wants seen; where the machine is noisier than that
/// `agree` says `unresolved`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, 0.25),
    e2e("wall_s", "s", Lower, 0.25, 0.10),
    e2e("jobs_per_s", "1/s", Higher, 0.25, 0.10),
    e2e("job_p50_ms", "ms", Lower, 0.25, 0.10),
    e2e("job_p95_ms", "ms", Lower, 0.25, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.25, 0.10),
    e2e("cell_area_um2", "um2", Lower, 0.1, 0.01),
    e2e("routed_wl_um", "um", Lower, 0.1, 0.02),
    e2e("critical_ns", "ns", Lower, 0.25, 0.02),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("netlist.parse_ms", "ms", Lower),
    layer("netlist.parse_mb_per_s", "MB/s", Higher),
    layer("netlist.write_blif_ms", "ms", Lower),
    layer("logic.optimize_ms", "ms", Lower),
    layer("logic.decompose_ms", "ms", Lower),
    layer("logic.base_gates", "count", Lower),
    layer("library.build_us", "us", Lower),
    layer("place.global_ms", "ms", Lower),
    layer("place.hpwl_um", "um", Lower),
    layer("place.legalize_ms", "ms", Lower),
    layer("place.legalize_disp_um", "um", Lower),
    layer("core.floorplan_map_ms", "ms", Lower),
    layer("core.partition_ms", "ms", Lower),
    layer("core.map_ms", "ms", Lower),
    layer("core.trees", "count", Lower),
    layer("core.cells", "count", Lower),
    layer("core.est_wl_um", "um", Lower),
    layer("core.duplicated_covers", "count", Lower),
    layer("route.route_ms", "ms", Lower),
    layer("route.iterations", "count", Lower),
    layer("route.ms_per_iter", "ms", Lower),
    layer("route.nets", "count", Lower),
    layer("route.rerouted", "count", Lower),
    layer("route.overflow", "tracks", Lower),
    layer("route.overflowed_edges", "count", Lower),
    layer("route.max_util", "ratio", Lower),
    layer("route.violations", "count", Lower),
    layer("timing.sta_ms", "ms", Lower),
    layer("flow.prepare_ms", "ms", Lower),
    layer("flow.flow_ms", "ms", Lower),
    layer("flow.content_key_us", "us", Lower),
    layer("flow.manifest_parse_us", "us", Lower),
    layer("flow.wal_append_us", "us", Lower),
    layer("flow.wal_replay_ms", "ms", Lower),
    layer("exec.pooled_ladder_s", "s", Lower),
    layer("exec.pool_speedup", "ratio", Higher),
    layer("exec.dispatch_us", "us", Lower),
    layer("serve.http_noop_ms", "ms", Lower),
    layer("serve.submit_ms", "ms", Lower),
    layer("serve.result_wait_ms", "ms", Lower),
    layer("serve.cache_hit_share", "ratio", Higher),
    layer("serve.computes", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.disk_put_us", "us", Lower),
    layer("serve.disk_get_us", "us", Lower),
    layer("serve.prom_scrape_ms", "ms", Lower),
    layer("obs.allocated_mb", "MB", Lower),
    layer("obs.enabled_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.failed_share", "ratio", Lower),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Values of the per-layer metrics a traced run measured; every other
/// per-layer metric reads 0 (its layer is not on this workload's path).
#[derive(Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown per-layer metric {name}");
        assert!(!self.0.iter().any(|(n, _)| *n == name), "per-layer metric {name} set twice");
        self.0.push((name, value));
    }

    /// Every per-layer metric in table order.
    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: self.0.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }
}
