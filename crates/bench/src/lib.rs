//! Experiment harness: shared setup for the binaries that regenerate
//! every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p casyn-bench --bin <name>`):
//!
//! * `figure1` — the worked min-area vs. congestion mapping example.
//! * `table1`  — TOO_LARGE: SIS vs DAGON routability.
//! * `table2`  — SPLA K sweep.
//! * `table3`  — SPLA static timing analysis.
//! * `table4`  — PDC K sweep.
//! * `table5`  — PDC static timing analysis.
//! * `motivation` — wireload-model misprediction (Section 2).
//! * `ablation` — partitioning scheme, legalization seeding, duplication pricing.

use casyn_flow::{FlowOptions, Prepared};
use casyn_netlist::network::Network;
use casyn_place::Floorplan;

/// The experiment setup of one paper benchmark: the prepared design and
/// the fixed floorplan every mapping is evaluated against.
pub struct Experiment {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// The two-level / multi-level source network.
    pub network: Network,
    /// Flow options with the fixed floorplan installed.
    pub opts: FlowOptions,
    /// The prepared (decomposed + placed) design.
    pub prep: Prepared,
}

/// Utilization the paper's K = 0 SPLA netlist has in its fixed die
/// (126521 / 207062 = 61.1%).
pub const SPLA_K0_UTILIZATION: f64 = 0.611;

/// Utilization of the paper's K = 0 PDC netlist (128438 / 229786).
pub const PDC_K0_UTILIZATION: f64 = 0.5589;

/// Utilization of the paper's TOO_LARGE DAGON netlist in Table 1
/// (129851 µm² at 84.37% ⇒ die 153915 µm²).
pub const TOO_LARGE_UTILIZATION: f64 = 0.8437;

/// Builds an experiment: derives the die so the K = 0 (min-area) mapping
/// sits at `k0_utilization`, mirroring how the paper fixes die sizes.
pub fn experiment(name: &'static str, network: Network, k0_utilization: f64) -> Experiment {
    let mut opts = FlowOptions { target_utilization: k0_utilization, ..Default::default() };
    // pin-escape blockage calibrated so that cell-density growth at large
    // K measurably erodes routability (see DESIGN.md)
    opts.route.pin_blockage = 0.8;
    let prep = casyn_flow::prepare(&network, &opts).expect("bench: prepare failed");
    opts.floorplan = Some(prep.floorplan);
    Experiment { name, network, opts, prep }
}

/// The SPLA experiment (Tables 2 and 3).
pub fn spla_experiment() -> Experiment {
    experiment("SPLA", casyn_netlist::bench::spla().to_network(), SPLA_K0_UTILIZATION)
}

/// The PDC experiment (Tables 4 and 5).
pub fn pdc_experiment() -> Experiment {
    experiment("PDC", casyn_netlist::bench::pdc().to_network(), PDC_K0_UTILIZATION)
}

/// The TOO_LARGE experiment (Table 1).
pub fn too_large_experiment() -> Experiment {
    experiment("TOO_LARGE", casyn_netlist::bench::too_large(), TOO_LARGE_UTILIZATION)
}

/// A floorplan with the same width and extra rows, for the paper's
/// "increase the rows until SIS routes" comparisons.
pub fn widen(fp: &Floorplan, extra_rows: usize) -> Floorplan {
    fp.with_extra_rows(extra_rows)
}

use casyn_flow::{congestion_flow_prepared, FlowResult};

/// Finds the smallest routing-capacity scale in `[lo, hi]` at which the
/// congestion flow at `k_probe` routes without violations — the analogue
/// of the paper fixing each die so the design sits at the routability
/// edge. Returns the calibrated scale (bisection to ~1% resolution).
pub fn calibrate_scale(exp: &mut Experiment, k_probe: f64, lo: f64, hi: f64) -> f64 {
    let mut lo = lo;
    let mut hi = hi;
    for _ in 0..8 {
        let mid = (lo + hi) / 2.0;
        exp.opts.route.capacity_scale = mid;
        let r = congestion_flow_prepared(&exp.prep, k_probe, &exp.opts)
            .expect("bench: calibration flow failed");
        if r.route.violations == 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    exp.opts.route.capacity_scale = hi;
    hi
}

/// Like [`calibrate_scale`] but lands on the *unroutable* side of the
/// K = 0 edge: the largest probed scale at which the minimum-area netlist
/// still violates. This pins the die exactly as the paper does — the
/// minimum-area mapping must NOT route, so the window's few-percent
/// wirelength advantage is what rescues routability.
pub fn calibrate_scale_unroutable(exp: &mut Experiment, lo: f64, hi: f64) -> f64 {
    let mut lo = lo;
    let mut hi = hi;
    for _ in 0..9 {
        let mid = (lo + hi) / 2.0;
        exp.opts.route.capacity_scale = mid;
        let r = congestion_flow_prepared(&exp.prep, 0.0, &exp.opts)
            .expect("bench: calibration flow failed");
        if r.route.violations == 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    exp.opts.route.capacity_scale = lo;
    lo
}

/// Runs the congestion flow over a K list at the experiment's current
/// configuration.
pub fn run_k_list(exp: &Experiment, ks: &[f64]) -> Vec<(f64, FlowResult)> {
    ks.iter()
        .map(|&k| {
            let r = congestion_flow_prepared(&exp.prep, k, &exp.opts)
                .expect("bench: table flow failed");
            (k, r)
        })
        .collect()
}

/// The K values our tables sweep. The paper's K spans three regions on
/// its 0.0001–1.0 axis; our wire term is measured in micrometres of a
/// smaller synthetic die against areas in µm², so the same three regions
/// appear on a shifted axis.
pub const TABLE_K_VALUES: [f64; 12] =
    [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 500.0];

/// Finds the smallest number of extra (or fewer) rows at which `flow`
/// routes: returns `(rows, die area)` of the smallest routable floorplan,
/// searching from `base` downwards then upwards (cap ±`span` rows).
pub fn min_routable_rows(exp: &Experiment, k: f64, span: usize) -> Option<(usize, f64)> {
    let base = exp.prep.floorplan;
    let mut best: Option<(usize, f64)> = None;
    for delta in -(span as isize)..=(span as isize) {
        let rows = (base.num_rows as isize + delta).max(1) as usize;
        // keep the same row width; area scales with rows
        let fp = casyn_place::Floorplan {
            die_width: base.die_width,
            die_height: rows as f64 * casyn_place::image::ROW_HEIGHT,
            num_rows: rows,
        };
        let mut opts = exp.opts.clone();
        opts.floorplan = Some(fp);
        // re-prepare placement on the new image? The paper keeps the
        // original tech-independent placement; we re-place to keep the
        // density consistent with the die.
        let prep = casyn_flow::prepare(&exp.network, &opts).expect("bench: prepare failed");
        let r = congestion_flow_prepared(&prep, k, &opts).expect("bench: row-search flow failed");
        if r.route.violations == 0 {
            best = Some((rows, fp.die_area()));
            break;
        }
    }
    best
}
