//! The K sweep behind the paper's Tables 2 and 4.

use crate::error::FlowError;
use crate::flows::{congestion_flow_prepared, FlowOptions, FlowResult, Prepared};
use casyn_exec::Pool;

/// The K values the paper sweeps in Tables 2 and 4.
pub const PAPER_K_VALUES: [f64; 14] = [
    0.0, 0.0001, 0.00025, 0.0005, 0.00075, 0.001, 0.0025, 0.005, 0.0075, 0.01, 0.05, 0.1, 0.5, 1.0,
];

/// One row of a K-sweep table.
#[derive(Debug, Clone)]
pub struct KSweepEntry {
    /// The congestion minimization factor.
    pub k: f64,
    /// The flow outcome at this K.
    pub result: FlowResult,
}

impl KSweepEntry {
    /// Per-stage telemetry of the flow run behind this row.
    pub fn telemetry(&self) -> &crate::telemetry::FlowTelemetry {
        &self.result.telemetry
    }
}

/// Runs the congestion-aware flow at every K over one [`Prepared`]
/// design — the technology-independent netlist and its placement are
/// generated once, as the paper's methodology prescribes. Stops at the
/// first failing K; the error carries the stage that failed.
pub fn k_sweep_prepared(
    prep: &Prepared,
    ks: &[f64],
    opts: &FlowOptions,
) -> Result<Vec<KSweepEntry>, FlowError> {
    ks.iter()
        .map(|&k| Ok(KSweepEntry { k, result: congestion_flow_prepared(prep, k, opts)? }))
        .collect()
}

/// [`k_sweep_prepared`] fanned out across a [`Pool`]. Every per-K flow
/// run is an independent pure function of the shared immutable
/// [`Prepared`], so the rows are **bit-identical** to the serial path —
/// only wall-clock telemetry differs. Rows come back in input K order;
/// a failing or panicking probe surfaces as the typed error of the
/// lowest failing K (matching the serial path), with sibling probes
/// unaffected.
pub fn k_sweep_prepared_pool(
    prep: &Prepared,
    ks: &[f64],
    opts: &FlowOptions,
    pool: &Pool,
) -> Result<Vec<KSweepEntry>, FlowError> {
    let results = pool.try_par_map(ks, |&k| congestion_flow_prepared(prep, k, opts));
    ks.iter()
        .zip(results)
        .map(|(&k, r)| match r {
            Ok(Ok(result)) => Ok(KSweepEntry { k, result }),
            Ok(Err(e)) => Err(e),
            Err(job) => Err(FlowError::from(job)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::prepare;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};
    use casyn_netlist::network::Network;

    fn small_net() -> Network {
        random_pla(&PlaGenConfig {
            inputs: 10,
            outputs: 6,
            terms: 36,
            min_literals: 3,
            max_literals: 6,
            mean_outputs_per_term: 1.5,
            seed: 5,
        })
        .to_network()
    }

    #[test]
    fn sweep_produces_one_entry_per_k() {
        let net = small_net();
        let opts = FlowOptions::default();
        let ks = [0.0, 0.01, 1.0];
        let rows = k_sweep_prepared(&prepare(&net, &opts).unwrap(), &ks, &opts).unwrap();
        assert_eq!(rows.len(), 3);
        for (row, k) in rows.iter().zip(ks) {
            assert_eq!(row.k, k);
        }
    }

    #[test]
    fn area_is_monotone_nondecreasing_at_table_scale_ks() {
        // the paper's Table 2: cell area rises with K (after the flat
        // region); on a small design we assert the ends of the range
        let net = small_net();
        let opts = FlowOptions::default();
        let rows = k_sweep_prepared(&prepare(&net, &opts).unwrap(), &[0.0, 10.0], &opts).unwrap();
        assert!(rows[1].result.cell_area >= rows[0].result.cell_area);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let net = small_net();
        let opts = FlowOptions::default();
        let prep = prepare(&net, &opts).unwrap();
        let ks = [0.0, 0.001, 0.05, 1.0];
        let serial = k_sweep_prepared(&prep, &ks, &opts).unwrap();
        let parallel = k_sweep_prepared_pool(&prep, &ks, &opts, &casyn_exec::Pool::new(4)).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.k, b.k);
            assert_eq!(a.result.cell_area, b.result.cell_area);
            assert_eq!(a.result.num_cells, b.result.num_cells);
            assert_eq!(a.result.route.violations, b.result.route.violations);
            assert_eq!(a.result.route.total_wirelength, b.result.route.total_wirelength);
            assert_eq!(a.result.sta.critical_arrival(), b.result.sta.critical_arrival());
        }
    }

    #[test]
    fn parallel_sweep_surfaces_injected_panics_as_typed_errors() {
        use crate::error::FlowErrorKind;
        let net = small_net();
        let opts = FlowOptions {
            fault: Some(casyn_exec::FaultPlan::parse("map:panic:2").unwrap()),
            ..Default::default()
        };
        let prep = prepare(&net, &opts).unwrap();
        let e = k_sweep_prepared_pool(&prep, &[0.0, 0.001], &opts, &casyn_exec::Pool::new(2))
            .unwrap_err();
        assert_eq!(e.kind, FlowErrorKind::Panicked);
        assert!(e.detail.contains("injected fault"), "panic payload kept: {e}");
    }

    #[test]
    fn paper_k_values_are_sorted_and_start_at_zero() {
        assert_eq!(PAPER_K_VALUES[0], 0.0);
        for w in PAPER_K_VALUES.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
