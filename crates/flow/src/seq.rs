//! Sequential synthesis: map the combinational core, pass flip-flops
//! through, and close timing on register paths.
//!
//! The paper's mapper is combinational; real designs have registers. A
//! [`sequential_flow`] run:
//!
//! 1. exposes each latch's next-state node as a temporary primary output
//!    and its current state as a pseudo primary input;
//! 2. maps and legalizes the core with the congestion-aware flow
//!    ([`map_at`]);
//! 3. replaces each pseudo boundary with a DFF master from the library
//!    (placed at its data driver, then re-legalized);
//! 4. routes once and runs clocked STA ([`route_at`]) — flip-flops launch
//!    at clock-to-Q and terminate incoming paths at their setup, so
//!    [`casyn_timing::StaResult::min_clock_period`] reports the design's
//!    fastest clock.

use crate::error::{FlowError, FlowErrorKind, Stage};
use crate::flows::{legalize, map_at, route_at, stage_boundary, FlowOptions, FlowResult};
use casyn_core::{CostKind, MapOptions, PartitionScheme};
use casyn_netlist::mapped::{MappedCell, MappedNetlist, SignalRef};
use casyn_netlist::seq::SeqNetwork;

/// The outcome of a sequential flow.
#[derive(Debug, Clone)]
pub struct SeqFlowResult {
    /// The flow result of the core with its flip-flops inserted: the
    /// netlist, its one routing and its clocked STA.
    pub flow: FlowResult,
    /// Flip-flops inserted.
    pub num_dffs: usize,
    /// Minimum clock period supported by the routed design (ns).
    pub min_clock_period: f64,
}

/// Runs the congestion-aware flow on a sequential design. A library
/// without a sequential master fails with a typed
/// [`FlowErrorKind::MissingSeqMaster`] error naming the library;
/// inconsistent latch wiring is a seq-stage bad-input error.
pub fn sequential_flow(
    seq: &SeqNetwork,
    k: f64,
    opts: &FlowOptions,
) -> Result<SeqFlowResult, FlowError> {
    seq.validate().map_err(|e| {
        FlowError::bad_input(Stage::Seq, format!("inconsistent sequential network: {e}"))
    })?;
    // fail before the (expensive) combinational flow when the library
    // cannot host the flip-flops we will need afterwards
    let dff_id = match opts.lib.dff() {
        Some(id) => id,
        None if seq.is_combinational() => u32::MAX, // never used below
        None => {
            return Err(FlowError::new(
                Stage::Seq,
                FlowErrorKind::MissingSeqMaster,
                format!(
                    "library \"{}\" has no sequential master (DFF) for a design with {} latches",
                    opts.lib.name(),
                    seq.latches.len()
                ),
            ))
        }
    };
    // 1. expose latch boundaries on a copy of the core
    let mut core = seq.core.clone();
    for (i, latch) in seq.latches.iter().enumerate() {
        core.add_output(format!("__latch_d_{i}"), latch.d);
    }
    // 2. map and legalize the combinational core
    let prep = crate::flows::prepare(&core, opts)?;
    let map_opts = MapOptions {
        scheme: PartitionScheme::PlacementDriven,
        cost: if k == 0.0 { CostKind::Area } else { CostKind::AreaWire { k } },
    };
    let mut mapped = map_at(&prep, &map_opts, opts)?;
    let nl = &mut mapped.netlist;
    // 3. insert flip-flops
    let num_latches = seq.latches.len();
    if num_latches > 0 {
        let dff_master = opts.lib.cell(dff_id).clone();
        let num_real_outputs = nl.outputs().len() - num_latches;
        let q_base = (nl.input_names().len() - num_latches) as u32;
        for (i, _) in seq.latches.iter().enumerate() {
            let (_, d_sig) = nl.outputs()[num_real_outputs + i];
            let pos = nl.signal_pos(d_sig);
            let dff = nl.add_cell(MappedCell {
                lib_cell: dff_id,
                name: dff_master.name.clone(),
                inputs: vec![d_sig],
                area: dff_master.area,
                width: dff_master.width,
                pos,
                source_tree: None,
            });
            // every consumer of the latch's pseudo-input now reads the DFF
            nl.replace_signal(SignalRef::Pi(q_base + i as u32), dff);
        }
        nl.remove_trailing_outputs(num_latches);
        nl.remove_trailing_inputs(num_latches);
    }
    stage_boundary(opts, Stage::Seq)?;
    if opts.validate {
        let nl_ref = &*nl;
        crate::check::mapped_netlist_cut(Stage::Seq, nl_ref, |c| {
            opts.lib.cell(nl_ref.cells()[c].lib_cell).sequential
        })?;
    }
    // 4. legalize with the DFFs, route, clocked STA
    legalize(nl, &mapped.floorplan);
    let flow = route_at(mapped, opts)?;
    let min_clock_period = flow.sta.min_clock_period();
    Ok(SeqFlowResult { flow, num_dffs: num_latches, min_clock_period })
}

/// Cycle-accurate simulation of a mapped sequential netlist: flip-flops
/// (identified through the library) hold state across cycles. Stimulus
/// rows cover the real primary inputs; returns per-cycle primary-output
/// values.
///
/// # Panics
///
/// Panics on stimulus width mismatch or a combinational loop.
pub fn simulate_mapped_seq(
    nl: &MappedNetlist,
    lib: &casyn_library::Library,
    stimulus: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let is_seq = |c: usize| lib.cell(nl.cells()[c].lib_cell).sequential;
    let order = nl.topological_order_cut(is_seq);
    let mut state = vec![false; nl.num_cells()];
    let mut out = Vec::with_capacity(stimulus.len());
    for row in stimulus {
        assert_eq!(row.len(), nl.input_names().len(), "stimulus width mismatch");
        let mut values = state.clone();
        for &ci in &order {
            if is_seq(ci) {
                continue; // holds last cycle's captured value
            }
            let cell = &nl.cells()[ci];
            let ins: Vec<bool> = cell
                .inputs
                .iter()
                .map(|s| match s {
                    SignalRef::Pi(i) => row[*i as usize],
                    SignalRef::Cell(c) => values[*c as usize],
                })
                .collect();
            values[ci] = lib.eval_cell(cell.lib_cell, &ins);
        }
        out.push(
            nl.outputs()
                .iter()
                .map(|(_, s)| match s {
                    SignalRef::Pi(i) => row[*i as usize],
                    SignalRef::Cell(c) => values[*c as usize],
                })
                .collect(),
        );
        // capture next state at the clock edge
        for &ci in &order {
            if is_seq(ci) {
                let cell = &nl.cells()[ci];
                state[ci] = match cell.inputs[0] {
                    SignalRef::Pi(i) => row[i as usize],
                    SignalRef::Cell(c) => values[c as usize],
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_library::{corelib018, Library};
    use casyn_netlist::blif::Blif;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 3-bit LFSR-ish sequential benchmark in BLIF.
    fn counter_blif() -> SeqNetwork {
        let text = "\
.model ctr
.inputs en
.outputs b0 b1
.latch n0 s0 0
.latch n1 s1 0
# n0 = s0 XOR en
.names s0 en n0
10 1
01 1
# n1 = s1 XOR (s0 AND en); on-set rows only
.names s1 s0 en n1
011 1
100 1
101 1
110 1
.names s0 b0
1 1
.names s1 b1
1 1
.end
";
        text.parse::<Blif>().unwrap().into_seq()
    }

    #[test]
    fn sequential_flow_builds_and_times() {
        let seq = counter_blif();
        let opts = FlowOptions::default();
        let r = sequential_flow(&seq, 0.1, &opts).unwrap();
        assert_eq!(r.num_dffs, 2);
        assert!(r.min_clock_period > 0.0);
        // the DFF cells are present in the netlist
        let dffs = r.flow.netlist.cells().iter().filter(|c| c.name == "DFF").count();
        assert_eq!(dffs, 2);
        // no leftover pseudo ports
        assert_eq!(r.flow.netlist.input_names(), &["en".to_string()]);
        assert_eq!(r.flow.netlist.outputs().len(), 2);
    }

    #[test]
    fn mapped_sequential_simulation_matches_golden() {
        let seq = counter_blif();
        let opts = FlowOptions::default();
        let r = sequential_flow(&seq, 0.1, &opts).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let stimulus: Vec<Vec<bool>> = (0..32).map(|_| vec![rng.gen()]).collect();
        let golden = seq.simulate(&stimulus);
        let mapped = simulate_mapped_seq(&r.flow.netlist, &opts.lib, &stimulus);
        assert_eq!(golden, mapped, "sequential behaviour must survive synthesis");
    }

    #[test]
    fn counter_counts() {
        // sanity of the fixture itself: with enable high it counts 00,
        // 01, 10, 11, 00 ... (b0 is the low bit)
        let seq = counter_blif();
        let out = seq.simulate(&vec![vec![true]; 5]);
        assert_eq!(
            out,
            vec![
                vec![false, false],
                vec![true, false],
                vec![false, true],
                vec![true, true],
                vec![false, false],
            ]
        );
    }

    #[test]
    fn min_period_grows_with_logic_depth() {
        // a deeper next-state function must not decrease the min period
        let shallow = counter_blif();
        let opts = FlowOptions::default();
        let r1 = sequential_flow(&shallow, 0.0, &opts).unwrap();
        assert!(r1.min_clock_period >= opts.lib.cell(opts.lib.dff().unwrap()).setup);
    }

    #[test]
    fn combinational_only_library_is_a_typed_error() {
        // strip every sequential master out of the standard library
        let mut lib = Library::new("comb-only");
        for c in corelib018().cells().iter().filter(|c| !c.sequential) {
            lib.push(c.clone());
        }
        assert!(lib.dff().is_none(), "fixture must have no DFF");
        let seq = counter_blif();
        let opts = FlowOptions { lib, ..Default::default() };
        let e = sequential_flow(&seq, 0.1, &opts).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Seq, FlowErrorKind::MissingSeqMaster));
        assert!(e.detail.contains("comb-only"), "error names the library: {e}");
        assert!(e.detail.contains("2 latches"));
        // a combinational design sails through without needing a DFF
        let comb = SeqNetwork::combinational(counter_blif().core);
        assert!(sequential_flow(&comb, 0.0, &opts).is_ok());
    }

    #[test]
    fn inconsistent_latch_wiring_is_a_typed_error() {
        let mut seq = counter_blif();
        seq.num_real_inputs = 99; // claim more real inputs than exist
        let e = sequential_flow(&seq, 0.0, &FlowOptions::default()).unwrap_err();
        assert_eq!((e.stage, e.kind), (Stage::Seq, FlowErrorKind::BadInput));
        assert!(e.detail.contains("inconsistent sequential network"));
    }
}
