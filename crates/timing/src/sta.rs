//! Levelized arrival-time propagation and critical-path extraction.

use crate::model::TimingConfig;
use casyn_library::Library;
use casyn_netlist::mapped::{MappedNetlist, SignalRef};
use casyn_obs as obs;
use std::fmt;

/// One point on a reported path.
#[derive(Debug, Clone, PartialEq)]
pub enum PathPoint {
    /// A primary input, by name.
    Input(String),
    /// A cell instance: `(index, master name)`.
    Cell(u32, String),
    /// A primary output, by name.
    Output(String),
}

impl fmt::Display for PathPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathPoint::Input(n) => write!(f, "{n}(in)"),
            PathPoint::Cell(i, n) => write!(f, "u{i}:{n}"),
            PathPoint::Output(n) => write!(f, "{n}(out)"),
        }
    }
}

/// The result of static timing analysis.
#[derive(Debug, Clone)]
pub struct StaResult {
    /// Arrival time at every primary output, in netlist order (ns).
    pub po_arrival: Vec<f64>,
    /// Arrival time at every cell output (ns).
    pub cell_arrival: Vec<f64>,
    /// Index of the latest primary output.
    pub critical_po: usize,
    /// The critical path from a primary input to `critical_po`.
    pub critical_path: Vec<PathPoint>,
    /// For every *sequential* cell (flip-flop): the data arrival at its D
    /// pin plus its setup requirement — the clock period this register
    /// path demands. Empty for purely combinational designs.
    pub reg_setup_arrival: Vec<f64>,
}

impl StaResult {
    /// The critical-path arrival time (ns).
    pub fn critical_arrival(&self) -> f64 {
        self.po_arrival[self.critical_po]
    }

    /// The launching input and capturing output of the critical path, in
    /// the paper's report style ("iJ0J(in) oJ23J(out)").
    pub fn critical_endpoints(&self) -> String {
        let start = self.critical_path.first().map_or_else(|| "?".to_string(), |p| p.to_string());
        let end = self.critical_path.last().map_or_else(|| "?".to_string(), |p| p.to_string());
        format!("{start} {end}")
    }

    /// Arrival at a named primary output (the "same path as K = 0"
    /// comparison of Tables 3/5 compares the capture endpoint across
    /// netlists).
    pub fn arrival_of_output(&self, nl: &MappedNetlist, name: &str) -> Option<f64> {
        nl.outputs().iter().position(|(n, _)| n == name).map(|i| self.po_arrival[i])
    }

    /// The minimum clock period the design supports: the worst of every
    /// register setup path and every primary-output path. Flip-flop
    /// outputs launch at their clock-to-Q delay, so register-to-register
    /// paths are fully covered.
    pub fn min_clock_period(&self) -> f64 {
        let reg = self.reg_setup_arrival.iter().copied().fold(0.0f64, f64::max);
        let po = self.po_arrival.iter().copied().fold(0.0f64, f64::max);
        reg.max(po)
    }
}

/// Runs STA on a placed mapped netlist. Net lengths come from the star
/// (driver-to-sink Manhattan) model over the current cell/port positions,
/// so the analysis reflects the placement the router saw.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle or references a
/// cell master missing from `lib`.
///
/// # Example
///
/// ```
/// use casyn_library::corelib018;
/// use casyn_netlist::mapped::{MappedCell, MappedNetlist};
/// use casyn_netlist::Point;
/// use casyn_timing::{analyze, TimingConfig};
///
/// let lib = corelib018();
/// let iv = lib.find("IV").unwrap();
/// let master = lib.cell(iv);
/// let mut nl = MappedNetlist::new();
/// let a = nl.add_input("a");
/// let y = nl.add_cell(MappedCell {
///     lib_cell: iv,
///     name: master.name.clone(),
///     inputs: vec![a],
///     area: master.area,
///     width: master.width,
///     pos: Point::new(50.0, 0.0),
///     source_tree: None,
/// });
/// nl.add_output("y", y);
/// let sta = analyze(&nl, &lib, &TimingConfig::default());
/// assert!(sta.critical_arrival() > 0.0);
/// ```
pub fn analyze(nl: &MappedNetlist, lib: &Library, cfg: &TimingConfig) -> StaResult {
    analyze_inner(nl, lib, cfg, None)
}

/// STA with measured routed net lengths (one per net, in
/// [`MappedNetlist::nets`] order — the router's
/// `RouteResult::net_wirelength`). Each net's capacitive load uses its
/// routed length, and every driver-to-sink Elmore distance is scaled by
/// that net's own detour ratio, so congested nets pay their meandering
/// individually.
///
/// # Panics
///
/// Panics on a combinational cycle, a missing master, or when
/// `routed_lengths.len()` differs from the net count.
pub fn analyze_routed(
    nl: &MappedNetlist,
    lib: &Library,
    cfg: &TimingConfig,
    routed_lengths: &[f64],
) -> StaResult {
    analyze_inner(nl, lib, cfg, Some(routed_lengths))
}

fn analyze_inner(
    nl: &MappedNetlist,
    lib: &Library,
    cfg: &TimingConfig,
    routed_lengths: Option<&[f64]>,
) -> StaResult {
    let n = nl.num_cells();
    // sequential cells launch fresh paths, so their input edges are cut
    // from the timing graph (this also breaks register loops)
    let order = nl.topological_order_cut(|c| lib.cell(nl.cells()[c].lib_cell).sequential);
    // per-driver total net length (star model) and sink pin capacitance
    let nets = nl.nets();
    if let Some(rl) = routed_lengths {
        assert_eq!(rl.len(), nets.len(), "one routed length per net required");
    }
    let mut net_len = vec![0.0f64; n];
    let mut net_pin_cap = vec![0.0f64; n];
    // per-driver detour ratio: routed length / star length (>= 1)
    let mut net_detour = vec![1.0f64; n];
    let mut pi_net_len = vec![0.0f64; nl.input_names().len()];
    let mut pi_net_cap = vec![0.0f64; nl.input_names().len()];
    let mut pi_detour = vec![1.0f64; nl.input_names().len()];
    for (ni, net) in nets.iter().enumerate() {
        let dpos = nl.signal_pos(net.driver);
        let mut len = 0.0;
        let mut cap = 0.0;
        for (c, _) in &net.sinks {
            let cell = &nl.cells()[*c as usize];
            len += dpos.manhattan(cell.pos);
            cap += lib.cell(cell.lib_cell).pin_cap;
        }
        for o in &net.po_sinks {
            len += dpos.manhattan(nl.output_pos(*o));
            cap += cfg.output_pin_cap;
        }
        let (eff_len, detour) = match routed_lengths {
            Some(rl) if rl[ni] > 0.0 => (rl[ni].max(len), (rl[ni] / len.max(1e-9)).max(1.0)),
            _ => (len, 1.0),
        };
        match net.driver {
            SignalRef::Cell(c) => {
                net_len[c as usize] = eff_len;
                net_pin_cap[c as usize] = cap;
                net_detour[c as usize] = detour;
            }
            SignalRef::Pi(i) => {
                pi_net_len[i as usize] = eff_len;
                pi_net_cap[i as usize] = cap;
                pi_detour[i as usize] = detour;
            }
        }
    }
    // arrival at a signal source output pin
    let mut cell_arrival = vec![0.0f64; n];
    let mut cell_crit_in: Vec<Option<SignalRef>> = vec![None; n];
    // PI "arrival" at the pad output: pad drive into its net load
    let pi_arrival: Vec<f64> = (0..nl.input_names().len())
        .map(|i| cfg.input_drive_res * cfg.net_load(pi_net_len[i], pi_net_cap[i]))
        .collect();
    let mut reg_setup_arrival: Vec<f64> = Vec::new();
    let mut arrival_propagations = 0u64;
    for ci in order {
        let cell = &nl.cells()[ci];
        let master = lib.cell(cell.lib_cell);
        let mut worst = 0.0f64;
        let mut worst_src = None;
        arrival_propagations += cell.inputs.len() as u64;
        for src in &cell.inputs {
            let src_pos = nl.signal_pos(*src);
            let detour = match src {
                SignalRef::Pi(i) => pi_detour[*i as usize],
                SignalRef::Cell(c) => net_detour[*c as usize],
            };
            let dist = src_pos.manhattan(cell.pos) * detour;
            let at = match src {
                SignalRef::Pi(i) => pi_arrival[*i as usize],
                SignalRef::Cell(c) => cell_arrival[*c as usize],
            } + cfg.wire_delay(dist, master.pin_cap);
            if worst_src.is_none() || at > worst {
                worst = at;
                worst_src = Some(*src);
            }
        }
        let load = cfg.net_load(net_len[ci], net_pin_cap[ci]);
        if master.sequential {
            // a register ends the incoming path (setup) and launches a
            // fresh one at its clock-to-Q delay
            reg_setup_arrival.push(worst + master.setup);
            cell_arrival[ci] = master.clk_to_q + master.drive_res * load;
            cell_crit_in[ci] = None;
        } else {
            cell_arrival[ci] = worst + master.intrinsic + master.drive_res * load;
            cell_crit_in[ci] = worst_src;
        }
    }
    // primary outputs
    let mut po_arrival = Vec::with_capacity(nl.outputs().len());
    for (oi, (_, src)) in nl.outputs().iter().enumerate() {
        let src_pos = nl.signal_pos(*src);
        let detour = match src {
            SignalRef::Pi(i) => pi_detour[*i as usize],
            SignalRef::Cell(c) => net_detour[*c as usize],
        };
        let dist = src_pos.manhattan(nl.output_pos(oi as u32)) * detour;
        let at = match src {
            SignalRef::Pi(i) => pi_arrival[*i as usize],
            SignalRef::Cell(c) => cell_arrival[*c as usize],
        } + cfg.wire_delay(dist, cfg.output_pin_cap);
        po_arrival.push(at);
    }
    if obs::enabled() {
        obs::counter_add("sta.arrival_propagations", arrival_propagations);
        obs::counter_add("sta.endpoints", (po_arrival.len() + reg_setup_arrival.len()) as u64);
    }
    let critical_po = po_arrival
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    // backtrack the critical path
    let mut critical_path = Vec::new();
    if !nl.outputs().is_empty() {
        let (name, mut src) = {
            let (n, s) = &nl.outputs()[critical_po];
            (n.clone(), *s)
        };
        critical_path.push(PathPoint::Output(name));
        loop {
            match src {
                SignalRef::Pi(i) => {
                    critical_path.push(PathPoint::Input(nl.input_names()[i as usize].clone()));
                    break;
                }
                SignalRef::Cell(c) => {
                    critical_path.push(PathPoint::Cell(c, nl.cells()[c as usize].name.clone()));
                    match cell_crit_in[c as usize] {
                        Some(next) => src = next,
                        None => break,
                    }
                }
            }
        }
        critical_path.reverse();
    }
    StaResult { po_arrival, cell_arrival, critical_po, critical_path, reg_setup_arrival }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_library::corelib018;
    use casyn_netlist::mapped::MappedCell;
    use casyn_netlist::Point;

    fn cell(lib: &Library, name: &str, inputs: Vec<SignalRef>, pos: Point) -> MappedCell {
        let id = lib.find(name).unwrap();
        let c = lib.cell(id);
        MappedCell {
            lib_cell: id,
            name: c.name.clone(),
            inputs,
            area: c.area,
            width: c.width,
            pos,
            source_tree: None,
        }
    }

    /// A two-inverter chain: arrival must accumulate monotonically.
    #[test]
    fn chain_arrival_monotone() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("iJ0J");
        nl.set_input_pos(0, Point::new(0.0, 0.0));
        let c0 = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(50.0, 0.0)));
        let c1 = nl.add_cell(cell(&lib, "IV", vec![c0], Point::new(100.0, 0.0)));
        nl.add_output("oJ0J", c1);
        nl.set_output_pos(0, Point::new(150.0, 0.0));
        let sta = analyze(&nl, &lib, &cfg);
        assert!(sta.cell_arrival[0] > 0.0);
        assert!(sta.cell_arrival[1] > sta.cell_arrival[0]);
        assert!(sta.critical_arrival() > sta.cell_arrival[1]);
        assert_eq!(sta.critical_endpoints(), "iJ0J(in) oJ0J(out)");
        assert_eq!(sta.critical_path.len(), 4); // in, 2 cells, out
    }

    /// Longer wires must mean later arrival (same structure).
    #[test]
    fn wirelength_increases_delay() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let build = |span: f64| {
            let mut nl = MappedNetlist::new();
            let a = nl.add_input("i");
            nl.set_input_pos(0, Point::new(0.0, 0.0));
            let c0 = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(span, 0.0)));
            nl.add_output("o", c0);
            nl.set_output_pos(0, Point::new(2.0 * span, 0.0));
            analyze(&nl, &lib, &cfg).critical_arrival()
        };
        assert!(build(500.0) > build(50.0));
    }

    /// The critical PO is the latest one.
    #[test]
    fn critical_po_is_max() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("i");
        nl.set_input_pos(0, Point::new(0.0, 0.0));
        let near = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(10.0, 0.0)));
        let far0 = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(400.0, 0.0)));
        let far1 = nl.add_cell(cell(&lib, "IV", vec![far0], Point::new(800.0, 0.0)));
        nl.add_output("near", near);
        nl.set_output_pos(0, Point::new(12.0, 0.0));
        nl.add_output("far", far1);
        nl.set_output_pos(1, Point::new(810.0, 0.0));
        let sta = analyze(&nl, &lib, &cfg);
        assert_eq!(sta.critical_po, 1);
        assert!(sta.po_arrival[1] > sta.po_arrival[0]);
        assert_eq!(sta.arrival_of_output(&nl, "near"), Some(sta.po_arrival[0]));
        assert_eq!(sta.arrival_of_output(&nl, "nope"), None);
    }

    /// Fanout load slows the driver: a cell driving 4 sinks is slower
    /// than the same cell driving 1.
    #[test]
    fn fanout_load_slows_driver() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let build = |fanout: usize| {
            let mut nl = MappedNetlist::new();
            let a = nl.add_input("i");
            nl.set_input_pos(0, Point::new(0.0, 0.0));
            let drv = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(10.0, 0.0)));
            for k in 0..fanout {
                let s = nl.add_cell(cell(&lib, "IV", vec![drv], Point::new(20.0 + k as f64, 0.0)));
                nl.add_output(format!("o{k}"), s);
                nl.set_output_pos(k as u32, Point::new(30.0, 0.0));
            }
            let sta = analyze(&nl, &lib, &cfg);
            sta.cell_arrival[0]
        };
        assert!(build(4) > build(1));
    }

    /// Routed lengths above the star estimate must slow the design;
    /// shorter-than-star routed reports are clamped to the star model.
    #[test]
    fn routed_lengths_slow_congested_nets() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("i");
        nl.set_input_pos(0, Point::new(0.0, 0.0));
        let c0 = nl.add_cell(cell(&lib, "IV", vec![a], Point::new(100.0, 0.0)));
        nl.add_output("o", c0);
        nl.set_output_pos(0, Point::new(200.0, 0.0));
        let base = analyze(&nl, &lib, &cfg);
        // nets order: Pi(0) then Cell(0)
        let nets = nl.nets();
        assert_eq!(nets.len(), 2);
        let detoured = analyze_routed(&nl, &lib, &cfg, &[400.0, 400.0]);
        assert!(detoured.critical_arrival() > base.critical_arrival());
        let clamped = analyze_routed(&nl, &lib, &cfg, &[1.0, 1.0]);
        assert!((clamped.critical_arrival() - base.critical_arrival()).abs() < 1e-9);
    }

    #[test]
    fn direct_pi_to_po_connection() {
        let lib = corelib018();
        let cfg = TimingConfig::default();
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("i");
        nl.set_input_pos(0, Point::new(0.0, 0.0));
        nl.add_output("o", a);
        nl.set_output_pos(0, Point::new(100.0, 0.0));
        let sta = analyze(&nl, &lib, &cfg);
        assert!(sta.critical_arrival() > 0.0);
        assert_eq!(sta.critical_path.len(), 2);
    }
}
