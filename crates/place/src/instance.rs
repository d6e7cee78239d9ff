//! The placement hypergraph and builders from the two netlist forms.

use crate::image::Floorplan;
use casyn_netlist::mapped::{MappedNetlist, SignalRef};
use casyn_netlist::subject::{BaseKind, SubjectGraph};
use casyn_netlist::Point;

/// Nominal width, in micrometres, of one technology-independent base gate
/// on the layout image (3 sites of 0.64 µm).
pub const BASE_GATE_WIDTH: f64 = 1.92;

/// One pin of a placement net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PinRef {
    /// A movable cell, by index.
    Cell(usize),
    /// A fixed terminal (I/O port) at the given position.
    Fixed(Point),
}

/// A placement net: a set of pins to be kept close.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlaceNet {
    /// The pins of the net.
    pub pins: Vec<PinRef>,
}

/// A placement problem: movable cells with widths, connected by nets.
#[derive(Debug, Clone, Default)]
pub struct PlaceInstance {
    /// Width of each movable cell in micrometres.
    pub cell_width: Vec<f64>,
    /// The nets.
    pub nets: Vec<PlaceNet>,
}

impl PlaceInstance {
    /// Number of movable cells.
    pub fn num_cells(&self) -> usize {
        self.cell_width.len()
    }

    /// Total movable cell width.
    pub fn total_width(&self) -> f64 {
        self.cell_width.iter().sum()
    }

    /// Per-cell adjacency: the nets touching each cell.
    pub fn nets_of_cells(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.cell_width.len()];
        for (ni, net) in self.nets.iter().enumerate() {
            for pin in &net.pins {
                if let PinRef::Cell(c) = pin {
                    out[*c].push(ni);
                }
            }
        }
        out
    }
}

/// Every cell's nets with their pins in flat arrays: the adjacency that
/// the k-way placer's sweeps walk, built once per instance. Cell `c`'s
/// incidences are its nets in [`PlaceInstance::nets_of_cells`] order (a
/// net once per pin of `c` on it), and each net's pins are stored once,
/// in net order, `c`'s own included. A walk over [`CellPins::of_cell`]
/// therefore visits pins in exactly the order of the nested
/// `nets_of_cells` / `PlaceNet::pins` loops it replaces, so every sum over
/// it rounds the same way.
#[derive(Debug, Clone)]
pub(crate) struct CellPins {
    cells: usize,
    /// Cell `c`'s incidences are `cell_start[c]..cell_start[c + 1]`.
    cell_start: Vec<u32>,
    /// Each incidence's net.
    net: Vec<u32>,
    /// Net `n`'s pins are `pins[net_start[n]..net_start[n + 1]]`.
    net_start: Vec<u32>,
    /// A pin `p < cells` is movable cell `p`, any other the fixed
    /// terminal `fixed[p - cells]`.
    pins: Vec<u32>,
    fixed: Vec<Point>,
}

fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("placement instances stay below 2^32 pins")
}

/// Per cell, the range of its incidences, and per incidence its net, in
/// [`PlaceInstance::nets_of_cells`] order.
pub(crate) fn incidence_lists(inst: &PlaceInstance) -> (Vec<u32>, Vec<u32>) {
    let mut cell_start = vec![0u32; inst.num_cells() + 1];
    for net in &inst.nets {
        for pin in &net.pins {
            if let PinRef::Cell(c) = pin {
                cell_start[c + 1] += 1;
            }
        }
    }
    for c in 0..inst.num_cells() {
        cell_start[c + 1] += cell_start[c];
    }
    let mut fill: Vec<u32> = cell_start[..inst.num_cells()].to_vec();
    let mut net = vec![0u32; cell_start[inst.num_cells()] as usize];
    for (ni, n) in inst.nets.iter().enumerate() {
        for pin in &n.pins {
            if let PinRef::Cell(c) = pin {
                net[fill[*c] as usize] = to_u32(ni);
                fill[*c] += 1;
            }
        }
    }
    (cell_start, net)
}

impl CellPins {
    pub(crate) fn new(inst: &PlaceInstance) -> Self {
        let cells = inst.num_cells();
        let mut fixed = Vec::new();
        let mut net_start = Vec::with_capacity(inst.nets.len() + 1);
        let mut pins = Vec::new();
        for net in &inst.nets {
            net_start.push(to_u32(pins.len()));
            for pin in &net.pins {
                pins.push(match pin {
                    PinRef::Cell(c) => to_u32(*c),
                    PinRef::Fixed(p) => {
                        fixed.push(*p);
                        to_u32(cells + fixed.len() - 1)
                    }
                });
            }
        }
        net_start.push(to_u32(pins.len()));
        let (cell_start, net) = incidence_lists(inst);
        CellPins { cells, cell_start, net, net_start, pins, fixed }
    }

    /// Cell `c`'s incidences.
    pub(crate) fn incidences(&self, c: usize) -> std::ops::Range<usize> {
        self.cell_start[c] as usize..self.cell_start[c + 1] as usize
    }

    /// The pins of incidence `i`'s net, in net order.
    pub(crate) fn of_incidence(&self, i: usize) -> impl Iterator<Item = PinRef> + '_ {
        let n = self.net[i] as usize;
        self.pins[self.net_start[n] as usize..self.net_start[n + 1] as usize].iter().map(|&p| {
            match (p as usize).checked_sub(self.cells) {
                None => PinRef::Cell(p as usize),
                Some(f) => PinRef::Fixed(self.fixed[f]),
            }
        })
    }

    /// The pins of all of cell `c`'s nets, net after net.
    pub(crate) fn of_cell(&self, c: usize) -> impl Iterator<Item = PinRef> + '_ {
        self.incidences(c).flat_map(|i| self.of_incidence(i))
    }
}

/// A placement instance built from a subject graph, with the bookkeeping
/// to translate cell positions back to graph vertices.
#[derive(Debug, Clone)]
pub struct SubjectInstance {
    /// The placement problem (one movable cell per base gate).
    pub instance: PlaceInstance,
    /// For each subject vertex, its movable-cell index (`None` for primary
    /// inputs, which are fixed ports).
    pub cell_of_vertex: Vec<Option<usize>>,
    /// For each subject vertex, its fixed port position (inputs only).
    pub fixed_of_vertex: Vec<Option<Point>>,
}

/// Builds the placement problem of a subject graph on `fp`: every base
/// gate is a movable cell of uniform width; primary inputs and outputs are
/// fixed peripheral ports; one net per driven signal.
pub fn from_subject(graph: &SubjectGraph, fp: &Floorplan) -> SubjectInstance {
    let (pi_pos, po_pos) = fp.assign_ports(graph.inputs().len(), graph.outputs().len());
    let mut cell_of_vertex: Vec<Option<usize>> = vec![None; graph.num_vertices()];
    let mut fixed_of_vertex: Vec<Option<Point>> = vec![None; graph.num_vertices()];
    let mut instance = PlaceInstance::default();
    for id in graph.ids() {
        if graph.kind(id) != BaseKind::Input {
            cell_of_vertex[id.index()] = Some(instance.cell_width.len());
            instance.cell_width.push(BASE_GATE_WIDTH);
        }
    }
    for ((_, id), pos) in graph.inputs().iter().zip(&pi_pos) {
        fixed_of_vertex[id.index()] = Some(*pos);
    }
    // one net per driver with fanout
    let fanout = graph.fanout_lists();
    let mut po_pins: Vec<Vec<Point>> = vec![Vec::new(); graph.num_vertices()];
    for ((_, id), pos) in graph.outputs().iter().zip(&po_pos) {
        po_pins[id.index()].push(*pos);
    }
    for id in graph.ids() {
        let sinks = &fanout[id.index()];
        let pos_pins = &po_pins[id.index()];
        if sinks.is_empty() && pos_pins.is_empty() {
            continue;
        }
        let mut net = PlaceNet::default();
        match cell_of_vertex[id.index()] {
            Some(c) => net.pins.push(PinRef::Cell(c)),
            None => {
                net.pins.push(PinRef::Fixed(fixed_of_vertex[id.index()].expect("input has port")))
            }
        }
        for s in sinks {
            net.pins.push(PinRef::Cell(cell_of_vertex[s.index()].expect("sink is a gate")));
        }
        for p in pos_pins {
            net.pins.push(PinRef::Fixed(*p));
        }
        instance.nets.push(net);
    }
    SubjectInstance { instance, cell_of_vertex, fixed_of_vertex }
}

/// Builds the placement problem of a mapped netlist. Port positions must
/// already be assigned on the netlist (see
/// [`assign_mapped_ports`]); cells keep their index.
pub fn from_mapped(nl: &MappedNetlist) -> PlaceInstance {
    let mut instance = PlaceInstance {
        cell_width: nl.cells().iter().map(|c| c.width).collect(),
        nets: Vec::new(),
    };
    for net in nl.nets() {
        let mut pn = PlaceNet::default();
        match net.driver {
            SignalRef::Cell(c) => pn.pins.push(PinRef::Cell(c as usize)),
            SignalRef::Pi(i) => pn.pins.push(PinRef::Fixed(nl.input_pos(i))),
        }
        for (c, _) in &net.sinks {
            pn.pins.push(PinRef::Cell(*c as usize));
        }
        for o in &net.po_sinks {
            pn.pins.push(PinRef::Fixed(nl.output_pos(*o)));
        }
        if pn.pins.len() >= 2 {
            instance.nets.push(pn);
        }
    }
    instance
}

/// Assigns peripheral port positions to a mapped netlist from the
/// floorplan (inputs left, outputs right), mirroring
/// [`Floorplan::assign_ports`].
pub fn assign_mapped_ports(nl: &mut MappedNetlist, fp: &Floorplan) {
    let (pi_pos, po_pos) = fp.assign_ports(nl.input_names().len(), nl.outputs().len());
    for (i, p) in pi_pos.iter().enumerate() {
        nl.set_input_pos(i as u32, *p);
    }
    for (o, p) in po_pos.iter().enumerate() {
        nl.set_output_pos(o as u32, *p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_netlist::mapped::MappedCell;

    fn tiny_graph() -> SubjectGraph {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i = g.add_inv(n);
        g.add_output("y", i);
        g
    }

    #[test]
    fn subject_instance_shape() {
        let g = tiny_graph();
        let fp = Floorplan::with_rows_and_area(4, 4.0 * 6.4 * 40.0);
        let s = from_subject(&g, &fp);
        assert_eq!(s.instance.num_cells(), 2); // nand + inv
                                               // nets: a->nand, b->nand, nand->inv, inv->PO
        assert_eq!(s.instance.nets.len(), 4);
        // input nets have a fixed driver pin
        let fixed_driver_nets =
            s.instance.nets.iter().filter(|n| matches!(n.pins[0], PinRef::Fixed(_))).count();
        assert_eq!(fixed_driver_nets, 2);
        assert!((s.instance.total_width() - 2.0 * BASE_GATE_WIDTH).abs() < 1e-9);
    }

    #[test]
    fn dangling_gates_make_no_nets() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let _dead = g.add_inv(a); // no PO
        let fp = Floorplan::with_rows_and_area(2, 1000.0);
        let s = from_subject(&g, &fp);
        // one net: a -> inv; the inv output drives nothing
        assert_eq!(s.instance.nets.len(), 1);
    }

    #[test]
    fn mapped_instance_from_netlist() {
        let mut nl = MappedNetlist::new();
        let a = nl.add_input("a");
        let c = nl.add_cell(MappedCell {
            lib_cell: 0,
            name: "IV".into(),
            inputs: vec![a],
            area: 8.192,
            width: 1.28,
            pos: Point::default(),
            source_tree: None,
        });
        nl.add_output("y", c);
        let fp = Floorplan::with_rows_and_area(2, 1000.0);
        assign_mapped_ports(&mut nl, &fp);
        let inst = from_mapped(&nl);
        assert_eq!(inst.num_cells(), 1);
        assert_eq!(inst.nets.len(), 2); // a->cell, cell->PO
        assert_eq!(nl.input_pos(0).x, 0.0);
        assert!((nl.output_pos(0).x - fp.die_width).abs() < 1e-9);
    }

    #[test]
    fn nets_of_cells_adjacency() {
        let g = tiny_graph();
        let fp = Floorplan::with_rows_and_area(4, 1000.0);
        let s = from_subject(&g, &fp);
        let adj = s.instance.nets_of_cells();
        assert_eq!(adj.len(), 2);
        // the NAND cell touches nets a, b and nand->inv
        assert_eq!(adj[0].len(), 3);
        // the INV touches nand->inv and inv->PO
        assert_eq!(adj[1].len(), 2);
    }

    #[test]
    fn cell_pins_walk_the_nested_adjacency_in_order() {
        // a cell twice on one net, a fixed-only net, a single-pin net
        let f = |x: f64| PinRef::Fixed(Point::new(x, 1.0));
        let inst = PlaceInstance {
            cell_width: vec![1.92; 3],
            nets: vec![
                PlaceNet { pins: vec![PinRef::Cell(0), f(2.0), PinRef::Cell(2), PinRef::Cell(0)] },
                PlaceNet { pins: vec![f(3.0), f(4.0)] },
                PlaceNet { pins: vec![PinRef::Cell(1)] },
                PlaceNet { pins: vec![PinRef::Cell(2), PinRef::Cell(1), f(5.0)] },
            ],
        };
        let pins = CellPins::new(&inst);
        for (c, nets) in inst.nets_of_cells().iter().enumerate() {
            assert_eq!(pins.incidences(c).len(), nets.len(), "cell {c}: nets");
            for (i, &ni) in pins.incidences(c).zip(nets) {
                assert_eq!(pins.of_incidence(i).collect::<Vec<_>>(), inst.nets[ni].pins);
            }
            let nested: Vec<PinRef> =
                nets.iter().flat_map(|&ni| inst.nets[ni].pins.iter().copied()).collect();
            assert_eq!(pins.of_cell(c).collect::<Vec<_>>(), nested, "cell {c}: pins");
        }
    }
}
