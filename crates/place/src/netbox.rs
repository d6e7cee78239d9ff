//! Net bounding boxes for the k-way placer, cached and updated on commit.
//!
//! Every refinement stage of [`crate::kway`] scores a candidate by the
//! half-perimeter of the nets it touches. [`scan`] is the one place in the
//! crate that walks a net's pins for a box; [`NetBoxes`] keeps, under a
//! position vector it owns for the duration of a stage,
//!
//! * per net, its HPWL plus a *version* bumped whenever a pin of the net
//!   moves, and
//! * per `(cell, net)` incidence, the net's box *without that cell*,
//!   stamped with the net version it was scanned under.
//!
//! A probe ("what would this net measure with the cell over there") is
//! then `box_without_cell ∪ {target}` — four min/max and three adds, no
//! pin walk — and only an incidence whose stamp has fallen behind its
//! net's version rescans.
//!
//! # Exactness
//!
//! The cache changes how often boxes are *computed*, never their value:
//! `min`/`max` are exact and order-independent, so a box assembled as
//! `(pins without c) ∪ {p}` has the same four coordinates as one scanned
//! over all pins with `c` at `p`; every HPWL is formed as
//! `(hi_x − lo_x) + (hi_y − lo_y)` from those four values; and
//! [`NetBoxes::swap_gain`] / [`NetBoxes::move_delta`] add the per-net
//! terms in `nets_of_cell` order (a net listed twice counts twice).
//! Placements are therefore bit-identical to a full rescan per probe.
//! (`min`/`max` may pick either of `-0.0`/`+0.0`; that can flip the sign
//! of a zero term, which no sum or `>` comparison here can observe.)

use crate::instance::{PinRef, PlaceInstance, PlaceNet};
use casyn_netlist::Point;

/// Bounding box of a set of pin positions; [`NetBox::EMPTY`] for no pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NetBox {
    lo_x: f64,
    hi_x: f64,
    lo_y: f64,
    hi_y: f64,
}

impl NetBox {
    pub(crate) const EMPTY: NetBox = NetBox {
        lo_x: f64::INFINITY,
        hi_x: f64::NEG_INFINITY,
        lo_y: f64::INFINITY,
        hi_y: f64::NEG_INFINITY,
    };

    pub(crate) fn is_empty(&self) -> bool {
        self.lo_x > self.hi_x
    }

    /// The box grown to contain `p`.
    pub(crate) fn with(self, p: Point) -> NetBox {
        NetBox {
            lo_x: self.lo_x.min(p.x),
            hi_x: self.hi_x.max(p.x),
            lo_y: self.lo_y.min(p.y),
            hi_y: self.hi_y.max(p.y),
        }
    }

    /// Half-perimeter of the box; 0 when empty.
    pub(crate) fn hpwl(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.hi_x - self.lo_x) + (self.hi_y - self.lo_y)
    }
}

/// Box of `net`'s pins, every pin of cell `skip` left out, with movable
/// cell `o` at `pos_of(o)`.
pub(crate) fn scan(net: &PlaceNet, skip: Option<usize>, pos_of: impl Fn(usize) -> Point) -> NetBox {
    let mut b = NetBox::EMPTY;
    for pin in &net.pins {
        let p = match pin {
            PinRef::Cell(o) if Some(*o) == skip => continue,
            PinRef::Cell(o) => pos_of(*o),
            PinRef::Fixed(p) => *p,
        };
        b = b.with(p);
    }
    b
}

/// Stamp of an incidence entry that must rescan; net versions start at 1.
const STALE: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct NetState {
    hpwl: f64,
    version: u32,
}

/// The net's box without the incidence's cell, valid while `stamp` equals
/// the net's version.
#[derive(Debug, Clone, Copy)]
struct Incidence {
    without: NetBox,
    stamp: u32,
}

/// Cached net boxes over a position vector. All moves go through
/// [`NetBoxes::commit_swap`] / [`NetBoxes::commit_move`], which keep three
/// invariants:
///
/// 1. `nets[n].hpwl` is the half-perimeter of net `n`'s box under `pos`;
/// 2. an incidence `(c, n)` whose stamp equals `nets[n].version` holds the
///    box of `n` without `c` under `pos`;
/// 3. `nets[n].version` grows whenever a pin of `n` moves, so every other
///    cell's entry on `n` goes stale. The mover's own entry does not
///    depend on the mover and is restamped instead.
///
/// A swap of two cells that share a net leaves that net's pin multiset —
/// hence its HPWL and every third cell's entry — unchanged; only
/// the two swapped cells' entries on it are marked stale.
pub(crate) struct NetBoxes<'a> {
    inst: &'a PlaceInstance,
    nets_of_cell: &'a [Vec<usize>],
    pos: &'a mut [Point],
    nets: Vec<NetState>,
    /// Incidence `inc_start[c] + k` belongs to `nets_of_cell[c][k]`.
    inc_start: Vec<usize>,
    incidences: Vec<Incidence>,
    rescans: u64,
}

impl<'a> NetBoxes<'a> {
    /// Scans every net once under `pos`; incidence entries fill lazily.
    pub(crate) fn new(
        inst: &'a PlaceInstance,
        nets_of_cell: &'a [Vec<usize>],
        pos: &'a mut [Point],
    ) -> Self {
        let nets = inst
            .nets
            .iter()
            .map(|net| NetState { hpwl: scan(net, None, |o| pos[o]).hpwl(), version: 1 })
            .collect();
        let mut inc_start = Vec::with_capacity(nets_of_cell.len());
        let mut total = 0usize;
        for nets in nets_of_cell {
            inc_start.push(total);
            total += nets.len();
        }
        let incidences = vec![Incidence { without: NetBox::EMPTY, stamp: STALE }; total];
        NetBoxes { inst, nets_of_cell, pos, nets, inc_start, incidences, rescans: 0 }
    }

    /// The positions, as moved by the commits so far.
    pub(crate) fn pos(&self) -> &[Point] {
        self.pos
    }

    /// Pin walks made to refresh stale incidence entries so far.
    pub(crate) fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Box of net `nets_of_cell[c][k]` without cell `c`.
    fn without(&mut self, c: usize, k: usize) -> NetBox {
        let ni = self.nets_of_cell[c][k];
        let version = self.nets[ni].version;
        let entry = &mut self.incidences[self.inc_start[c] + k];
        if entry.stamp != version {
            let pos = &*self.pos;
            *entry = Incidence {
                without: scan(&self.inst.nets[ni], Some(c), |o| pos[o]),
                stamp: version,
            };
            self.rescans += 1;
        }
        entry.without
    }

    /// HPWL saved by exchanging the positions of cells `a` and `b`: the
    /// summed HPWL of `a`'s nets, then of `b`'s nets not already counted,
    /// before the swap minus the same sum after it.
    pub(crate) fn swap_gain(&mut self, a: usize, b: usize) -> f64 {
        let nets_of_cell = self.nets_of_cell;
        let (pa, pb) = (self.pos[a], self.pos[b]);
        let (mut before, mut after) = (0.0, 0.0);
        for (k, &ni) in nets_of_cell[a].iter().enumerate() {
            let h = self.nets[ni].hpwl;
            before += h;
            after +=
                if nets_of_cell[b].contains(&ni) { h } else { self.without(a, k).with(pb).hpwl() };
        }
        for (k, &ni) in nets_of_cell[b].iter().enumerate() {
            if nets_of_cell[a].contains(&ni) {
                continue;
            }
            before += self.nets[ni].hpwl;
            after += self.without(b, k).with(pa).hpwl();
        }
        before - after
    }

    /// Exchanges the positions of cells `a` and `b`.
    pub(crate) fn commit_swap(&mut self, a: usize, b: usize) {
        let nets_of_cell = self.nets_of_cell;
        let (pa, pb) = (self.pos[a], self.pos[b]);
        for (mover, other, target) in [(a, b, pb), (b, a, pa)] {
            for (k, &ni) in nets_of_cell[mover].iter().enumerate() {
                if nets_of_cell[other].contains(&ni) {
                    self.incidences[self.inc_start[mover] + k].stamp = STALE;
                } else {
                    self.move_on_net(mover, k, target);
                }
            }
        }
        self.pos.swap(a, b);
        debug_assert!(self.sample_is_fresh(a) && self.sample_is_fresh(b));
    }

    /// HPWL change of moving cell `c` to `q` with every other pin frozen;
    /// nets whose only pins are `c`'s do not count.
    pub(crate) fn move_delta(&mut self, c: usize, q: Point) -> f64 {
        let p = self.pos[c];
        let mut delta = 0.0;
        for k in 0..self.nets_of_cell[c].len() {
            let w = self.without(c, k);
            if w.is_empty() {
                continue;
            }
            delta += w.with(q).hpwl() - w.with(p).hpwl();
        }
        delta
    }

    /// Moves cell `c` to `q`.
    pub(crate) fn commit_move(&mut self, c: usize, q: Point) {
        for k in 0..self.nets_of_cell[c].len() {
            self.move_on_net(c, k, q);
        }
        self.pos[c] = q;
        debug_assert!(self.sample_is_fresh(c));
    }

    /// Re-boxes net `nets_of_cell[c][k]` for `c` landing on `target`; no
    /// other pin of that net may have moved since the last commit.
    fn move_on_net(&mut self, c: usize, k: usize, target: Point) {
        let hpwl = self.without(c, k).with(target).hpwl();
        let net = &mut self.nets[self.nets_of_cell[c][k]];
        *net = NetState { hpwl, version: net.version + 1 };
        self.incidences[self.inc_start[c] + k].stamp = net.version;
    }

    /// Debug cross-check after a commit that moved `c`: on one of `c`'s
    /// nets (rotating with the commit history, so every incidence gets
    /// its turn) the cached HPWL and any fresh `without` entry must equal
    /// a fresh scan.
    fn sample_is_fresh(&self, c: usize) -> bool {
        let nets = &self.nets_of_cell[c];
        if nets.is_empty() {
            return true;
        }
        let k = self.nets[nets[0]].version as usize % nets.len();
        self.net_is_fresh(nets[k]) && self.incidence_is_fresh(c, k)
    }

    fn net_is_fresh(&self, ni: usize) -> bool {
        self.nets[ni].hpwl == scan(&self.inst.nets[ni], None, |o| self.pos[o]).hpwl()
    }

    fn incidence_is_fresh(&self, c: usize, k: usize) -> bool {
        let ni = self.nets_of_cell[c][k];
        let entry = self.incidences[self.inc_start[c] + k];
        entry.stamp != self.nets[ni].version
            || entry.without == scan(&self.inst.nets[ni], Some(c), |o| self.pos[o])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Positions on a 5 × 5 lattice, so that pins tie exactly on box edges
    /// all the time and vacating an edge is the common case.
    fn lattice_point(rng: &mut StdRng) -> Point {
        Point::new(rng.gen_range(0..5usize) as f64 * 2.5, rng.gen_range(0..5usize) as f64 * 1.25)
    }

    /// Random nets plus the corner cases: a cell twice on a net, a net
    /// whose only pins are one cell's, a single-pin net, a fixed-only net,
    /// and one net over every cell (most of its pins sit on its edges).
    fn instance(rng: &mut StdRng, cells: usize) -> PlaceInstance {
        let mut nets = vec![
            PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Cell(0)] },
            PlaceNet { pins: vec![PinRef::Cell(1)] },
            PlaceNet { pins: vec![PinRef::Cell(2), PinRef::Cell(3), PinRef::Cell(2)] },
            PlaceNet {
                pins: vec![PinRef::Fixed(lattice_point(rng)), PinRef::Fixed(lattice_point(rng))],
            },
            PlaceNet { pins: (0..cells).map(PinRef::Cell).collect() },
        ];
        for _ in 0..3 * cells {
            let pins = (0..rng.gen_range(2..7usize))
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        PinRef::Fixed(lattice_point(rng))
                    } else {
                        PinRef::Cell(rng.gen_range(0..cells))
                    }
                })
                .collect();
            nets.push(PlaceNet { pins });
        }
        PlaceInstance { cell_width: vec![1.92; cells], nets }
    }

    /// Summed HPWL of `a`'s nets and of `b`'s nets not among them, every
    /// net scanned in full: what `swap_gain` must reproduce bit for bit.
    fn pair_cost(
        inst: &PlaceInstance,
        nets_of_cell: &[Vec<usize>],
        a: usize,
        b: usize,
        pos: &[Point],
    ) -> f64 {
        let mut cost = 0.0;
        for &ni in &nets_of_cell[a] {
            cost += scan(&inst.nets[ni], None, |o| pos[o]).hpwl();
        }
        for &ni in nets_of_cell[b].iter().filter(|ni| !nets_of_cell[a].contains(ni)) {
            cost += scan(&inst.nets[ni], None, |o| pos[o]).hpwl();
        }
        cost
    }

    fn assert_all_fresh(boxes: &NetBoxes, shadow: &[Point], step: usize) {
        assert_eq!(boxes.pos(), shadow, "step {step}: positions");
        for ni in 0..boxes.nets.len() {
            assert!(boxes.net_is_fresh(ni), "step {step}: net {ni} HPWL is stale");
        }
        for (c, nets) in boxes.nets_of_cell.iter().enumerate() {
            for k in 0..nets.len() {
                assert!(boxes.incidence_is_fresh(c, k), "step {step}: entry ({c}, {k}) is wrong");
            }
        }
    }

    #[test]
    fn random_commit_sequences_match_full_scans() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cells = 6 + seed as usize * 3;
            let inst = instance(&mut rng, cells);
            let nets_of_cell = inst.nets_of_cells();
            let mut pos: Vec<Point> = (0..cells).map(|_| lattice_point(&mut rng)).collect();
            let mut shadow = pos.clone();
            let mut boxes = NetBoxes::new(&inst, &nets_of_cell, &mut pos);
            assert_all_fresh(&boxes, &shadow, 0);
            for step in 1..=600 {
                if rng.gen_bool(0.5) {
                    let (a, b) = (rng.gen_range(0..cells), rng.gen_range(0..cells));
                    if a == b {
                        continue;
                    }
                    let before = pair_cost(&inst, &nets_of_cell, a, b, &shadow);
                    shadow.swap(a, b);
                    let after = pair_cost(&inst, &nets_of_cell, a, b, &shadow);
                    let gain = boxes.swap_gain(a, b);
                    assert_eq!(gain.to_bits(), (before - after).to_bits(), "step {step}: swap");
                    if rng.gen_bool(0.4) {
                        boxes.commit_swap(a, b);
                    } else {
                        shadow.swap(a, b);
                    }
                } else {
                    let (c, q) = (rng.gen_range(0..cells), lattice_point(&mut rng));
                    let mut delta = 0.0;
                    for &ni in &nets_of_cell[c] {
                        let rest = scan(&inst.nets[ni], Some(c), |o| shadow[o]);
                        if !rest.is_empty() {
                            delta += rest.with(q).hpwl() - rest.with(shadow[c]).hpwl();
                        }
                    }
                    assert_eq!(boxes.move_delta(c, q).to_bits(), delta.to_bits(), "step {step}");
                    if rng.gen_bool(0.4) {
                        boxes.commit_move(c, q);
                        shadow[c] = q;
                    }
                }
                assert_all_fresh(&boxes, &shadow, step);
            }
            assert!(boxes.rescans() > 0);
        }
    }

    #[test]
    fn a_swap_on_a_shared_net_keeps_third_party_entries() {
        // cells 0 and 1 share the net with cell 2: swapping them must not
        // make cell 2 rescan, but must make 0 and 1 see each other move
        let inst = PlaceInstance {
            cell_width: vec![1.92; 3],
            nets: vec![PlaceNet { pins: vec![PinRef::Cell(0), PinRef::Cell(1), PinRef::Cell(2)] }],
        };
        let nets_of_cell = inst.nets_of_cells();
        let mut pos = vec![Point::new(0.0, 0.0), Point::new(4.0, 1.0), Point::new(2.0, 3.0)];
        let mut boxes = NetBoxes::new(&inst, &nets_of_cell, &mut pos);
        let far = Point::new(9.0, 9.0);
        for c in 0..3 {
            boxes.move_delta(c, far);
        }
        assert_eq!(boxes.rescans(), 3);
        assert_eq!(boxes.swap_gain(0, 1), 0.0);
        boxes.commit_swap(0, 1);
        boxes.move_delta(2, far);
        assert_eq!(boxes.rescans(), 3, "the third cell's entry survived the swap");
        // without cell 0 the box spans cell 1 (now at the origin) and cell 2
        assert_eq!(boxes.move_delta(0, Point::new(1.0, 1.0)), (2.0 + 3.0) - (4.0 + 3.0));
        assert_eq!(boxes.rescans(), 4);
    }

    #[test]
    fn empty_and_degenerate_boxes() {
        assert!(NetBox::EMPTY.is_empty());
        assert_eq!(NetBox::EMPTY.hpwl(), 0.0);
        let one = NetBox::EMPTY.with(Point::new(3.0, 4.0));
        assert!(!one.is_empty());
        assert_eq!(one.hpwl(), 0.0);
        assert_eq!(scan(&PlaceNet::default(), None, |_| unreachable!()), NetBox::EMPTY);
    }
}
