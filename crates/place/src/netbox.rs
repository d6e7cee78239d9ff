//! Net bounding boxes for the k-way placer, cached and updated on commit.
//!
//! Every refinement stage of [`crate::kway`] scores a candidate by the
//! half-perimeter of the nets it touches. [`scan`] is the one place in the
//! crate that boxes a net's pins; [`NetBoxes`] keeps, under a
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
//! terms in [`PlaceInstance::nets_of_cells`] order (a net listed twice
//! counts twice). Placements are therefore bit-identical to a full rescan
//! per probe. (`min`/`max` may pick either of `-0.0`/`+0.0`; that can
//! flip the sign of a zero term, which no sum or `>` comparison here can
//! observe.)
//!
//! [`NetBoxes::swap_bound`] bounds a swap's gain from the same entries
//! without forming it, so that the swap polish scores in full only the
//! pairs that might gain; [`NetBoxes::swap_bound_margin`] derives the
//! rounding margin that keeps every skipped pair one whose gain the full
//! score would have rejected.

use crate::instance::{incidence_lists, PinRef, PlaceInstance};
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

    /// L1 distance from `p` to the box, which is what `with(p)` adds to
    /// its half-perimeter in exact arithmetic; 0 when empty, since a lone
    /// pin spans nothing. Per axis at most one of `lo − p` and `p − hi` is
    /// positive, so the axis' distance is the larger of them and 0.
    #[inline]
    fn dist(&self, p: Point) -> f64 {
        // `a > b ? a : b` on values that are never NaN: one `maxsd`
        fn max(a: f64, b: f64) -> f64 {
            if a > b {
                a
            } else {
                b
            }
        }
        if self.is_empty() {
            return 0.0;
        }
        max(max(self.lo_x - p.x, p.x - self.hi_x), 0.0)
            + max(max(self.lo_y - p.y, p.y - self.hi_y), 0.0)
    }
}

/// Box of `pins`, every pin of cell `skip` left out, with movable cell
/// `o` at `pos_of(o)`.
pub(crate) fn scan(
    pins: impl IntoIterator<Item = PinRef>,
    skip: Option<usize>,
    pos_of: impl Fn(usize) -> Point,
) -> NetBox {
    let mut b = NetBox::EMPTY;
    for pin in pins {
        let p = match pin {
            PinRef::Cell(o) if Some(o) == skip => continue,
            PinRef::Cell(o) => pos_of(o),
            PinRef::Fixed(p) => p,
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

/// The box of net `net` without the incidence's cell, valid while `stamp`
/// equals the net's version.
#[derive(Debug, Clone, Copy)]
struct Incidence {
    without: NetBox,
    stamp: u32,
    net: u32,
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
    pos: &'a mut [Point],
    nets: Vec<NetState>,
    /// Cell `c`'s incidences are `inc_start[c]..inc_start[c + 1]`, its
    /// nets in [`PlaceInstance::nets_of_cells`] order.
    inc_start: Vec<u32>,
    incidences: Vec<Incidence>,
    rescans: u64,
}

impl<'a> NetBoxes<'a> {
    /// Scans every net once under `pos`; incidence entries fill lazily.
    pub(crate) fn new(inst: &'a PlaceInstance, pos: &'a mut [Point]) -> Self {
        let nets = inst
            .nets
            .iter()
            .map(|net| NetState {
                hpwl: scan(net.pins.iter().copied(), None, |o| pos[o]).hpwl(),
                version: 1,
            })
            .collect();
        let (inc_start, net) = incidence_lists(inst);
        let incidences = net
            .into_iter()
            .map(|net| Incidence { without: NetBox::EMPTY, stamp: STALE, net })
            .collect();
        NetBoxes { inst, pos, nets, inc_start, incidences, rescans: 0 }
    }

    /// The positions, as moved by the commits so far.
    pub(crate) fn pos(&self) -> &[Point] {
        self.pos
    }

    /// Pin walks made to refresh stale incidence entries so far.
    pub(crate) fn rescans(&self) -> u64 {
        self.rescans
    }

    /// The most incidences any one cell has.
    fn max_degree(&self) -> usize {
        self.inc_start.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Cell `c`'s incidences.
    fn inc(&self, c: usize) -> std::ops::Range<usize> {
        self.inc_start[c] as usize..self.inc_start[c + 1] as usize
    }

    fn net_of(&self, i: usize) -> usize {
        self.incidences[i].net as usize
    }

    /// Whether cell `c` is on net `ni`.
    fn on_net(&self, c: usize, ni: usize) -> bool {
        self.incidences[self.inc(c)].iter().any(|e| e.net as usize == ni)
    }

    /// Box of incidence `i`'s net without cell `c`, its owner.
    #[inline]
    fn without(&mut self, c: usize, i: usize) -> NetBox {
        let entry = self.incidences[i];
        if entry.stamp == self.nets[entry.net as usize].version {
            entry.without
        } else {
            self.rescan(c, i)
        }
    }

    /// Refreshes the stale incidence `i` of cell `c`.
    #[cold]
    #[inline(never)]
    fn rescan(&mut self, c: usize, i: usize) -> NetBox {
        let ni = self.incidences[i].net as usize;
        let pos = &*self.pos;
        let without = scan(self.inst.nets[ni].pins.iter().copied(), Some(c), |o| pos[o]);
        self.incidences[i] = Incidence { without, stamp: self.nets[ni].version, net: ni as u32 };
        self.rescans += 1;
        without
    }

    /// HPWL saved by exchanging the positions of cells `a` and `b`: the
    /// summed HPWL of `a`'s nets, then of `b`'s nets not already counted,
    /// before the swap minus the same sum after it.
    pub(crate) fn swap_gain(&mut self, a: usize, b: usize) -> f64 {
        let (pa, pb) = (self.pos[a], self.pos[b]);
        let (mut before, mut after) = (0.0, 0.0);
        for i in self.inc(a) {
            let ni = self.net_of(i);
            let h = self.nets[ni].hpwl;
            before += h;
            after += if self.on_net(b, ni) { h } else { self.without(a, i).with(pb).hpwl() };
        }
        for i in self.inc(b) {
            let ni = self.net_of(i);
            if self.on_net(a, ni) {
                continue;
            }
            before += self.nets[ni].hpwl;
            after += self.without(b, i).with(pa).hpwl();
        }
        before - after
    }

    /// Cell `c`'s position, its nets' boxes without it (refreshed where
    /// stale) into `boxes`, and `S_c`, the summed distance from the
    /// position to those boxes: the part of [`NetBoxes::swap_bound`] that
    /// depends on `c` alone.
    pub(crate) fn swap_side(&mut self, c: usize, boxes: &mut Vec<NetBox>) -> SwapSide {
        boxes.clear();
        let p = self.pos[c];
        let mut s = 0.0;
        for i in self.inc(c) {
            let w = self.without(c, i);
            s += w.dist(p);
            boxes.push(w);
        }
        SwapSide { p, s }
    }

    /// An upper bound on [`NetBoxes::swap_gain`]`(a, b)`, given `a`'s
    /// [`NetBoxes::swap_side`]:
    /// `S_a + S_b − Σ_{W∈a} d(p_b, W) − Σ_{W∈b} d(p_a, W)`, where `W` runs
    /// over a cell's net boxes without that cell and `d` is
    /// [`NetBox`]'s L1 point-to-box distance. Growing a nonempty box `W`
    /// by a point `q` adds exactly `d(q, W)` to its half-perimeter, so a
    /// net of `a` alone contributes `d(p_a, W) − d(p_b, W)` to the gain in
    /// exact arithmetic, and the bound's term is the same. A net both
    /// cells share contributes 0 to the gain (the swap keeps its pin
    /// multiset) and `d(p_a, W_a) ≥ 0` to the bound, since `W_a` holds
    /// `b`'s pin and `d(p_b, W_a) = 0`; likewise from `b`'s side. Rounding
    /// is bounded by [`NetBoxes::swap_bound_margin`].
    pub(crate) fn swap_bound(&mut self, a: &SwapSide, a_boxes: &[NetBox], b: usize) -> f64 {
        let pb = self.pos[b];
        let (mut s_b, mut to_a) = (0.0, 0.0);
        for i in self.inc(b) {
            let w = self.without(b, i);
            s_b += w.dist(pb);
            to_a += w.dist(a.p);
        }
        let to_b: f64 = a_boxes.iter().map(|w| w.dist(pb)).sum();
        (a.s + s_b) - (to_b + to_a)
    }

    /// A margin `δ` such that a pair whose computed [`NetBoxes::swap_bound`]
    /// is below `−δ` has a computed [`NetBoxes::swap_gain`] below 0, while
    /// the positions are only ever swapped.
    ///
    /// Swaps permute positions, so every pin stays in the bounding box of
    /// all pins at the stage's start, whose half-perimeter `L` therefore
    /// bounds every coordinate difference, half-perimeter and distance the
    /// two sums form. With `u = ε/2` the unit roundoff and `m ≤ M` (twice
    /// the largest cell degree) the terms of one pair:
    ///
    /// * each half-perimeter rounds two differences and their sum, so it
    ///   is off its exact value by at most `3uL`; `before` and `after`
    ///   add at most `m` such terms each, partial sums stay below `mL`,
    ///   so each sum is off by at most `3muL + m²uL`, and their difference
    ///   adds `muL`: the gain is off by at most `(2m² + 7m)uL`;
    /// * each distance keeps one rounded difference per axis (or 0) and
    ///   rounds their sum, so it is off by at most `3uL`; the bound adds
    ///   `2m` of them in four partial sums (`m_a`, `m_a`, `m_b` and `m_b`
    ///   terms, `m_a + m_b = m`), whose rounding is at most
    ///   `2(m_a² + m_b²)uL ≤ 2m²uL`, and combines them by three more
    ///   operations on values below `mL`: the bound is off by at most
    ///   `(2m² + 9m)uL`.
    ///
    /// Together that is at most `(4m² + 16m)uL`, below
    /// `8(M + 2)²uL = 4(M + 2)²εL`, the margin returned. In exact
    /// arithmetic the gain is at most the bound (see
    /// [`NetBoxes::swap_bound`]), so a computed bound below `−δ` puts the
    /// computed gain below 0 and hence below any positive acceptance
    /// threshold: skipping the pair cannot change a decision.
    pub(crate) fn swap_bound_margin(&self) -> f64 {
        let fixed = self.inst.nets.iter().flat_map(|net| &net.pins).filter_map(|pin| match pin {
            PinRef::Fixed(p) => Some(*p),
            PinRef::Cell(_) => None,
        });
        let all = self.pos.iter().copied().chain(fixed).fold(NetBox::EMPTY, NetBox::with);
        let m = 2.0 * self.max_degree() as f64;
        4.0 * (m + 2.0) * (m + 2.0) * f64::EPSILON * all.hpwl()
    }

    /// Exchanges the positions of cells `a` and `b`.
    pub(crate) fn commit_swap(&mut self, a: usize, b: usize) {
        let (pa, pb) = (self.pos[a], self.pos[b]);
        for (mover, other, target) in [(a, b, pb), (b, a, pa)] {
            for i in self.inc(mover) {
                if self.on_net(other, self.net_of(i)) {
                    self.incidences[i].stamp = STALE;
                } else {
                    self.move_on_net(mover, i, target);
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
        for i in self.inc(c) {
            let w = self.without(c, i);
            if w.is_empty() {
                continue;
            }
            delta += w.with(q).hpwl() - w.with(p).hpwl();
        }
        delta
    }

    /// Moves cell `c` to `q`.
    pub(crate) fn commit_move(&mut self, c: usize, q: Point) {
        for i in self.inc(c) {
            self.move_on_net(c, i, q);
        }
        self.pos[c] = q;
        debug_assert!(self.sample_is_fresh(c));
    }

    /// Re-boxes incidence `i`'s net for its cell `c` landing on `target`;
    /// no other pin of that net may have moved since the last commit.
    fn move_on_net(&mut self, c: usize, i: usize, target: Point) {
        let hpwl = self.without(c, i).with(target).hpwl();
        let net = &mut self.nets[self.incidences[i].net as usize];
        *net = NetState { hpwl, version: net.version + 1 };
        self.incidences[i].stamp = net.version;
    }

    /// Debug cross-check after a commit that moved `c`: on one of `c`'s
    /// nets (rotating with the commit history, so every incidence gets
    /// its turn) the cached HPWL and any fresh `without` entry must equal
    /// a fresh scan.
    fn sample_is_fresh(&self, c: usize) -> bool {
        let inc = self.inc(c);
        if inc.is_empty() {
            return true;
        }
        let i = inc.start + self.nets[self.net_of(inc.start)].version as usize % inc.len();
        self.net_is_fresh(self.net_of(i)) && self.incidence_is_fresh(c, i)
    }

    fn net_is_fresh(&self, ni: usize) -> bool {
        self.nets[ni].hpwl
            == scan(self.inst.nets[ni].pins.iter().copied(), None, |o| self.pos[o]).hpwl()
    }

    fn incidence_is_fresh(&self, c: usize, i: usize) -> bool {
        let entry = self.incidences[i];
        let net = &self.inst.nets[entry.net as usize];
        entry.stamp != self.nets[entry.net as usize].version
            || entry.without == scan(net.pins.iter().copied(), Some(c), |o| self.pos[o])
    }
}

/// One cell's side of [`NetBoxes::swap_bound`]: its position `p` and
/// `S = Σ d(p, W)` over its net boxes without it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwapSide {
    p: Point,
    s: f64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::PlaceNet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Positions on a 5 × 5 lattice, so that pins tie exactly on box edges
    /// all the time and vacating an edge is the common case.
    pub(crate) fn lattice_point(rng: &mut StdRng) -> Point {
        Point::new(rng.gen_range(0..5usize) as f64 * 2.5, rng.gen_range(0..5usize) as f64 * 1.25)
    }

    /// Random nets plus the corner cases: a cell twice on a net, a net
    /// whose only pins are one cell's, a single-pin net, a fixed-only net,
    /// and one net over every cell (most of its pins sit on its edges).
    pub(crate) fn instance(rng: &mut StdRng, cells: usize) -> PlaceInstance {
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
    pub(crate) fn pair_cost(
        inst: &PlaceInstance,
        nets_of_cell: &[Vec<usize>],
        a: usize,
        b: usize,
        pos: &[Point],
    ) -> f64 {
        let mut cost = 0.0;
        for &ni in &nets_of_cell[a] {
            cost += scan(inst.nets[ni].pins.iter().copied(), None, |o| pos[o]).hpwl();
        }
        for &ni in nets_of_cell[b].iter().filter(|ni| !nets_of_cell[a].contains(ni)) {
            cost += scan(inst.nets[ni].pins.iter().copied(), None, |o| pos[o]).hpwl();
        }
        cost
    }

    fn assert_all_fresh(boxes: &NetBoxes, shadow: &[Point], step: usize) {
        assert_eq!(boxes.pos(), shadow, "step {step}: positions");
        for ni in 0..boxes.nets.len() {
            assert!(boxes.net_is_fresh(ni), "step {step}: net {ni} HPWL is stale");
        }
        for c in 0..shadow.len() {
            for i in boxes.inc(c) {
                assert!(boxes.incidence_is_fresh(c, i), "step {step}: entry ({c}, {i}) is wrong");
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
            let mut boxes = NetBoxes::new(&inst, &mut pos);
            let mut a_boxes = Vec::new();
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
                    // on the lattice every sum is exact, so the bound
                    // holds without a margin
                    let side = boxes.swap_side(a, &mut a_boxes);
                    assert!(boxes.swap_bound(&side, &a_boxes, b) >= gain, "step {step}: bound");
                    if rng.gen_bool(0.4) {
                        boxes.commit_swap(a, b);
                    } else {
                        shadow.swap(a, b);
                    }
                } else {
                    let (c, q) = (rng.gen_range(0..cells), lattice_point(&mut rng));
                    let mut delta = 0.0;
                    for &ni in &nets_of_cell[c] {
                        let rest = scan(inst.nets[ni].pins.iter().copied(), Some(c), |o| shadow[o]);
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
        let mut pos = vec![Point::new(0.0, 0.0), Point::new(4.0, 1.0), Point::new(2.0, 3.0)];
        let mut boxes = NetBoxes::new(&inst, &mut pos);
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
        assert_eq!(scan([], None, |_| unreachable!()), NetBox::EMPTY);
    }
}
