//! Structural pattern matching of library cells on subject trees.
//!
//! A pattern matches at a tree node when its NAND/INV structure embeds
//! into the tree with pattern leaves landing on arbitrary tree nodes
//! (internal or leaf). NAND commutativity is handled by trying both child
//! orders, so libraries only need one pattern per distinct tree shape.

use crate::partition::{Tree, TreeNode};
use casyn_library::{Library, PatternTree};
use casyn_netlist::subject::GateId;

/// How matching treats tree nodes whose signal is demanded externally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedPolicy {
    /// Never cover through a shared node (DAGON semantics: minimum-area
    /// covering must not duplicate logic).
    Forbid,
    /// Allow covering through; the covering DP prices the duplication.
    Price,
}

/// One way of implementing a tree node with a library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Library cell index.
    pub cell: u32,
    /// Tree-node indices bound to each input pin, in pin order.
    pub leaves: Vec<u32>,
    /// Subject gates covered by the match (the internal embedded nodes).
    pub covered: Vec<GateId>,
    /// Tree nodes with external demand (multi-fanout vertices) that this
    /// match covers *through*: their signal disappears inside the cell,
    /// so a separate cover rooted there must be emitted for the other
    /// fanouts — logic duplication. The covering cost function charges
    /// the estimated duplicated area/wire for each.
    pub through: Vec<u32>,
}

/// A [`Match`] borrowed from a [`MatchBuf`]: the same four fields as
/// slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRef<'a> {
    /// Library cell index.
    pub cell: u32,
    /// Tree-node indices bound to each input pin, in pin order.
    pub leaves: &'a [u32],
    /// Subject gates covered by the match, in pattern pre-order.
    pub covered: &'a [GateId],
    /// Shared tree nodes covered through, in pattern pre-order.
    pub through: &'a [u32],
}

impl MatchRef<'_> {
    /// Copies the match out of its buffer.
    pub fn to_match(&self) -> Match {
        Match {
            cell: self.cell,
            leaves: self.leaves.to_vec(),
            covered: self.covered.to_vec(),
            through: self.through.to_vec(),
        }
    }
}

/// The matches of one tree node, flat: per match a cell and where its
/// `leaves`, `covered` and `through` end in three arrays shared by all
/// matches (each begins where the previous match's ends).
#[derive(Debug, Default)]
struct MatchSet {
    ends: Vec<MatchEnds>,
    leaves: Vec<u32>,
    covered: Vec<GateId>,
    through: Vec<u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct MatchEnds {
    cell: u32,
    leaves: u32,
    covered: u32,
    through: u32,
}

impl MatchSet {
    fn clear(&mut self) {
        self.ends.clear();
        self.leaves.clear();
        self.covered.clear();
        self.through.clear();
    }

    fn get(&self, i: usize) -> MatchRef<'_> {
        let from = if i == 0 { MatchEnds::default() } else { self.ends[i - 1] };
        let to = self.ends[i];
        MatchRef {
            cell: to.cell,
            leaves: &self.leaves[from.leaves as usize..to.leaves as usize],
            covered: &self.covered[from.covered as usize..to.covered as usize],
            through: &self.through[from.through as usize..to.through as usize],
        }
    }

    fn iter(&self) -> impl Iterator<Item = MatchRef<'_>> {
        (0..self.ends.len()).map(|i| self.get(i))
    }

    /// Appends `m` unless an equal match is already held.
    fn push(&mut self, m: MatchRef<'_>) {
        if self.iter().any(|held| held == m) {
            return;
        }
        self.leaves.extend_from_slice(m.leaves);
        self.covered.extend_from_slice(m.covered);
        self.through.extend_from_slice(m.through);
        self.ends.push(MatchEnds {
            cell: m.cell,
            leaves: self.leaves.len() as u32,
            covered: self.covered.len() as u32,
            through: self.through.len() as u32,
        });
    }
}

/// The caller-owned buffer [`matches_at`] enumerates into: the matches of
/// the node asked about last, plus the enumerator's backtracking state.
/// One buffer serves every node of every tree of a `map()` call, so
/// matching allocates only while the buffer is still growing to the
/// largest match set it has seen. `'l` is the library the patterns on the
/// pending stack are borrowed from.
#[derive(Debug, Default)]
pub struct MatchBuf<'l> {
    set: MatchSet,
    /// Pattern vertices still to embed, the next one on top, each with
    /// the tree node it must land on.
    pending: Vec<(u32, &'l PatternTree)>,
    /// The embedding under construction: the tree node bound to each pin,
    /// and the gates covered / shared nodes covered through so far.
    pins: Vec<u32>,
    covered: Vec<GateId>,
    through: Vec<u32>,
}

impl MatchBuf<'_> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matches held.
    pub fn len(&self) -> usize {
        self.set.ends.len()
    }

    /// True when no match is held.
    pub fn is_empty(&self) -> bool {
        self.set.ends.is_empty()
    }

    /// The `i`-th match, in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> MatchRef<'_> {
        self.set.get(i)
    }

    /// The matches in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = MatchRef<'_>> {
        self.set.iter()
    }
}

/// Enumerates all matches of all library cells at `node` of `tree` into
/// `buf`, replacing what it held. The result is non-empty for every
/// internal node as long as the library contains an inverter and a
/// two-input NAND.
///
/// `shared[n]` marks tree nodes whose signal is demanded outside the
/// match under construction (multi-fanout vertices absorbed by
/// placement-driven or cone partitioning). A match may be *rooted* at a
/// shared node and its leaves may *bind* to one; covering *through* one
/// is allowed but recorded in [`Match::through`], because it hides the
/// shared signal and forces a duplicate cover to be emitted for the other
/// fanouts. The covering cost function prices that duplication, so
/// minimum-area covering avoids it (degenerating to DAGON behaviour)
/// while wire-driven covering may embrace it — the paper's area-for-
/// congestion trade.
///
/// The order of the matches, and of `covered`/`through` inside each, is
/// part of the contract: the covering DP breaks cost ties by taking the
/// first match, and sums positions over `covered` in floating point.
/// Cells come in library order and patterns in cell order; the embeddings
/// of one pattern come in lexicographic order of the choices made along
/// the pattern's pre-order — at a NAND the subject's `(a, b)` child order
/// before `(b, a)`, the left sub-pattern's embeddings outer and the
/// right's inner — and `covered`/`through` list pattern vertices in that
/// same pre-order. A match equal to an earlier one is dropped.
pub fn matches_at<'l>(
    tree: &Tree,
    node: u32,
    lib: &'l Library,
    shared: &[bool],
    policy: SharedPolicy,
    buf: &mut MatchBuf<'l>,
) {
    buf.set.clear();
    if matches!(tree.nodes[node as usize], TreeNode::Leaf { .. }) {
        return;
    }
    let mut embed = Embed { tree, root: node, shared, policy, cell: 0, buf };
    for (cid, cell) in lib.cells().iter().enumerate() {
        if cell.sequential {
            continue; // flip-flops are never produced by combinational covering
        }
        embed.cell = cid as u32;
        // linear patterns bind every pin exactly once, so a complete
        // embedding has overwritten whatever an earlier one left here
        embed.buf.pins.resize(cell.num_pins, 0);
        for pat in &cell.patterns {
            embed.buf.pending.push((node, pat));
            embed.step();
            debug_assert!(
                embed.buf.pending.len() == 1
                    && embed.buf.covered.is_empty()
                    && embed.buf.through.is_empty(),
                "backtracking must restore every stack"
            );
            embed.buf.pending.clear();
        }
    }
}

/// One enumeration: the subject, the match root (exempt from the shared
/// test), the cell whose pattern is being embedded, and the buffer.
struct Embed<'a, 'l> {
    tree: &'a Tree,
    root: u32,
    shared: &'a [bool],
    policy: SharedPolicy,
    cell: u32,
    buf: &'a mut MatchBuf<'l>,
}

impl Embed<'_, '_> {
    /// Embeds the pattern vertex on top of the pending stack and, depth
    /// first, everything under it on the stack; with the stack empty the
    /// embedding is complete and is committed. Backtracking undoes by
    /// truncation: every stack is on return what it was on entry.
    fn step(&mut self) {
        let Some((node, pat)) = self.buf.pending.pop() else {
            let b = &mut *self.buf;
            let m = MatchRef {
                cell: self.cell,
                leaves: &b.pins,
                covered: &b.covered,
                through: &b.through,
            };
            b.set.push(m);
            return;
        };
        let depth = self.buf.pending.len();
        match (pat, &self.tree.nodes[node as usize]) {
            (PatternTree::Leaf(pin), _) => {
                self.buf.pins[*pin as usize] = node;
                self.step();
            }
            (PatternTree::Inv(inner), &TreeNode::Inv { child, gate }) => {
                if let Some(undo) = self.cover(node, gate) {
                    self.buf.pending.push((child, inner));
                    self.step();
                    self.buf.pending.truncate(depth);
                    self.uncover(undo);
                }
            }
            (PatternTree::Nand(pa, pb), &TreeNode::Nand { a, b, gate }) => {
                if let Some(undo) = self.cover(node, gate) {
                    // both child orders (NAND is commutative)
                    for (ta, tb) in [(a, b), (b, a)] {
                        self.buf.pending.push((tb, pb));
                        self.buf.pending.push((ta, pa));
                        self.step();
                        self.buf.pending.truncate(depth);
                        if a == b {
                            break; // identical children: one order suffices
                        }
                    }
                    self.uncover(undo);
                }
            }
            _ => {}
        }
        self.buf.pending.push((node, pat));
    }

    /// Records internal tree node `node` (subject gate `gate`) as covered
    /// by the embedding, and as covered through if it is shared and not
    /// the match root. Returns the lengths to truncate back to, or `None`
    /// — nothing recorded — when the policy forbids covering through it.
    fn cover(&mut self, node: u32, gate: GateId) -> Option<(usize, usize)> {
        let is_shared =
            node != self.root && self.shared.get(node as usize).copied().unwrap_or(false);
        if is_shared && self.policy == SharedPolicy::Forbid {
            return None;
        }
        let undo = (self.buf.covered.len(), self.buf.through.len());
        self.buf.covered.push(gate);
        if is_shared {
            self.buf.through.push(node);
        }
        Some(undo)
    }

    fn uncover(&mut self, (covered, through): (usize, usize)) {
        self.buf.covered.truncate(covered);
        self.buf.through.truncate(through);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::shared_nodes;
    use crate::partition::{partition, PartitionScheme};
    use casyn_library::{corelib018, Cell};
    use casyn_logic::decompose;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};
    use casyn_netlist::subject::SubjectGraph;
    use casyn_netlist::Point;

    fn collect(
        tree: &Tree,
        node: u32,
        lib: &Library,
        shared: &[bool],
        policy: SharedPolicy,
    ) -> Vec<Match> {
        let mut buf = MatchBuf::new();
        matches_at(tree, node, lib, shared, policy, &mut buf);
        buf.iter().map(|m| m.to_match()).collect()
    }

    /// The enumerator this crate shipped before the flat buffer, kept
    /// verbatim as the reference: a cloned `Binding` per pattern vertex,
    /// an owned `Match` per embedding.
    fn reference_matches_at(
        tree: &Tree,
        node: u32,
        lib: &Library,
        shared: &[bool],
        policy: SharedPolicy,
    ) -> Vec<Match> {
        let mut out = Vec::new();
        if matches!(tree.nodes[node as usize], TreeNode::Leaf { .. }) {
            return out;
        }
        for (cid, cell) in lib.cells().iter().enumerate() {
            if cell.sequential {
                continue; // flip-flops are never produced by combinational covering
            }
            for pat in &cell.patterns {
                let mut bindings: Vec<Binding> = Vec::new();
                match_rec(
                    tree,
                    node,
                    pat,
                    &Binding::new(cell.num_pins),
                    true,
                    shared,
                    policy,
                    &mut bindings,
                );
                for b in bindings {
                    let leaves: Vec<u32> =
                        b.pins.iter().map(|p| p.expect("linear pattern binds all pins")).collect();
                    let m =
                        Match { cell: cid as u32, leaves, covered: b.covered, through: b.through };
                    if !out.contains(&m) {
                        out.push(m);
                    }
                }
            }
        }
        out
    }

    #[derive(Debug, Clone)]
    struct Binding {
        pins: Vec<Option<u32>>,
        covered: Vec<GateId>,
        through: Vec<u32>,
    }

    impl Binding {
        fn new(num_pins: usize) -> Self {
            Binding { pins: vec![None; num_pins], covered: Vec::new(), through: Vec::new() }
        }
    }

    /// Tries to embed `pat` at `node`, extending `partial`; pushes every
    /// complete embedding onto `out`. `at_root` is true only for the node the
    /// whole match is rooted at, which is exempt from the barrier test.
    #[allow(clippy::too_many_arguments)]
    fn match_rec(
        tree: &Tree,
        node: u32,
        pat: &PatternTree,
        partial: &Binding,
        at_root: bool,
        shared: &[bool],
        policy: SharedPolicy,
        out: &mut Vec<Binding>,
    ) {
        let is_shared = |n: u32| !at_root && shared.get(n as usize).copied().unwrap_or(false);
        match pat {
            PatternTree::Leaf(pin) => {
                let mut b = partial.clone();
                debug_assert!(
                    b.pins[*pin as usize].is_none(),
                    "linear patterns bind each pin once"
                );
                b.pins[*pin as usize] = Some(node);
                out.push(b);
            }
            PatternTree::Inv(inner) => {
                if let TreeNode::Inv { child, gate } = tree.nodes[node as usize] {
                    if is_shared(node) && policy == SharedPolicy::Forbid {
                        return;
                    }
                    let mut b = partial.clone();
                    b.covered.push(gate);
                    if is_shared(node) {
                        b.through.push(node);
                    }
                    match_rec(tree, child, inner, &b, false, shared, policy, out);
                }
            }
            PatternTree::Nand(pa, pb) => {
                if let TreeNode::Nand { a, b, gate } = tree.nodes[node as usize] {
                    if is_shared(node) && policy == SharedPolicy::Forbid {
                        return;
                    }
                    let mut base = partial.clone();
                    base.covered.push(gate);
                    if is_shared(node) {
                        base.through.push(node);
                    }
                    // both child orders (NAND is commutative)
                    for (ta, tb) in [(a, b), (b, a)] {
                        let mut lefts = Vec::new();
                        match_rec(tree, ta, pa, &base, false, shared, policy, &mut lefts);
                        for l in lefts {
                            match_rec(tree, tb, pb, &l, false, shared, policy, out);
                        }
                        if a == b {
                            break; // identical children: one order suffices
                        }
                    }
                }
            }
        }
    }

    fn single_tree(g: &SubjectGraph) -> Tree {
        let f = partition(g, PartitionScheme::Dagon, &[]);
        assert_eq!(f.trees.len(), 1, "test circuit must form one tree");
        f.trees.into_iter().next().unwrap()
    }

    #[test]
    fn inv_node_matches_inverter_cells() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i = g.add_inv(a);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let names: Vec<&str> = ms.iter().map(|m| lib.cell(m.cell).name.as_str()).collect();
        assert!(names.contains(&"IV"));
        assert!(names.contains(&"IVD2"));
        assert!(!names.contains(&"ND2"));
    }

    #[test]
    fn and_structure_matches_an2_and_inv() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        let i = g.add_inv(n);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let an2 = ms.iter().find(|m| lib.cell(m.cell).name == "AN2").expect("AN2 match");
        assert_eq!(an2.covered.len(), 2);
        assert_eq!(an2.leaves.len(), 2);
        // BUF also matches? no: inv(nand) is not inv(inv)
        assert!(ms.iter().all(|m| lib.cell(m.cell).name != "BUF"));
    }

    #[test]
    fn nand3_matches_both_skews_via_commutativity() {
        let lib = corelib018();
        // shape 1: nand(a, inv(nand(b, c)))
        let mut g1 = SubjectGraph::new();
        let a = g1.add_input("a");
        let b = g1.add_input("b");
        let c = g1.add_input("c");
        let nbc = g1.add_nand2(b, c);
        let inner = g1.add_inv(nbc);
        let root = g1.add_nand2(a, inner);
        g1.add_output("o", root);
        let t1 = single_tree(&g1);
        let ms1 = collect(&t1, t1.root(), &lib, &[], SharedPolicy::Price);
        assert!(ms1.iter().any(|m| lib.cell(m.cell).name == "ND3"));
        // shape 2: nand(inv(nand(b, c)), a) — swapped at construction
        let mut g2 = SubjectGraph::new();
        let a = g2.add_input("a");
        let b = g2.add_input("b");
        let c = g2.add_input("c");
        let nb = g2.add_nand2(b, c);
        let inner = g2.add_inv(nb);
        let root = g2.add_nand2(inner, a);
        g2.add_output("o", root);
        let t2 = single_tree(&g2);
        let ms2 = collect(&t2, t2.root(), &lib, &[], SharedPolicy::Price);
        assert!(ms2.iter().any(|m| lib.cell(m.cell).name == "ND3"));
    }

    #[test]
    fn leaves_land_on_internal_nodes_too() {
        // inv(inv(x)): the outer INV can match with its leaf on the inner
        // INV (an internal node)
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i1 = g.add_inv(a);
        let i2 = g.add_inv(i1);
        g.add_output("o", i2);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        // IV match with leaf bound to the inner INV node
        let iv = ms.iter().find(|m| lib.cell(m.cell).name == "IV").unwrap();
        let leaf_node = iv.leaves[0];
        assert!(matches!(tree.nodes[leaf_node as usize], TreeNode::Inv { .. }));
        // BUF match consuming both inverters
        let buf = ms.iter().find(|m| lib.cell(m.cell).name == "BUF").unwrap();
        assert_eq!(buf.covered.len(), 2);
    }

    #[test]
    fn no_matches_at_leaf_nodes() {
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let i = g.add_inv(a);
        g.add_output("o", i);
        let lib = corelib018();
        let tree = single_tree(&g);
        // node 0 is the leaf referencing `a`
        assert!(matches!(tree.nodes[0], TreeNode::Leaf { .. }));
        assert!(collect(&tree, 0, &lib, &[], SharedPolicy::Price).is_empty());
    }

    #[test]
    fn every_internal_node_has_a_match() {
        // a random-ish structure: all internal nodes must be coverable
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let i1 = g.add_inv(n1);
        let n2 = g.add_nand2(i1, c);
        let i2 = g.add_inv(n2);
        g.add_output("o", i2);
        let lib = corelib018();
        let tree = single_tree(&g);
        for (idx, node) in tree.nodes.iter().enumerate() {
            if !matches!(node, TreeNode::Leaf { .. }) {
                assert!(
                    !collect(&tree, idx as u32, &lib, &[], SharedPolicy::Price).is_empty(),
                    "no match at internal node {idx}"
                );
            }
        }
    }

    #[test]
    fn aoi21_covers_four_gates() {
        // subject: inv(nand(nand(a,b), inv(c)))
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let n1 = g.add_nand2(a, b);
        let ic = g.add_inv(c);
        let n2 = g.add_nand2(n1, ic);
        let root = g.add_inv(n2);
        g.add_output("o", root);
        let lib = corelib018();
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let aoi = ms.iter().find(|m| lib.cell(m.cell).name == "AOI21").expect("AOI21");
        assert_eq!(aoi.covered.len(), 4);
        // its three leaves are the three input leaf nodes
        for &l in &aoi.leaves {
            assert!(matches!(tree.nodes[l as usize], TreeNode::Leaf { .. }));
        }
    }

    /// Asserts that the buffer enumerator and the reference agree at
    /// every node of `tree`, match for match and in order, reusing `buf`.
    /// Returns the number of matches compared.
    fn assert_agrees_with_reference<'l>(
        tree: &Tree,
        lib: &'l Library,
        shared: &[bool],
        policy: SharedPolicy,
        buf: &mut MatchBuf<'l>,
    ) -> usize {
        let mut compared = 0;
        for node in 0..tree.nodes.len() as u32 {
            let want = reference_matches_at(tree, node, lib, shared, policy);
            matches_at(tree, node, lib, shared, policy, buf);
            let got: Vec<Match> = buf.iter().map(|m| m.to_match()).collect();
            assert_eq!(got, want, "node {node} of {:?} under {policy:?}", tree.nodes);
            assert_eq!(buf.len(), want.len());
            assert!(buf.pending.is_empty() && buf.covered.is_empty() && buf.through.is_empty());
            compared += want.len();
        }
        compared
    }

    /// Seeded designs × the three partition schemes × both policies, one
    /// buffer for everything: the new enumerator must produce exactly the
    /// reference's matches, in the reference's order.
    #[test]
    fn buffer_enumerator_equals_reference_on_random_designs() {
        let lib = corelib018();
        let mut buf = MatchBuf::new();
        let (mut compared, mut through) = (0, 0);
        for seed in 1..=6u64 {
            let pla = random_pla(&PlaGenConfig {
                inputs: 8 + seed as usize % 3,
                outputs: 5,
                terms: 20 + 4 * seed as usize,
                min_literals: 2,
                max_literals: 6,
                mean_outputs_per_term: 1.5,
                seed,
            });
            let (graph, _) = decompose(&pla.to_network()).graph.sweep();
            let n = graph.num_vertices();
            // a deterministic scatter, so placement-driven partitioning
            // absorbs shared vertices into arbitrary fanouts
            let pos: Vec<Point> =
                (0..n).map(|i| Point::new((i * 37 % 101) as f64, (i * 53 % 89) as f64)).collect();
            let fanout_counts = graph.fanout_counts();
            for scheme in
                [PartitionScheme::Dagon, PartitionScheme::Cone, PartitionScheme::PlacementDriven]
            {
                let forest = partition(&graph, scheme, &pos);
                for tree in &forest.trees {
                    let shared = shared_nodes(tree, &fanout_counts);
                    for policy in [SharedPolicy::Forbid, SharedPolicy::Price] {
                        compared +=
                            assert_agrees_with_reference(tree, &lib, &shared, policy, &mut buf);
                        through += buf.iter().filter(|m| !m.through.is_empty()).count();
                    }
                }
            }
        }
        assert!(compared > 20_000, "only {compared} matches compared");
        assert!(through > 0, "no tree exercised covering through a shared node");
    }

    /// Hand-built tree `nand(x, x)` with both slots on *one* tree node:
    /// the two child orders are the same embedding and only one is tried.
    #[test]
    fn nand_of_one_node_twice_matches_once() {
        let lib = corelib018();
        let tree = Tree {
            nodes: vec![
                TreeNode::Leaf { signal: GateId(0) },
                TreeNode::Nand { a: 0, b: 0, gate: GateId(1) },
            ],
            root_gate: GateId(1),
        };
        let ms = collect(&tree, 1, &lib, &[], SharedPolicy::Price);
        let nd2: Vec<&Match> = ms.iter().filter(|m| lib.cell(m.cell).name == "ND2").collect();
        assert_eq!(nd2.len(), 1);
        assert_eq!(nd2[0].leaves, vec![0, 0]);
        assert_eq!(ms, reference_matches_at(&tree, 1, &lib, &[], SharedPolicy::Price));
        // the partitioner gives nand(x, x) two leaves: both orders differ
        // in their pin binding and both are kept, (a, b) first
        let mut g = SubjectGraph::without_hashing();
        let x = g.add_input("x");
        let n = g.add_nand2(x, x);
        g.add_output("o", n);
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        let nd2: Vec<&Match> = ms.iter().filter(|m| lib.cell(m.cell).name == "ND2").collect();
        assert_eq!(nd2.len(), 2);
        assert_eq!((&nd2[0].leaves, &nd2[1].leaves), (&vec![0, 1], &vec![1, 0]));
    }

    /// `inv(nand(inv(a), b))` with the NAND shared: a match *rooted* at the
    /// shared node is exempt, a match covering *through* it records it
    /// under `Price` and does not exist under `Forbid`.
    #[test]
    fn shared_node_at_the_root_versus_inside_the_match() {
        let lib = corelib018();
        let tree = Tree {
            nodes: vec![
                TreeNode::Leaf { signal: GateId(0) },
                TreeNode::Inv { child: 0, gate: GateId(2) },
                TreeNode::Leaf { signal: GateId(1) },
                TreeNode::Nand { a: 1, b: 2, gate: GateId(3) },
                TreeNode::Inv { child: 3, gate: GateId(4) },
            ],
            root_gate: GateId(4),
        };
        let shared = [false, false, false, true, false];
        for policy in [SharedPolicy::Forbid, SharedPolicy::Price] {
            // rooted at the shared NAND: never "through"
            let at_nand = collect(&tree, 3, &lib, &shared, policy);
            assert!(at_nand.iter().any(|m| lib.cell(m.cell).name == "ND2"));
            assert!(at_nand.iter().all(|m| m.through.is_empty()), "{policy:?}");
            assert_eq!(at_nand, reference_matches_at(&tree, 3, &lib, &shared, policy));
            let at_root = collect(&tree, 4, &lib, &shared, policy);
            assert_eq!(at_root, reference_matches_at(&tree, 4, &lib, &shared, policy));
            let an2 = at_root.iter().find(|m| lib.cell(m.cell).name == "AN2");
            match policy {
                SharedPolicy::Forbid => {
                    assert!(an2.is_none());
                    assert!(at_root.iter().all(|m| m.through.is_empty()));
                }
                SharedPolicy::Price => {
                    let an2 = an2.expect("AN2 through the shared NAND");
                    assert_eq!(an2.through, vec![3]);
                    // pre-order: the root inverter, then the NAND
                    assert_eq!(an2.covered, vec![GateId(4), GateId(3)]);
                }
            }
        }
    }

    /// `covered` lists pattern vertices in pre-order — root, then the
    /// whole left sub-pattern, then the right — under the child order the
    /// embedding chose; a post-order or subject-order listing fails here.
    #[test]
    fn covered_is_in_pattern_preorder() {
        // subject: nand(inv(a), nand(b, c)); pattern nand(nand(0,1), inv(2))
        // only embeds with the children swapped
        let tree = Tree {
            nodes: vec![
                TreeNode::Leaf { signal: GateId(0) },
                TreeNode::Inv { child: 0, gate: GateId(3) },
                TreeNode::Leaf { signal: GateId(1) },
                TreeNode::Leaf { signal: GateId(2) },
                TreeNode::Nand { a: 2, b: 3, gate: GateId(4) },
                TreeNode::Nand { a: 1, b: 4, gate: GateId(5) },
            ],
            root_gate: GateId(5),
        };
        let mut lib = Library::new("one");
        let p = PatternTree::nand(
            PatternTree::nand(PatternTree::leaf(0), PatternTree::leaf(1)),
            PatternTree::inv(PatternTree::leaf(2)),
        );
        lib.push(Cell::new("X", 3.0, 0.004, 0.1, 1.0, vec![p]));
        let ms = collect(&tree, 5, &lib, &[], SharedPolicy::Price);
        assert_eq!(ms, reference_matches_at(&tree, 5, &lib, &[], SharedPolicy::Price));
        // (b, a) order at the root; inside nand(b, c) both orders embed,
        // (2, 3) before (3, 2)
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert_eq!(m.covered, vec![GateId(5), GateId(4), GateId(3)]);
        }
        assert_eq!(ms[0].leaves, vec![2, 3, 0]);
        assert_eq!(ms[1].leaves, vec![3, 2, 0]);
    }

    /// A library holding the same pattern twice (in one cell and again in
    /// a later one) yields each embedding once per *cell*: the second copy
    /// inside the cell is deduplicated, the other cell's is a different
    /// match.
    #[test]
    fn duplicate_patterns_are_deduplicated() {
        let nd = || PatternTree::nand(PatternTree::leaf(0), PatternTree::leaf(1));
        let mut lib = Library::new("dup");
        lib.push(Cell::new("A", 3.0, 0.004, 0.1, 1.0, vec![nd(), nd()]));
        lib.push(Cell::new("B", 3.0, 0.004, 0.1, 1.0, vec![nd()]));
        let mut g = SubjectGraph::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.add_nand2(a, b);
        g.add_output("o", n);
        let tree = single_tree(&g);
        let ms = collect(&tree, tree.root(), &lib, &[], SharedPolicy::Price);
        assert_eq!(ms, reference_matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price));
        // per cell the two child orders; A's second pattern adds nothing
        let cells: Vec<u32> = ms.iter().map(|m| m.cell).collect();
        assert_eq!(cells, vec![0, 0, 1, 1]);
    }

    /// One buffer across trees of different sizes, large then small then
    /// large: nothing of an earlier tree or node leaks into a later one.
    #[test]
    fn one_buffer_serves_trees_of_different_sizes() {
        let lib = corelib018();
        let chain = |links: usize| {
            let mut g = SubjectGraph::new();
            let mut x = g.add_input("x0");
            for i in 1..=links {
                let b = g.add_input(format!("x{i}"));
                let n = g.add_nand2(x, b);
                x = g.add_inv(n);
            }
            g.add_output("o", x);
            single_tree(&g)
        };
        let mut buf = MatchBuf::new();
        for links in [6, 1, 4, 1, 6] {
            let tree = chain(links);
            let n = assert_agrees_with_reference(&tree, &lib, &[], SharedPolicy::Price, &mut buf);
            assert!(n > 0);
        }
        // a leaf empties the buffer rather than leaving the last node's set
        let tree = chain(2);
        matches_at(&tree, tree.root(), &lib, &[], SharedPolicy::Price, &mut buf);
        assert!(!buf.is_empty());
        matches_at(&tree, 0, &lib, &[], SharedPolicy::Price, &mut buf);
        assert!(buf.is_empty());
    }
}
