//! Greedy algebraic extraction over a Boolean network.
//!
//! Two extraction engines are provided:
//!
//! * [`extract_cubes`] — common-cube extraction: finds literal pairs that
//!   occur together in many cubes anywhere in the network, creates a new
//!   two-literal AND node and resubstitutes it. Iterating this performs
//!   the multi-literal common-cube extraction of SIS's `fx` command.
//! * [`extract_kernels`] — kernel extraction: enumerates kernels of every
//!   node, finds the kernel with the best literal savings across all its
//!   occurrences (inter- and intra-node) and extracts it as a new node.
//!
//! Both strictly decrease the network literal count at every step, so they
//! terminate. Extraction increases sharing and multi-fanout counts — the
//! very structure the paper identifies as the source of wiring congestion.

use crate::kernels::{canonical, kernels};
use casyn_netlist::network::{Network, NodeFunction, NodeId};
use casyn_netlist::sop::{Cube, Polarity, Sop};
use casyn_obs as obs;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A literal over network nodes: `(driver, polarity)`.
pub type GlobalLit = (NodeId, Polarity);

/// A cube over network nodes: a sorted, duplicate-free literal list.
pub type GlobalCube = Vec<GlobalLit>;

/// Options controlling [`optimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOptions {
    /// Maximum number of common-cube extractions (0 disables the pass).
    pub max_cube_extractions: usize,
    /// Maximum number of kernel extractions (0 disables the pass).
    pub max_kernel_extractions: usize,
    /// Nodes with more cubes than this are skipped by kernel enumeration
    /// (kernel counts explode on wide covers).
    pub kernel_cube_limit: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            max_cube_extractions: 10_000,
            max_kernel_extractions: 200,
            kernel_cube_limit: 24,
        }
    }
}

/// Runs kernel extraction followed by common-cube extraction — the
/// aggressive literal-minimization recipe standing in for SIS's
/// `script.rugged`-style technology-independent phase. Returns the total
/// number of new nodes created.
pub fn optimize(net: &mut Network, opts: &OptimizeOptions) -> usize {
    let lits_before = net.literal_count();
    let k = {
        let mut span = obs::trace::span("logic.extract_kernels");
        let k = extract_kernels(net, opts.max_kernel_extractions, opts.kernel_cube_limit);
        span.attr_num("kernels", k as f64);
        k
    };
    let c = extract_cubes(net, opts.max_cube_extractions);
    if obs::enabled() {
        obs::counter_add("logic.kernels_extracted", k as u64);
        obs::counter_add("logic.cubes_extracted", c as u64);
        obs::counter_add(
            "logic.literals_saved",
            lits_before.saturating_sub(net.literal_count()) as u64,
        );
    }
    obs::log::debug(&format!(
        "optimize: {k} kernels, {c} cubes, literals {lits_before} -> {}",
        net.literal_count()
    ));
    k + c
}

/// Converts a node's local SOP to global cubes.
fn node_global_cubes(net: &Network, id: NodeId) -> Vec<GlobalCube> {
    match net.node(id) {
        NodeFunction::Input(_) => Vec::new(),
        NodeFunction::Logic { fanins, sop } => sop
            .cubes()
            .iter()
            .map(|c| {
                let mut g: GlobalCube = c.literals().map(|(v, p)| (fanins[v], p)).collect();
                g.sort();
                g.dedup();
                g
            })
            .collect(),
    }
}

/// Rewrites a node from global cubes: recomputes the fanin list and the
/// local SOP.
fn set_node_from_global(net: &mut Network, id: NodeId, cubes: &[GlobalCube]) {
    let mut fanins: Vec<NodeId> = cubes.iter().flatten().map(|(n, _)| *n).collect();
    fanins.sort();
    fanins.dedup();
    let index_of: HashMap<NodeId, usize> =
        fanins.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut sop = Sop::zero(fanins.len());
    for gc in cubes {
        let mut c = Cube::one(fanins.len());
        for (n, p) in gc {
            c.set(index_of[n], *p);
        }
        sop.push(c);
    }
    *net.node_mut(id) = NodeFunction::Logic { fanins, sop };
}

/// Creates a new node computing the conjunction or general SOP given by
/// global cubes, and returns its id.
fn add_node_from_global(net: &mut Network, cubes: &[GlobalCube]) -> NodeId {
    let mut fanins: Vec<NodeId> = cubes.iter().flatten().map(|(n, _)| *n).collect();
    fanins.sort();
    fanins.dedup();
    let index_of: HashMap<NodeId, usize> =
        fanins.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut sop = Sop::zero(fanins.len());
    for gc in cubes {
        let mut c = Cube::one(fanins.len());
        for (n, p) in gc {
            c.set(index_of[n], *p);
        }
        sop.push(c);
    }
    net.add_node(fanins, sop)
}

/// A literal as a dense id, `2 · node + (polarity == Positive)`: ids order
/// exactly as the [`GlobalLit`]s they stand for.
type LitId = u64;

fn lit_id((n, p): GlobalLit) -> LitId {
    2 * LitId::from(n.0) + LitId::from(p == Polarity::Positive)
}

fn lit_of(id: LitId) -> GlobalLit {
    let n = NodeId(u32::try_from(id / 2).expect("literal ids are made from u32 node ids"));
    (n, if id % 2 == 1 { Polarity::Positive } else { Polarity::Negative })
}

/// Per literal pair, the number of cubes containing both literals.
type PairCounts = HashMap<(LitId, LitId), u32>;

/// A literal pair as `(smaller, larger)`, the order a sorted cube lists
/// them in.
fn pair_of(x: LitId, y: LitId) -> (LitId, LitId) {
    if x < y {
        (x, y)
    } else {
        (y, x)
    }
}

/// Greedy common-cube (literal-pair) extraction. Repeatedly takes the
/// literal pair occurring in the most cubes network-wide — ties go to the
/// greatest pair, i.e. the greatest `(count, pair)` wins — and, if it
/// occurs in at least three cubes (value `occ - 2 > 0`), creates a fresh
/// AND node and substitutes it into every cube holding both literals.
/// Returns the number of nodes created.
///
/// Incremental and exact: `count[p]` is kept equal to the number of cubes
/// containing pair `p`, and a rewrite updates only the pairs with one of
/// the two extracted literals or the new divisor in them; a lazy max-heap
/// of `(count, pair)` entries, skipping those whose count has since
/// moved, yields the greatest pair; per-literal posting lists give the
/// cubes to rewrite.
pub fn extract_cubes(net: &mut Network, max_extractions: usize) -> usize {
    let mut span = obs::trace::span("logic.extract_cubes");
    // every cube of the network as sorted literal ids, with its node; a
    // node's cubes are contiguous, in cube order
    let mut cubes: Vec<Vec<LitId>> = Vec::new();
    let mut node_of: Vec<NodeId> = Vec::new();
    for id in net.node_ids().collect::<Vec<_>>() {
        for lits in node_global_cubes(net, id) {
            cubes.push(lits.into_iter().map(lit_id).collect());
            node_of.push(id);
        }
    }
    let (mut posting, mut count) = index_cubes(&cubes, 2 * net.num_nodes());
    let mut heap: BinaryHeap<(u32, (LitId, LitId))> =
        count.iter().filter(|(_, &n)| n >= 3).map(|(&p, &n)| (n, p)).collect();
    let (mut created, mut rewrites, mut pair_updates) = (0usize, 0usize, 0usize);
    let mut touched: Vec<NodeId> = Vec::new();
    let mut moved: Vec<(LitId, LitId)> = Vec::new();
    while created < max_extractions {
        // the greatest live (count, pair); entries below 3 are never queued
        let Some((a, b)) = std::iter::from_fn(|| heap.pop())
            .find(|&(n, p)| count.get(&p) == Some(&n))
            .map(|(_, p)| p)
        else {
            break;
        };
        let g = add_node_from_global(net, &[vec![lit_of(a), lit_of(b)]]);
        created += 1;
        let gl = lit_id((g, Polarity::Positive));
        posting.resize(2 * net.num_nodes(), Vec::new());
        let both = intersect(&posting[a as usize], &posting[b as usize]);
        let mut bump = |p: (LitId, LitId), d: i32| {
            let n = count.entry(p).or_default();
            *n = n.checked_add_signed(d).expect("count[p] = cubes containing p, never negative");
            if *n == 0 {
                count.remove(&p);
            }
            moved.push(p);
            pair_updates += 1;
        };
        // a cube `{a, b} ∪ R` becomes `R ∪ {g}`: the pairs inside R keep
        // their count, (a, b), (a, x) and (b, x) lose one, (x, g) gain one
        for &i in &both {
            bump((a, b), -1);
            for &x in cubes[i].iter().filter(|&&x| x != a && x != b) {
                bump(pair_of(a, x), -1);
                bump(pair_of(b, x), -1);
                bump(pair_of(x, gl), 1);
            }
            let c = &mut cubes[i];
            c.retain(|&x| x != a && x != b);
            c.insert(c.partition_point(|&x| x < gl), gl);
            touched.push(node_of[i]);
        }
        rewrites += both.len();
        posting[a as usize].retain(|i| both.binary_search(i).is_err());
        posting[b as usize].retain(|i| both.binary_search(i).is_err());
        posting[gl as usize] = both;
        moved.sort_unstable();
        moved.dedup();
        for p in moved.drain(..) {
            if let Some(&n) = count.get(&p).filter(|&&n| n >= 3) {
                heap.push((n, p));
            }
        }
    }
    if cfg!(debug_assertions) {
        let fresh = index_cubes(&cubes, posting.len());
        assert!(fresh == (posting, count), "posting lists or pair counts drifted from the cubes");
    }
    // write back every touched node; ids ascend, so each node's run of
    // cubes starts at or after the previous one's
    touched.sort();
    touched.dedup();
    let mut first = 0;
    for id in touched {
        first += node_of[first..].partition_point(|&n| n < id);
        let len = node_of[first..].partition_point(|&n| n == id);
        let global: Vec<GlobalCube> = cubes[first..first + len]
            .iter()
            .map(|c| c.iter().map(|&x| lit_of(x)).collect())
            .collect();
        set_node_from_global(net, id, &global);
    }
    span.attr_num("extractions", created as f64);
    span.attr_num("rewrites", rewrites as f64);
    span.attr_num("pair_updates", pair_updates as f64);
    created
}

/// Builds the two indexes of [`extract_cubes`] over `cubes`: per literal
/// id below `num_lits`, the ascending list of cubes containing it, and per
/// pair, the number of cubes containing both literals.
fn index_cubes(cubes: &[Vec<LitId>], num_lits: usize) -> (Vec<Vec<usize>>, PairCounts) {
    let mut posting = vec![Vec::new(); num_lits];
    let mut count = HashMap::new();
    for (i, c) in cubes.iter().enumerate() {
        for (j, &x) in c.iter().enumerate() {
            posting[x as usize].push(i);
            for &y in &c[j + 1..] {
                *count.entry((x, y)).or_default() += 1;
            }
        }
    }
    (posting, count)
}

/// The elements common to two ascending lists, ascending.
fn intersect(xs: &[usize], ys: &[usize]) -> Vec<usize> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Kernel extraction: in each round, enumerates kernels of all (bounded)
/// nodes, scores each distinct kernel by the exact literal savings of
/// substituting it everywhere it divides, extracts the best one, and
/// repeats. Returns the number of kernels extracted.
pub fn extract_kernels(net: &mut Network, max_extractions: usize, cube_limit: usize) -> usize {
    let mut created = 0usize;
    while created < max_extractions {
        // gather kernels, keyed by canonical global form
        let mut table: HashMap<Vec<GlobalCube>, Vec<NodeId>> = HashMap::new();
        for id in net.node_ids().collect::<Vec<_>>() {
            let NodeFunction::Logic { fanins, sop } = net.node(id) else { continue };
            if sop.num_cubes() < 2 || sop.num_cubes() > cube_limit {
                continue;
            }
            let fanins = fanins.clone();
            for kp in kernels(sop) {
                if kp.kernel.num_cubes() < 2 {
                    continue;
                }
                let mut glob: Vec<GlobalCube> = canonical(&kp.kernel)
                    .into_iter()
                    .map(|cube| {
                        let mut g: GlobalCube =
                            cube.into_iter().map(|(v, p)| (fanins[v], p)).collect();
                        g.sort();
                        g
                    })
                    .collect();
                glob.sort();
                let nodes = table.entry(glob).or_default();
                if !nodes.contains(&id) {
                    nodes.push(id);
                }
            }
        }
        // score candidates by exact literal delta
        type Plan = Vec<(NodeId, Vec<GlobalCube>)>;
        let mut best: Option<(i64, Vec<GlobalCube>, Plan)> = None;
        for (kernel, nodes) in &table {
            let kernel_lits: i64 = kernel.iter().map(|c| c.len() as i64).sum();
            let mut delta = -kernel_lits; // cost of the new node
            let mut plans = Vec::new();
            for &id in nodes {
                let cubes = node_global_cubes(net, id);
                let (q, r) = divide_global(&cubes, kernel);
                if q.is_empty() {
                    continue;
                }
                let old: i64 = cubes.iter().map(|c| c.len() as i64).sum();
                let newl: i64 = q.iter().map(|c| c.len() as i64 + 1).sum::<i64>()
                    + r.iter().map(|c| c.len() as i64).sum::<i64>();
                if newl < old {
                    delta += old - newl;
                    plans.push((id, cubes));
                }
            }
            if plans.is_empty() {
                continue;
            }
            if best.as_ref().is_none_or(|(d, _, _)| delta > *d) {
                best = Some((delta, kernel.clone(), plans));
            }
        }
        let Some((delta, kernel, plans)) = best else { break };
        if delta <= 0 {
            break;
        }
        let g = add_node_from_global(net, &kernel);
        created += 1;
        for (id, cubes) in plans {
            let (q, r) = divide_global(&cubes, &kernel);
            let mut new_cubes: Vec<GlobalCube> = Vec::with_capacity(q.len() + r.len());
            for mut qc in q {
                qc.push((g, Polarity::Positive));
                qc.sort();
                new_cubes.push(qc);
            }
            new_cubes.extend(r);
            set_node_from_global(net, id, &new_cubes);
        }
    }
    created
}

/// Algebraic division on global-cube covers: returns `(quotient,
/// remainder)` with `f = quotient * divisor + remainder`.
fn divide_global(f: &[GlobalCube], divisor: &[GlobalCube]) -> (Vec<GlobalCube>, Vec<GlobalCube>) {
    let contains =
        |big: &GlobalCube, small: &GlobalCube| small.iter().all(|l| big.binary_search(l).is_ok());
    let without = |big: &GlobalCube, small: &GlobalCube| -> GlobalCube {
        big.iter().filter(|l| small.binary_search(l).is_err()).copied().collect()
    };
    let mut quotient: Option<Vec<GlobalCube>> = None;
    for d in divisor {
        let q: Vec<GlobalCube> =
            f.iter().filter(|c| contains(c, d)).map(|c| without(c, d)).collect();
        quotient = Some(match quotient {
            None => q,
            Some(prev) => prev.into_iter().filter(|c| q.contains(c)).collect(),
        });
        if quotient.as_ref().is_some_and(Vec::is_empty) {
            break;
        }
    }
    let q = quotient.unwrap_or_default();
    let mut product: Vec<GlobalCube> = Vec::new();
    for qc in &q {
        for dc in divisor {
            let mut m: GlobalCube = qc.iter().chain(dc.iter()).copied().collect();
            m.sort();
            m.dedup();
            // clash check: both polarities of one node
            let clash = m.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
            if !clash {
                product.push(m);
            }
        }
    }
    let r: Vec<GlobalCube> = f.iter().filter(|c| !product.contains(c)).cloned().collect();
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exhaustively (or randomly, for wide inputs) checks that two
    /// networks compute the same outputs.
    fn assert_equivalent(a: &Network, b: &Network, seed: u64) {
        let n = a.inputs().len();
        assert_eq!(n, b.inputs().len());
        if n <= 12 {
            for m in 0..(1u64 << n) {
                let asg: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
                assert_eq!(a.simulate_outputs(&asg), b.simulate_outputs(&asg), "at {asg:?}");
            }
        } else {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let asg: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(a.simulate_outputs(&asg), b.simulate_outputs(&asg), "at {asg:?}");
            }
        }
    }

    /// The extraction loop `extract_cubes` replaced, kept as the reference
    /// the kernel must equal: a full `max_by_key` scan of the pair table
    /// per extraction, every pair of a rewritten cube decremented and every
    /// pair of its replacement incremented, and a scan of every cube for
    /// the two literals.
    fn reference_extract_cubes(net: &mut Network, max_extractions: usize) -> usize {
        #[derive(Debug)]
        struct Entry {
            node: NodeId,
            lits: GlobalCube,
            alive: bool,
            /// The defining cube of a divisor node must not be rewritten in
            /// terms of itself.
            is_divisor_def: bool,
        }
        let mut entries: Vec<Entry> = Vec::new();
        for id in net.node_ids().collect::<Vec<_>>() {
            for lits in node_global_cubes(net, id) {
                entries.push(Entry { node: id, lits, alive: true, is_divisor_def: false });
            }
        }
        let mut pair_count: HashMap<(GlobalLit, GlobalLit), i64> = HashMap::new();
        let bump = |map: &mut HashMap<(GlobalLit, GlobalLit), i64>, lits: &GlobalCube, d: i64| {
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    *map.entry((lits[i], lits[j])).or_default() += d;
                }
            }
        };
        for e in &entries {
            bump(&mut pair_count, &e.lits, 1);
        }
        let mut created = 0usize;
        let mut touched: Vec<NodeId> = Vec::new();
        while created < max_extractions {
            let Some((&pair, &occ)) = pair_count.iter().max_by_key(|(p, c)| (**c, *p)) else {
                break;
            };
            if occ < 3 {
                break;
            }
            // new divisor node g = a AND b
            let divisor_cube: GlobalCube = {
                let mut v = vec![pair.0, pair.1];
                v.sort();
                v
            };
            let g = add_node_from_global(net, std::slice::from_ref(&divisor_cube));
            created += 1;
            // rewrite every alive cube containing both literals
            let mut rewrites: Vec<(usize, GlobalCube)> = Vec::new();
            for (i, e) in entries.iter().enumerate() {
                if !e.alive || e.is_divisor_def {
                    continue;
                }
                if e.lits.binary_search(&pair.0).is_ok() && e.lits.binary_search(&pair.1).is_ok() {
                    let mut nl: GlobalCube =
                        e.lits.iter().filter(|l| **l != pair.0 && **l != pair.1).copied().collect();
                    nl.push((g, Polarity::Positive));
                    nl.sort();
                    rewrites.push((i, nl));
                }
            }
            for (i, nl) in rewrites {
                bump(&mut pair_count, &entries[i].lits, -1);
                bump(&mut pair_count, &nl, 1);
                touched.push(entries[i].node);
                entries[i].lits = nl;
            }
            // the divisor's defining cube: never counted, never rewritten,
            // never written back (the dead state the kernel dropped)
            entries.push(Entry { node: g, lits: divisor_cube, alive: true, is_divisor_def: true });
            pair_count.retain(|_, c| *c > 0);
        }
        // write back every touched node
        touched.sort();
        touched.dedup();
        let mut cubes_by_node: HashMap<NodeId, Vec<GlobalCube>> = HashMap::new();
        for e in &entries {
            if e.alive && !e.is_divisor_def {
                cubes_by_node.entry(e.node).or_default().push(e.lits.clone());
            }
        }
        for id in touched {
            let cubes = cubes_by_node.remove(&id).unwrap_or_default();
            set_node_from_global(net, id, &cubes);
        }
        created
    }

    /// Node for node, fanin for fanin, cube for cube.
    fn assert_same_network(a: &Network, b: &Network, what: &str) {
        assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: node count");
        for id in a.node_ids() {
            assert_eq!(a.node(id), b.node(id), "{what}: node {id}");
        }
        assert_eq!(a.inputs(), b.inputs(), "{what}: inputs");
        assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
    }

    #[test]
    fn cube_kernel_equals_the_reference_on_random_plas() {
        let mut rng = StdRng::seed_from_u64(0xc0be);
        let mut extracted = 0;
        for case in 0..32 {
            let inputs = rng.gen_range(8usize..=38);
            let max_literals = rng.gen_range(2..=inputs.min(14));
            let cfg = PlaGenConfig {
                inputs,
                outputs: rng.gen_range(1usize..=8),
                terms: rng.gen_range(4usize..=140),
                min_literals: rng.gen_range(1..=max_literals),
                max_literals,
                mean_outputs_per_term: rng.gen_range(1.0..2.5),
                seed: rng.gen(),
            };
            let golden = random_pla(&cfg).to_network();
            for budget in [0, 1, 2, 10, 10_000] {
                let (mut kernel, mut reference) = (golden.clone(), golden.clone());
                let made = extract_cubes(&mut kernel, budget);
                let want = reference_extract_cubes(&mut reference, budget);
                let what = format!("case {case} {cfg:?} budget {budget}");
                assert_eq!(made, want, "{what}: extractions");
                assert_same_network(&kernel, &reference, &what);
                if budget == 10_000 {
                    extracted += made;
                    if inputs <= 12 {
                        assert_equivalent(&golden, &kernel, case);
                    }
                }
            }
        }
        // the cases must exercise long extraction chains, not only the
        // first few steps
        assert!(extracted > 300, "only {extracted} extractions over all cases");
    }

    fn small_pla_network() -> Network {
        random_pla(&PlaGenConfig {
            inputs: 8,
            outputs: 4,
            terms: 24,
            min_literals: 3,
            max_literals: 5,
            mean_outputs_per_term: 1.5,
            seed: 7,
        })
        .to_network()
    }

    #[test]
    fn cube_extraction_reduces_literals_and_preserves_function() {
        let golden = small_pla_network();
        let mut net = golden.clone();
        let before = net.literal_count();
        let made = extract_cubes(&mut net, 1000);
        assert!(made > 0, "expected at least one extraction");
        assert!(net.literal_count() < before, "literals must decrease");
        assert_equivalent(&golden, &net, 1);
    }

    #[test]
    fn cube_extraction_increases_sharing() {
        let golden = small_pla_network();
        let mut net = golden.clone();
        extract_cubes(&mut net, 1000);
        let max_fanout_before = golden.fanout_counts().into_iter().max().unwrap_or(0);
        let max_fanout_after = net.fanout_counts().into_iter().max().unwrap_or(0);
        // divisor nodes are shared; some node should now have healthy fanout
        assert!(net.num_logic_nodes() > golden.num_logic_nodes(), "extraction adds divisor nodes");
        // not a strict theorem, but with 24 overlapping terms sharing rises
        assert!(max_fanout_after >= max_fanout_before.min(3));
    }

    #[test]
    fn cube_extraction_respects_budget() {
        let mut net = small_pla_network();
        let made = extract_cubes(&mut net, 2);
        assert!(made <= 2);
    }

    #[test]
    fn kernel_extraction_on_factored_form() {
        // f1 = ae + be,  f2 = af + bf  -> kernel (a + b) shared
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let e = net.add_input("e");
        let g = net.add_input("g");
        let p = Polarity::Positive;
        let mk = |vars: usize, lits: &[&[(usize, Polarity)]]| {
            let cubes = lits
                .iter()
                .map(|ls| {
                    let mut c = Cube::one(vars);
                    for (v, pol) in ls.iter() {
                        c.set(*v, *pol);
                    }
                    c
                })
                .collect();
            Sop::from_cubes(vars, cubes)
        };
        let f1 = net.add_node(vec![a, b, e], mk(3, &[&[(0, p), (2, p)], &[(1, p), (2, p)]]));
        let f2 = net.add_node(vec![a, b, g], mk(3, &[&[(0, p), (2, p)], &[(1, p), (2, p)]]));
        net.add_output("f1", f1);
        net.add_output("f2", f2);
        let golden = net.clone();
        let before = net.literal_count();
        let made = extract_kernels(&mut net, 10, 16);
        assert_eq!(made, 1, "exactly the shared kernel a+b should be extracted");
        assert!(net.literal_count() < before);
        assert_equivalent(&golden, &net, 2);
    }

    #[test]
    fn kernel_extraction_preserves_function_on_random_pla() {
        let golden = small_pla_network();
        let mut net = golden.clone();
        extract_kernels(&mut net, 20, 24);
        assert_equivalent(&golden, &net, 3);
    }

    #[test]
    fn optimize_runs_both_passes() {
        let golden = small_pla_network();
        let mut net = golden.clone();
        let before = net.literal_count();
        optimize(&mut net, &OptimizeOptions::default());
        assert!(net.literal_count() < before);
        assert_equivalent(&golden, &net, 4);
    }

    #[test]
    fn optimize_is_idempotent_on_fixed_point() {
        let mut net = small_pla_network();
        optimize(&mut net, &OptimizeOptions::default());
        let lits = net.literal_count();
        let golden = net.clone();
        let made = optimize(&mut net, &OptimizeOptions::default());
        // a second run may still find a few kernels, but must not increase
        // literals and must preserve the function
        assert!(net.literal_count() <= lits);
        let _ = made;
        assert_equivalent(&golden, &net, 5);
    }

    #[test]
    fn divide_global_matches_sop_divide() {
        let p = Polarity::Positive;
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        // f = ab + ac, divisor = b + c -> q = a, r = 0
        let f = vec![vec![(n0, p), (n1, p)], vec![(n0, p), (n2, p)]];
        let d = vec![vec![(n1, p)], vec![(n2, p)]];
        let (q, r) = divide_global(&f, &d);
        assert_eq!(q, vec![vec![(n0, p)]]);
        assert!(r.is_empty());
    }
}
