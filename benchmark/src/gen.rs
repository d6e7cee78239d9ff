//! Seeded input generators. The program under test only ever sees the
//! text these produce (`.pla` / BLIF), never a generator-side structure,
//! and the generators share no code with `casyn_netlist::bench`, so a
//! change to the program cannot change the benchmark's inputs.

/// SplitMix64: small, seedable, and stable across toolchains.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` — independent streams
    /// for the designs of one workload.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        // the start state is hashed twice: started `stream` steps of the
        // generator's own increment apart, two streams would be one
        // sequence read a few draws apart
        let key = Rng(seed).next_u64();
        Rng(Rng(key ^ stream).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Shape of a two-level design: the published statistics of the paper's
/// IWLS93 circuits (inputs, outputs, product terms, literal density).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub inputs: usize,
    pub outputs: usize,
    pub terms: usize,
    pub min_literals: usize,
    pub max_literals: usize,
    /// Expected outputs fed per term (≥ 1): AND-plane sharing.
    pub outputs_per_term: f64,
}

/// SPLA class: 16 in / 46 out / 2307 terms → ~22k base gates.
pub const SPLA: Shape = Shape {
    inputs: 16,
    outputs: 46,
    terms: 2307,
    min_literals: 6,
    max_literals: 13,
    outputs_per_term: 1.35,
};

/// PDC class: 16 in / 40 out / 2810 terms.
pub const PDC: Shape = Shape {
    inputs: 16,
    outputs: 40,
    terms: 2810,
    min_literals: 3,
    max_literals: 11,
    outputs_per_term: 1.25,
};

/// TOO_LARGE class: 38 in / 3 out / 1390 wide terms (extraction-rich).
pub const TOO_LARGE: Shape = Shape {
    inputs: 38,
    outputs: 3,
    terms: 1390,
    min_literals: 10,
    max_literals: 22,
    outputs_per_term: 1.2,
};

/// The small service job: 16 in / 8 out / 24 terms.
pub const SMALL: Shape = Shape {
    inputs: 16,
    outputs: 8,
    terms: 24,
    min_literals: 3,
    max_literals: 8,
    outputs_per_term: 1.5,
};

impl Shape {
    /// The same class with `pct` percent of the terms.
    pub fn scaled(self, pct: usize) -> Shape {
        Shape { terms: (self.terms * pct / 100).max(self.outputs), ..self }
    }
}

/// One product term: `(variable, positive?)` literals and the outputs fed.
struct Term {
    literals: Vec<(usize, bool)>,
    outputs: Vec<usize>,
}

/// A generated two-level design, serialisable as `.pla` or BLIF text.
pub struct TwoLevel {
    shape: Shape,
    terms: Vec<Term>,
}

impl TwoLevel {
    /// Draws a design of `shape`. Term `t` always feeds output
    /// `t % outputs`, so every output is driven and every term is used.
    pub fn generate(shape: Shape, rng: &mut Rng) -> TwoLevel {
        assert!(shape.min_literals >= 1 && shape.min_literals <= shape.max_literals);
        assert!(shape.max_literals <= shape.inputs && shape.terms >= shape.outputs);
        let extra_p =
            (shape.outputs_per_term - 1.0).max(0.0) / (shape.outputs as f64 - 1.0).max(1.0);
        let terms = (0..shape.terms)
            .map(|t| {
                let n = shape.min_literals + rng.below(shape.max_literals - shape.min_literals + 1);
                let mut vars: Vec<usize> = (0..shape.inputs).collect();
                for i in 0..n {
                    let j = i + rng.below(vars.len() - i);
                    vars.swap(i, j);
                }
                let mut literals: Vec<(usize, bool)> =
                    vars[..n].iter().map(|&v| (v, rng.bit())).collect();
                literals.sort_unstable();
                let home = t % shape.outputs;
                let outputs =
                    (0..shape.outputs).filter(|&o| o == home || rng.unit() < extra_p).collect();
                Term { literals, outputs }
            })
            .collect();
        TwoLevel { shape, terms }
    }

    /// Espresso `.pla` text.
    pub fn to_pla(&self) -> String {
        let s = &self.shape;
        let mut out = format!(".i {}\n.o {}\n.p {}\n", s.inputs, s.outputs, s.terms);
        for t in &self.terms {
            let mut plane = vec![b'-'; s.inputs];
            for &(v, pos) in &t.literals {
                plane[v] = if pos { b'1' } else { b'0' };
            }
            out.push_str(std::str::from_utf8(&plane).expect("ascii"));
            out.push(' ');
            out.extend((0..s.outputs).map(|o| if t.outputs.contains(&o) { '1' } else { '0' }));
            out.push('\n');
        }
        out.push_str(".e\n");
        out
    }

    /// BLIF text: one single-cube `.names` per term (the shared AND
    /// plane) and one OR `.names` per output.
    pub fn to_blif(&self, model: &str) -> String {
        let s = &self.shape;
        let mut out = format!(".model {model}\n.inputs");
        for i in 0..s.inputs {
            out.push_str(&format!(" x{i}"));
        }
        out.push_str("\n.outputs");
        for o in 0..s.outputs {
            out.push_str(&format!(" y{o}"));
        }
        out.push('\n');
        for (t, term) in self.terms.iter().enumerate() {
            out.push_str(".names");
            for &(v, _) in &term.literals {
                out.push_str(&format!(" x{v}"));
            }
            out.push_str(&format!(" t{t}\n"));
            out.extend(term.literals.iter().map(|&(_, pos)| if pos { '1' } else { '0' }));
            out.push_str(" 1\n");
        }
        for o in 0..s.outputs {
            let feeders: Vec<usize> =
                (0..s.terms).filter(|&t| self.terms[t].outputs.contains(&o)).collect();
            out.push_str(".names");
            for t in &feeders {
                out.push_str(&format!(" t{t}"));
            }
            out.push_str(&format!(" y{o}\n"));
            for i in 0..feeders.len() {
                out.extend((0..feeders.len()).map(|j| if i == j { '1' } else { '-' }));
                out.push_str(" 1\n");
            }
        }
        out.push_str(".end\n");
        out
    }
}

/// `count` seeded input assignments of `width` bits for the equivalence
/// check.
pub fn vectors(width: usize, count: usize, rng: &mut Rng) -> Vec<Vec<bool>> {
    (0..count).map(|_| (0..width).map(|_| rng.bit()).collect()).collect()
}
