//! Shared content-key derivation: the stable-field hashing that both
//! the run ledger and the `casyn-serve` artifact cache address with.
//!
//! A content key is FNV-1a over a *canonical string* built from stable
//! fields only. Two rules keep keys meaningful:
//!
//! 1. **Timings never enter a key.** Wall-clock and allocator readings
//!    are machine noise; hashing them would give identical runs
//!    different addresses and make caching impossible. Only inputs
//!    (design bytes, library contents, flow parameters) and
//!    deterministic outputs (quality metrics) are hashed.
//! 2. **Every field is length-delimited by construction.** Fields are
//!    joined with `\x1f` (unit separator), which [`KeyBuilder`] strips
//!    from field values, so `("ab", "c")` and `("a", "bc")` cannot
//!    collide.
//!
//! [`KeyBuilder`] is the streaming canonicalizer; [`library_fingerprint`]
//! hashes the electrical identity of a cell library; the ledger's
//! `JobRecord::content_hash` and serve's cache keys are both built on
//! top of it.

use casyn_library::Library;

/// 64-bit FNV-1a over a byte string — the workspace's content hash.
/// Dependency-free and stable across platforms; collision resistance is
/// not a goal (records are not adversarial), addressability is.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a canonical string field by field and hashes it with FNV-1a.
///
/// The domain tag passed to [`KeyBuilder::new`] namespaces key spaces:
/// a ledger record and a serve cache entry over the same inputs hash to
/// different addresses, so one can never be mistaken for the other.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    canon: String,
}

const SEP: char = '\x1f';

impl KeyBuilder {
    /// Starts a key in the given domain (e.g. `"casyn.run.v1"`).
    pub fn new(domain: &str) -> KeyBuilder {
        let mut b = KeyBuilder { canon: String::new() };
        b.push_field(domain);
        b
    }

    fn push_field(&mut self, field: &str) {
        // the separator is reserved; strip it so no field can forge a
        // boundary
        for c in field.chars().filter(|&c| c != SEP) {
            self.canon.push(c);
        }
        self.canon.push(SEP);
    }

    /// Appends a string field.
    pub fn str(mut self, v: &str) -> KeyBuilder {
        self.push_field(v);
        self
    }

    /// Appends a number using the shortest-roundtrip float formatting,
    /// so `0.1` and `0.10000000000000001` canonicalize identically iff
    /// they are the same f64.
    pub fn num(mut self, v: f64) -> KeyBuilder {
        self.push_field(&format!("{v}"));
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, v: u64) -> KeyBuilder {
        self.push_field(&format!("{v}"));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, v: bool) -> KeyBuilder {
        self.push_field(if v { "t" } else { "f" });
        self
    }

    /// Appends a previously computed 64-bit hash (hex, zero-padded).
    pub fn hash(mut self, v: u64) -> KeyBuilder {
        self.push_field(&format!("{v:016x}"));
        self
    }

    /// Appends a slice of numbers as one field group, preserving order
    /// and length.
    pub fn nums(mut self, vs: &[f64]) -> KeyBuilder {
        self.push_field(&format!("#{}", vs.len()));
        for &v in vs {
            self.push_field(&format!("{v}"));
        }
        self
    }

    /// The canonical string built so far (for tests and debugging).
    pub fn canon(&self) -> &str {
        &self.canon
    }

    /// Hashes the canonical string.
    pub fn finish(self) -> u64 {
        fnv1a64(self.canon.as_bytes())
    }
}

/// Hashes the electrical identity of a library: its name plus, per
/// cell, every field that influences mapping, placement, routing or
/// timing. Two libraries with the same fingerprint produce
/// bit-identical flow results for the same design and parameters, so
/// the fingerprint is a sound cache-key component.
pub fn library_fingerprint(lib: &Library) -> u64 {
    let mut b = KeyBuilder::new("casyn.lib.v1").str(lib.name()).int(lib.cells().len() as u64);
    for c in lib.cells() {
        b = b
            .str(&c.name)
            .num(c.area)
            .num(c.width)
            .int(c.num_pins as u64)
            .num(c.pin_cap)
            .num(c.intrinsic)
            .num(c.drive_res)
            .bool(c.sequential)
            .num(c.clk_to_q)
            .num(c.setup)
            .int(c.patterns.len() as u64);
        for p in &c.patterns {
            b = b.str(&p.to_string());
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casyn_library::{corelib018, Library};

    #[test]
    fn fnv_vectors() {
        // standard FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn keys_are_stable_across_builds() {
        // pinned vectors: these keys are persisted in ledger file names
        // and serve cache addresses, so they must never drift between
        // versions. If this test fails, the canonicalization changed and
        // every existing content address is invalidated.
        assert_eq!(KeyBuilder::new("casyn.test").finish(), 0x7d2d_2086_1b8f_f146);
        let k = KeyBuilder::new("casyn.run.v1")
            .str("t8")
            .hash(0xdead_beef)
            .num(0.1)
            .int(3)
            .bool(true)
            .nums(&[0.0, 0.001]);
        assert_eq!(
            k.canon(),
            "casyn.run.v1\u{1f}t8\u{1f}00000000deadbeef\u{1f}0.1\u{1f}3\u{1f}t\u{1f}#2\u{1f}0\u{1f}0.001\u{1f}"
        );
        assert_eq!(k.finish(), 0x8008_49b7_e40e_f642);
    }

    #[test]
    fn fields_are_delimited() {
        // ("ab","c") must not collide with ("a","bc")
        let k1 = KeyBuilder::new("d").str("ab").str("c").finish();
        let k2 = KeyBuilder::new("d").str("a").str("bc").finish();
        assert_ne!(k1, k2);
        // list length is part of the key
        let k3 = KeyBuilder::new("d").nums(&[1.0, 2.0]).finish();
        let k4 = KeyBuilder::new("d").nums(&[1.0]).nums(&[2.0]).finish();
        assert_ne!(k3, k4);
        // domains separate key spaces over identical fields
        let k5 = KeyBuilder::new("ledger").str("x").finish();
        let k6 = KeyBuilder::new("serve").str("x").finish();
        assert_ne!(k5, k6);
    }

    fn rebuilt(tweak: impl Fn(&mut casyn_library::Cell)) -> Library {
        let base = corelib018();
        let mut lib = Library::new(base.name());
        for (i, c) in base.cells().iter().enumerate() {
            let mut c = c.clone();
            if i == 0 {
                tweak(&mut c);
            }
            lib.push(c);
        }
        lib
    }

    #[test]
    fn library_fingerprint_tracks_electrical_identity() {
        let fp = library_fingerprint(&corelib018());
        assert_eq!(fp, library_fingerprint(&rebuilt(|_| {})), "deterministic");
        // renaming a cell or touching a delay coefficient moves the key
        assert_ne!(library_fingerprint(&rebuilt(|c| c.name = "ND2X".into())), fp);
        assert_ne!(library_fingerprint(&rebuilt(|c| c.intrinsic += 0.01)), fp);
        assert_ne!(library_fingerprint(&rebuilt(|c| c.area += 1.0)), fp);
    }
}
