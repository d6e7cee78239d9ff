//! Bounded least-recently-used caches keyed by 64-bit content hashes,
//! plus the checksummed disk spill behind `--state-dir`.
//!
//! Two LRU instances back the service: the *result cache* (content
//! address → finished row documents) and the *prepare cache* (design +
//! prepare parameters → shared [`casyn_flow::Prepared`] front end), so
//! jobs that differ only in their K schedule reuse the expensive
//! prefix. When the server runs with a state directory, finished
//! results additionally spill to a [`DiskCache`]: one
//! FNV-1a-checksummed JSON file per content address, verified on every
//! read-back and quarantined (never served) on mismatch.

use casyn_exec::FaultPlan;
use casyn_flow::durable;
use casyn_obs as obs;
use casyn_obs::json::JsonValue;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A fixed-capacity LRU map over `u64` keys. Recency is a logical tick
/// bumped on every access; eviction scans for the stalest entry (the
/// caches hold at most a few hundred entries, so O(n) eviction is
/// cheaper than maintaining an ordered index).
#[derive(Debug)]
pub struct Lru<V> {
    cap: usize,
    tick: u64,
    map: HashMap<u64, (u64, V)>,
}

impl<V> Lru<V> {
    /// An empty cache holding at most `cap` entries (`cap` 0 disables
    /// caching: every insert is immediately dropped).
    pub fn new(cap: usize) -> Self {
        Lru { cap, tick: 0, map: HashMap::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently used.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((t, v)) => {
                *t = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(stalest) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k) {
                self.map.remove(&stalest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

/// The content-addressed disk cache under `<state-dir>/cache`: one
/// checksummed JSON file per `(domain, key)` at
/// `cache/<domain>/<key16>.json`, written atomically through
/// [`casyn_flow::durable`].
///
/// Integrity failures are never surfaced as data: a file whose FNV-1a
/// trailer does not verify (or whose payload no longer parses) is moved
/// to `cache/quarantine/` — preserving the evidence — counted under
/// `serve.cache.corrupt`, and reported as a miss so the caller
/// recomputes.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    fault: Option<FaultPlan>,
}

impl DiskCache {
    /// Opens (creating as needed) the cache rooted at `root`, with an
    /// optional fault plan armed at stage `"cache"` on every write.
    pub fn open(root: &Path, fault: Option<FaultPlan>) -> io::Result<DiskCache> {
        fs::create_dir_all(root.join("quarantine"))?;
        Ok(DiskCache { root: root.to_path_buf(), fault })
    }

    /// The file backing `(domain, key)`.
    pub fn path_for(&self, domain: &str, key: u64) -> PathBuf {
        self.root.join(domain).join(format!("{key:016x}.json"))
    }

    /// Writes `doc` for `(domain, key)`: atomic replace with a checksum
    /// trailer. Failures (real I/O or an injected `cache:disk_full` /
    /// `cache:torn_write`) leave any previous entry intact.
    pub fn put(&self, domain: &str, key: u64, doc: &JsonValue) -> io::Result<()> {
        fs::create_dir_all(self.root.join(domain))?;
        let path = self.path_for(domain, key);
        let fault = self.fault.as_ref().map(|p| (p, "cache"));
        durable::write_checksummed(&path, &doc.to_string_pretty(), fault)?;
        obs::counter_add("serve.cache.disk_writes", 1);
        Ok(())
    }

    /// Reads `(domain, key)` back, verifying the checksum trailer and
    /// re-parsing the payload. Corruption quarantines the file and
    /// reads as a miss — a damaged entry is recomputed, never served.
    pub fn get(&self, domain: &str, key: u64) -> Option<JsonValue> {
        let path = self.path_for(domain, key);
        let corrupt = |what: String| {
            self.quarantine(&path, domain, key);
            obs::counter_add("serve.cache.corrupt", 1);
            obs::log::warn(&format!("cache: quarantined {domain}/{key:016x}: {what}"));
            None
        };
        match durable::read_checksummed(&path) {
            Ok(payload) => match JsonValue::parse(&payload) {
                Ok(doc) => {
                    obs::counter_add("serve.cache.disk_hits", 1);
                    Some(doc)
                }
                Err(e) => corrupt(format!("verified payload is not JSON: {e}")),
            },
            Err(durable::DurableError::Io { source, .. })
                if source.kind() == io::ErrorKind::NotFound =>
            {
                None
            }
            Err(e) => corrupt(e.to_string()),
        }
    }

    fn quarantine(&self, path: &Path, domain: &str, key: u64) {
        let dest = self.root.join("quarantine").join(format!("{domain}-{key:016x}.json"));
        if let Err(e) = fs::rename(path, &dest) {
            // renaming within one filesystem should not fail; if it does,
            // fall back to removal so the poisoned entry cannot be re-read
            obs::log::warn(&format!("cache: cannot quarantine {}: {e}", path.display()));
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some(&"a")); // 1 is now fresher than 2
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(&"a"));
        assert_eq!(c.get(3), Some(&"c"));
    }

    #[test]
    fn reinsert_updates_value_without_evicting() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Some(&"a2"));
        assert_eq!(c.get(2), Some(&"b"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = Lru::new(0);
        c.insert(1, "a");
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("casyn-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc(v: f64) -> JsonValue {
        JsonValue::object(vec![("v".into(), JsonValue::Number(v))])
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = tmpdir("rt");
        let c = DiskCache::open(&dir, None).unwrap();
        assert!(c.get("job", 7).is_none(), "miss before put");
        c.put("job", 7, &doc(1.0)).unwrap();
        let back = c.get("job", 7).unwrap();
        assert_eq!(back.get("v").unwrap().as_f64(), Some(1.0));
        // domains are separate namespaces
        assert!(c.get("prep", 7).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_quarantines_corruption() {
        let dir = tmpdir("q");
        let c = DiskCache::open(&dir, None).unwrap();
        c.put("job", 9, &doc(2.0)).unwrap();
        let path = c.path_for("job", 9);
        // flip payload bytes without touching the trailer
        let text = fs::read_to_string(&path).unwrap().replace("2", "3");
        fs::write(&path, text).unwrap();
        assert!(c.get("job", 9).is_none(), "corruption reads as a miss");
        assert!(!path.exists(), "the damaged file is moved away");
        assert!(dir.join("quarantine").join("job-0000000000000009.json").exists());
        // a recompute can repopulate the same address
        c.put("job", 9, &doc(4.0)).unwrap();
        assert_eq!(c.get("job", 9).unwrap().get("v").unwrap().as_f64(), Some(4.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_injected_disk_full_keeps_previous_entry() {
        let dir = tmpdir("df");
        let plan = FaultPlan::parse("cache:disk_full:2").unwrap();
        let c = DiskCache::open(&dir, Some(plan)).unwrap();
        c.put("job", 1, &doc(1.0)).unwrap();
        assert!(c.put("job", 1, &doc(2.0)).is_err(), "second write hits disk_full");
        assert_eq!(c.get("job", 1).unwrap().get("v").unwrap().as_f64(), Some(1.0));
        fs::remove_dir_all(&dir).unwrap();
    }
}
