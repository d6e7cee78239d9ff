//! The metrics registry: named counters, gauges, and log-scale
//! histograms behind one global instance.
//!
//! Keys follow the `stage.metric` convention (`map.matches_tried`,
//! `route.overflow`). The global registry is disabled by default; the
//! free functions check the flag with one relaxed atomic load and return
//! immediately, which keeps instrumented hot paths within noise when
//! telemetry is off. [`Registry`] is also constructible directly so unit
//! tests can exercise isolated instances.
//!
//! Besides the shared map, each thread can keep a *stage record*
//! ([`begin_stage_record`] / [`end_stage_record`]): the writes that thread
//! makes through the free functions while the record is open, kept in
//! thread-local storage. A pipeline stage reads its own work from it
//! without copying the shared map, and without counting what sibling
//! threads did in the same window.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of power-of-two histogram buckets (covers 1 .. 2^62).
pub const HIST_BUCKETS: usize = 63;

/// A log-scale histogram: bucket `i` counts values in `[2^(i-1), 2^i)`,
/// with bucket 0 counting values below 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Per-bucket counts, log2-scaled.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram. Public so callers that already hold raw
    /// samples (client latencies, windowed merges) can reuse the same
    /// bucket/percentile math instead of reimplementing it.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v < 1.0 {
            return 0;
        }
        ((v.log2().floor() as usize) + 1).min(HIST_BUCKETS - 1)
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Adds every value recorded into `other`, as if each had been
    /// recorded here (up to the float rounding of `sum`).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Empties the histogram in place, keeping its bucket storage.
    fn clear(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.buckets.fill(0);
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The value range bucket `i` covers: `[0, 1)` for bucket 0,
    /// `[2^(i-1), 2^i)` above.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 1.0)
        } else {
            (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
        }
    }

    /// Estimates the `p`-quantile (`p` in `[0, 1]`) from the log2
    /// buckets by linear interpolation inside the bucket the rank falls
    /// in, clamped to the observed `[min, max]`. Exact to within one
    /// bucket width — good enough to tell p50 from a p99 tail, which is
    /// what the telemetry table needs. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Degenerate observed range: a single distinct value has nothing
        // to interpolate (every quantile IS that value), and NaN-only
        // input never tightens the seed bounds (min stays +inf above
        // max at -inf), which would make the clamp below panic.
        if self.min >= self.max {
            return if self.min.is_finite() { self.min } else { 0.0 };
        }
        let target = p.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Median estimate (see [`Histogram::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins measurement.
    Gauge(f64),
    /// Log-scale distribution of recorded values.
    Histogram(Histogram),
}

impl MetricValue {
    /// The metric as a single representative number (counter value, gauge
    /// value, or histogram mean) for table/JSON summaries.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(n) => *n as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.mean(),
        }
    }
}

/// A point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The value of counter `key`, if present and a counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.metrics.get(key) {
            Some(MetricValue::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value of gauge `key`, if present and a gauge.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.metrics.get(key) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `key`, if present and a histogram.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.metrics.get(key) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Metrics changed or added since `earlier`: counters become the
    /// difference, gauges and histograms the current value. Used to
    /// attribute global-registry activity to one pipeline stage. A
    /// counter that went backwards means the registry was reset after
    /// `earlier`; the post-reset value is reported rather than dropping
    /// the key, so resets don't silently zero out stage attribution.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = BTreeMap::new();
        for (k, v) in &self.metrics {
            match (v, earlier.metrics.get(k)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    if now > then {
                        out.insert(k.clone(), MetricValue::Counter(now - then));
                    } else if now < then {
                        out.insert(k.clone(), MetricValue::Counter(*now));
                    }
                }
                (v, old) => {
                    if old != Some(v) {
                        out.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        Snapshot { metrics: out }
    }
}

/// One metric write, alone or in a batch ([`write_batch`]).
#[derive(Debug, Clone, Copy)]
pub enum Write<'a> {
    /// Adds to a counter ([`counter_add`]).
    Counter(&'a str, u64),
    /// Sets a gauge ([`gauge_set`]).
    Gauge(&'a str, f64),
    /// Records one value into a histogram ([`hist_record`]).
    Record(&'a str, f64),
    /// Merges a histogram's samples into one.
    Merge(&'a str, &'a Histogram),
}

impl Write<'_> {
    /// The key written.
    fn key(&self) -> &str {
        match self {
            Write::Counter(k, _)
            | Write::Gauge(k, _)
            | Write::Record(k, _)
            | Write::Merge(k, _) => k,
        }
    }

    /// Applies the write to the metric `v`. Returns false when `v` held
    /// another kind of metric, which the write's own then replaces.
    fn apply(&self, v: &mut MetricValue) -> bool {
        match (self, v) {
            (Write::Counter(_, n), MetricValue::Counter(c)) => *c += n,
            (Write::Gauge(_, g), MetricValue::Gauge(x)) => *x = *g,
            (Write::Record(_, x), MetricValue::Histogram(h)) => h.record(*x),
            (Write::Merge(_, o), MetricValue::Histogram(h)) => h.merge(o),
            (w, v) => {
                *v = w.create();
                return false;
            }
        }
        true
    }

    /// The metric a write to an absent key creates.
    fn create(&self) -> MetricValue {
        match self {
            Write::Counter(_, n) => MetricValue::Counter(*n),
            Write::Gauge(_, g) => MetricValue::Gauge(*g),
            Write::Record(_, x) => {
                let mut h = Histogram::new();
                h.record(*x);
                MetricValue::Histogram(h)
            }
            Write::Merge(_, o) => MetricValue::Histogram((*o).clone()),
        }
    }
}

/// A named-metric store. One global instance backs the free functions;
/// tests may construct their own.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, MetricValue>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key`, creating it at zero if absent.
    pub fn counter_add(&self, key: &str, n: u64) {
        self.write_batch(&[Write::Counter(key, n)]);
    }

    /// Sets gauge `key` to `v`.
    pub fn gauge_set(&self, key: &str, v: f64) {
        self.write_batch(&[Write::Gauge(key, v)]);
    }

    /// Records `v` into histogram `key`, creating it if absent.
    pub fn hist_record(&self, key: &str, v: f64) {
        self.write_batch(&[Write::Record(key, v)]);
    }

    /// Applies `writes` in order under one lock. A write to a key that
    /// holds another kind of metric replaces it.
    pub fn write_batch(&self, writes: &[Write<'_>]) {
        let mut m = self.metrics.lock().expect("no metric write panics holding the registry lock");
        for w in writes {
            match m.get_mut(w.key()) {
                Some(v) => {
                    w.apply(v);
                }
                None => {
                    m.insert(w.key().to_string(), w.create());
                }
            }
        }
    }

    /// Copies out every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { metrics: self.metrics.lock().unwrap().clone() }
    }

    /// Removes every metric.
    pub fn reset(&self) {
        self.metrics.lock().unwrap().clear();
    }
}

/// How many times the global registry has been [`reset`]: a stage record
/// treats a key it last wrote before the latest reset as new.
static RESETS: AtomicU64 = AtomicU64::new(0);

/// One key of a thread's stage record. Entries outlive the record that
/// created them, so a thread allocates for a key only the first time it
/// writes it.
#[derive(Debug)]
struct Entry {
    key: String,
    /// The open record's value: the counter's additions, the gauge's
    /// last value, the histogram's own samples.
    value: MetricValue,
    /// The record that last wrote the key ([`StageRecord::record`]).
    record: u64,
    /// [`RESETS`] when the thread last wrote the key.
    resets: u64,
    /// The key is new to this thread since the last reset, or changed
    /// kind: it is reported even when the record left it at zero.
    fresh: bool,
    /// The gauge's value before the record's first write to it.
    gauge_then: Option<f64>,
}

impl Entry {
    /// Whether the record changed the key as the registry saw it: the
    /// same rule as [`Snapshot::delta_since`] for a run on one thread.
    fn changed(&self) -> bool {
        match &self.value {
            MetricValue::Counter(n) => *n > 0 || self.fresh,
            MetricValue::Gauge(g) => self.fresh || self.gauge_then != Some(*g),
            MetricValue::Histogram(h) => h.count > 0,
        }
    }
}

/// The calling thread's writes since [`begin_stage_record`].
#[derive(Debug, Default)]
struct StageRecord {
    /// Increments at every [`begin_stage_record`].
    record: u64,
    index: BTreeMap<String, usize>,
    entries: Vec<Entry>,
    /// Entries the open record wrote, in first-write order.
    touched: Vec<usize>,
}

impl StageRecord {
    /// The entry for `key`, rebased the first time the open record
    /// writes it: counters and histograms restart empty, gauges remember
    /// the value they had.
    fn touch(&mut self, key: &str) -> &mut Entry {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => {
                self.index.insert(key.to_string(), self.entries.len());
                self.entries.push(Entry {
                    key: key.to_string(),
                    value: MetricValue::Counter(0),
                    record: 0,
                    resets: u64::MAX,
                    fresh: true,
                    gauge_then: None,
                });
                self.entries.len() - 1
            }
        };
        let e = &mut self.entries[i];
        if e.record != self.record {
            let resets = RESETS.load(Ordering::Relaxed);
            e.record = self.record;
            e.fresh = e.resets != resets;
            e.resets = resets;
            e.gauge_then = None;
            match &mut e.value {
                MetricValue::Counter(n) => *n = 0,
                MetricValue::Gauge(g) if !e.fresh => e.gauge_then = Some(*g),
                MetricValue::Gauge(_) => {}
                MetricValue::Histogram(h) => h.clear(),
            }
            self.touched.push(i);
        }
        e
    }

    fn apply(&mut self, w: &Write<'_>) {
        let e = self.touch(w.key());
        if !w.apply(&mut e.value) {
            e.fresh = true;
        }
    }
}

thread_local! {
    /// Whether this thread's stage record is open: the one check a
    /// metric write pays when it is not.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static RECORD: RefCell<StageRecord> = RefCell::new(StageRecord::default());
}

/// Applies `f` to the calling thread's stage record when it is open.
#[inline]
fn record(f: impl FnOnce(&mut StageRecord)) {
    if RECORDING.with(Cell::get) {
        let _ = RECORD.try_with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                f(&mut r);
            }
        });
    }
}

/// Opens the calling thread's stage record: from now until
/// [`end_stage_record`], every metric write this thread makes through the
/// free functions ([`counter_add`], [`gauge_set`], [`hist_record`],
/// [`write_batch`]) is also kept for it. Writes by other threads are not.
/// Opening a record that is already open restarts it; records do not
/// nest.
pub fn begin_stage_record() {
    let _ = RECORD.try_with(|r| {
        if let Ok(mut r) = r.try_borrow_mut() {
            r.record += 1;
            r.touched.clear();
            RECORDING.with(|on| on.set(true));
        }
    });
}

/// Closes the calling thread's stage record and hands `visit` every key
/// the record changed, in first-write order: counters with the record's
/// additions, gauges with the last value set (when it differs from the
/// thread's value before), histograms with the record's own samples. A
/// key the thread writes for the first time since the last [`reset`] is
/// reported even at zero. `visit` must not write metrics. The cost is one
/// visit per key the record wrote; nothing allocates once the thread has
/// seen its keys.
pub fn end_stage_record(mut visit: impl FnMut(&str, &MetricValue)) {
    RECORDING.with(|on| on.set(false));
    let _ = RECORD.try_with(|r| {
        if let Ok(r) = r.try_borrow() {
            for &i in &r.touched {
                let e = &r.entries[i];
                if e.changed() {
                    visit(&e.key, &e.value);
                }
            }
        }
    });
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry backing the free functions.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turns global metric collection on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global metric collection is on. Hot call-sites check this
/// before doing any work beyond the load itself.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Applies `writes` to the global registry, under one lock, when
/// collection is enabled: a call site with several metrics to flush pays
/// for one write.
#[inline]
pub fn write_batch(writes: &[Write<'_>]) {
    if enabled() {
        global().write_batch(writes);
        record(|r| writes.iter().for_each(|w| r.apply(w)));
    }
}

/// Adds `n` to global counter `key` when collection is enabled.
#[inline]
pub fn counter_add(key: &str, n: u64) {
    write_batch(&[Write::Counter(key, n)]);
}

/// Sets global gauge `key` when collection is enabled.
#[inline]
pub fn gauge_set(key: &str, v: f64) {
    write_batch(&[Write::Gauge(key, v)]);
}

/// Records into global histogram `key` when collection is enabled.
#[inline]
pub fn hist_record(key: &str, v: f64) {
    write_batch(&[Write::Record(key, v)]);
}

/// Snapshot of the global registry (works even while disabled).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry.
pub fn reset() {
    RESETS.fetch_add(1, Ordering::Relaxed);
    global().reset()
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        reg.counter_add("t.hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("t.hits"), Some(threads * per_thread));
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(0.5), 0);
        assert_eq!(Histogram::bucket_of(1.0), 1);
        assert_eq!(Histogram::bucket_of(1.9), 1);
        assert_eq!(Histogram::bucket_of(2.0), 2);
        assert_eq!(Histogram::bucket_of(3.99), 2);
        assert_eq!(Histogram::bucket_of(4.0), 3);
        assert_eq!(Histogram::bucket_of(1024.0), 11);

        let reg = Registry::new();
        for v in [0.2, 1.5, 1.7, 6.0, 6.5, 7.9, 1e300] {
            reg.hist_record("t.sizes", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("t.sizes").unwrap();
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[3], 3);
        // out-of-range magnitudes clamp into the last bucket
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.min, 0.2);
        assert_eq!(h.max, 1e300);
    }

    #[test]
    fn percentiles_estimate_within_bucket_resolution() {
        let reg = Registry::new();
        // 100 values 1..=100: p50 ≈ 50, p95 ≈ 95, p99 ≈ 99; the log2
        // buckets bound each estimate to its bucket's range.
        for v in 1..=100 {
            reg.hist_record("t.lat", v as f64);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("t.lat").unwrap();
        let p50 = h.p50();
        assert!((32.0..64.0).contains(&p50), "p50 {p50} outside its bucket");
        let p95 = h.p95();
        assert!((64.0..=100.0).contains(&p95), "p95 {p95} outside its bucket");
        let p99 = h.p99();
        assert!(p99 >= p95, "p99 {p99} below p95 {p95}");
        assert!(p99 <= 100.0, "p99 {p99} above observed max");

        // monotone in p, clamped to observed range
        assert!(h.percentile(0.0) >= h.min);
        assert_eq!(h.percentile(1.0), h.max);

        // empty histogram reports 0
        assert_eq!(Histogram::new().p50(), 0.0);

        // single value: every quantile is that value
        let reg = Registry::new();
        reg.hist_record("t.one", 7.0);
        let snap = reg.snapshot();
        let one = snap.histogram("t.one").unwrap();
        assert_eq!(one.p50(), 7.0);
        assert_eq!(one.p99(), 7.0);
    }

    #[test]
    fn percentile_empty_histogram_is_zero_at_every_p() {
        let h = Histogram::new();
        for p in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(h.percentile(p), 0.0, "empty histogram at p={p}");
        }
    }

    #[test]
    fn percentile_single_value_is_exact_not_interpolated() {
        // 7.3 sits mid-bucket (4, 8); naive interpolation would report
        // bucket positions like 4.0 or 6.0 instead of the value itself
        let reg = Registry::new();
        for _ in 0..10 {
            reg.hist_record("t.single", 7.3);
        }
        let h = reg.snapshot().histogram("t.single").unwrap().clone();
        for p in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile(p), 7.3, "single-value histogram at p={p}");
        }
    }

    #[test]
    fn percentile_single_bucket_stays_inside_observed_range() {
        // 900, 950, 1000 all land in bucket (512, 1024): interpolation
        // must clamp to the observed [900, 1000], never report 512ish
        let reg = Registry::new();
        for v in [900.0, 950.0, 1000.0] {
            reg.hist_record("t.bucket", v);
        }
        let h = reg.snapshot().histogram("t.bucket").unwrap().clone();
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let v = h.percentile(p);
            assert!((900.0..=1000.0).contains(&v), "p={p} gave {v} outside [900, 1000]");
        }
    }

    #[test]
    fn percentile_survives_nan_records() {
        // NaN never tightens min/max; the quantile must not panic on the
        // inverted seed bounds and reports the empty-equivalent 0
        let reg = Registry::new();
        reg.hist_record("t.nan", f64::NAN);
        reg.hist_record("t.nan", f64::NAN);
        let h = reg.snapshot().histogram("t.nan").unwrap().clone();
        assert_eq!(h.count, 2);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn percentile_clamps_p_outside_unit_interval() {
        let reg = Registry::new();
        for v in 1..=32 {
            reg.hist_record("t.clamp", v as f64);
        }
        let h = reg.snapshot().histogram("t.clamp").unwrap().clone();
        assert_eq!(h.percentile(-0.5), h.percentile(0.0));
        assert_eq!(h.percentile(1.5), h.percentile(1.0));
        assert_eq!(h.percentile(1.5), h.max);
    }

    #[test]
    fn snapshot_reset_and_delta_semantics() {
        let reg = Registry::new();
        reg.counter_add("s.count", 3);
        reg.gauge_set("s.level", 2.5);
        let before = reg.snapshot();

        reg.counter_add("s.count", 4);
        reg.gauge_set("s.level", 9.0);
        reg.counter_add("s.other", 1);
        let after = reg.snapshot();

        let d = after.delta_since(&before);
        assert_eq!(d.counter("s.count"), Some(4));
        assert_eq!(d.gauge("s.level"), Some(9.0));
        assert_eq!(d.counter("s.other"), Some(1));

        // snapshots are independent copies
        reg.reset();
        assert!(reg.snapshot().metrics.is_empty());
        assert_eq!(after.counter("s.count"), Some(7));

        // unchanged metrics do not appear in a delta
        let same = after.delta_since(&after);
        assert!(same.metrics.is_empty());
    }

    #[test]
    fn delta_reports_post_reset_counter_instead_of_dropping_it() {
        let reg = Registry::new();
        reg.counter_add("r.count", 10);
        let before = reg.snapshot();

        reg.reset();
        reg.counter_add("r.count", 2);
        let d = reg.snapshot().delta_since(&before);
        assert_eq!(d.counter("r.count"), Some(2));
    }

    #[test]
    fn stage_record_keeps_only_its_own_threads_writes() {
        let _guard = test_lock();
        set_enabled(true);
        // an earlier record of this thread left the gauge at 2
        begin_stage_record();
        gauge_set("rec.level", 2.0);
        end_stage_record(|_, _| {});
        begin_stage_record();
        counter_add("rec.count", 3);
        hist_record("rec.sizes", 5.0);
        gauge_set("rec.level", 2.0);
        // a sibling thread writes the same keys while the record is open
        thread::spawn(|| {
            counter_add("rec.count", 100);
            hist_record("rec.sizes", 1000.0);
        })
        .join()
        .unwrap();
        let mut h = Histogram::new();
        h.record(7.0);
        write_batch(&[Write::Merge("rec.sizes", &h)]);
        let mut seen = BTreeMap::new();
        end_stage_record(|k, v| {
            seen.insert(k.to_string(), v.clone());
        });
        set_enabled(false);
        assert_eq!(seen.get("rec.count"), Some(&MetricValue::Counter(3)));
        let own = match seen.get("rec.sizes") {
            Some(MetricValue::Histogram(h)) => h.clone(),
            other => panic!("no histogram: {other:?}"),
        };
        assert_eq!((own.count, own.min, own.max), (2, 5.0, 7.0));
        // the gauge was set to the value the thread had left: no change
        assert!(!seen.contains_key("rec.level"), "{seen:?}");
        // the registry itself saw every thread
        assert_eq!(snapshot().counter("rec.count"), Some(103));
        assert_eq!(snapshot().histogram("rec.sizes").map(|h| h.count), Some(3));

        // a new record starts empty; writes after it closed are not kept
        begin_stage_record();
        end_stage_record(|k, _| panic!("empty record reported {k}"));
        set_enabled(true);
        counter_add("rec.count", 1);
        set_enabled(false);
        begin_stage_record();
        end_stage_record(|k, _| panic!("closed record kept {k}"));
    }

    #[test]
    fn write_batch_applies_in_order() {
        let reg = Registry::new();
        let mut h = Histogram::new();
        h.record(4.0);
        reg.write_batch(&[
            Write::Counter("b.count", 1),
            Write::Counter("b.count", 2),
            Write::Gauge("b.level", 1.0),
            Write::Record("b.sizes", 3.0),
            Write::Merge("b.sizes", &h),
            // a write of another kind replaces the metric
            Write::Counter("b.level", 5),
        ]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("b.count"), Some(3));
        assert_eq!(snap.counter("b.level"), Some(5));
        assert_eq!(snap.histogram("b.sizes").map(|h| (h.count, h.sum)), Some((2, 7.0)));
    }

    #[test]
    fn histogram_merge_equals_recording_each_value() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0.5, 3.0, 9.0] {
            a.record(v);
            all.record(v);
        }
        for v in [2.0, 1e6] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        a.merge(&Histogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn global_free_functions_respect_enable_flag() {
        let _guard = test_lock();
        set_enabled(false);
        counter_add("g.off", 1);
        hist_record("g.off_h", 1.0);
        let snap = snapshot();
        assert!(!snap.metrics.contains_key("g.off"));
        assert!(!snap.metrics.contains_key("g.off_h"));

        set_enabled(true);
        counter_add("g.on", 2);
        counter_add("g.on", 3);
        assert_eq!(snapshot().counter("g.on"), Some(5));
        set_enabled(false);
    }
}
