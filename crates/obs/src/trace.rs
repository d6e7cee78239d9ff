//! Hierarchical, thread-aware span tracing.
//!
//! Where the metrics registry ([`crate::Registry`]) answers *how much*
//! (counts, distributions), this module answers *where the time went*:
//! every instrumented scope becomes a span with an id, a parent id, the
//! label of the thread it ran on, a start offset and duration relative
//! to a process-wide epoch, and free-form key=value attributes. Pool
//! workers label their threads (`w0`, `w1`, …) so each job lands on its
//! worker's track and each worker's idle gaps are visible.
//!
//! Collection is designed around the pipeline's determinism contract:
//! spans observe the run, they never feed back into it. No span value is
//! ever read by flow code, timestamps live only in telemetry sinks, and
//! when tracing is disabled (the default) [`span`] returns an inert
//! guard after a single relaxed atomic load.
//!
//! Buffering is per-thread to keep the hot path lock-free-ish: each
//! thread appends finished events to a thread-local `Vec` and tracks its
//! open-span stack there; the global mutex is touched only when a buffer
//! flushes (buffer full with no open spans, thread exit, or
//! [`take_events`]). Scoped pool threads exit before their `par_map`
//! returns, so by the time a caller exports a trace every worker buffer
//! has drained.
//!
//! One sink: [`to_chrome_trace`] (Chrome trace-event format, loadable in
//! chrome://tracing or Perfetto).

use crate::json::JsonValue;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// An attribute value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Numeric attribute (serialized via `fmt_f64`).
    Num(f64),
    /// String attribute.
    Str(String),
}

/// What kind of event a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scope with a duration.
    Span,
    /// A point-in-time marker (retry, fault, check failure).
    Instant,
}

/// One finished trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Unique event id (process-wide, starts at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Event name (`route.iter`, `exec.job`, …).
    pub name: String,
    /// Label of the thread that produced the event (`main`, `w0`, …).
    pub thread: String,
    /// Microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: f64,
    /// Span or instant.
    pub kind: EventKind,
    /// key=value attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Backstop flush threshold for threads holding a long-lived root span:
/// completed events are safe to ship at any time, the threshold just
/// bounds buffer growth. The primary flush point is every top-level
/// span close — thread teardown (and thus the TLS destructor) is NOT
/// ordered before `std::thread::scope` returns, so the last span on a
/// scoped worker must push its buffer out itself.
const FLUSH_AT: usize = 256;

/// The process-wide instant all trace timestamps are relative to.
/// Initialized on first use; [`elapsed_us`]/[`elapsed_ms`] are what the
/// log prefix and span timestamps share.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch.
pub fn elapsed_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Milliseconds since the trace epoch.
pub fn elapsed_ms() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e3
}

/// Turns span collection on or off (off by default). Enabling also pins
/// the epoch so the first span does not start at 0 microseconds minus
/// initialization cost.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Whether span collection is on.
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

struct ThreadTrace {
    label: Option<String>,
    stack: Vec<u64>,
    buf: Vec<TraceEvent>,
}

impl ThreadTrace {
    const fn new() -> Self {
        ThreadTrace { label: None, stack: Vec::new(), buf: Vec::new() }
    }

    fn label(&mut self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let l = std::thread::current().name().unwrap_or("main").to_string();
        self.label = Some(l.clone());
        l
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        COLLECTED.lock().unwrap().append(&mut self.buf);
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadTrace> = const { RefCell::new(ThreadTrace::new()) };
}

/// Names the current thread's track (`w0`, `w1`, …). Pool workers call
/// this once at spawn; unnamed threads default to their std thread name
/// or `main`. The label also prefixes `CASYN_LOG` lines.
pub fn set_thread_label(label: &str) {
    TLS.with(|t| t.borrow_mut().label = Some(label.to_string()));
}

/// The current thread's track label (for the log prefix).
pub fn thread_label() -> String {
    TLS.with(|t| t.borrow_mut().label())
}

/// RAII guard for one span. Created by [`span`]; records the event into
/// the thread-local buffer when dropped. Inert (and free) when tracing
/// is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
    alloc_start: u64,
    attrs: Vec<(String, AttrValue)>,
    active: bool,
}

/// Opens a span named `name` on the current thread. The span closes
/// (and is recorded) when the returned guard drops; nested calls chain
/// parent ids through a per-thread stack, so guards must drop in LIFO
/// order — the natural shape for scoped instrumentation.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: None,
            name: String::new(),
            start_us: 0.0,
            alloc_start: 0,
            attrs: Vec::new(),
            active: false,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied();
        t.stack.push(id);
        parent
    });
    SpanGuard {
        id,
        parent,
        name: name.to_string(),
        start_us: elapsed_us(),
        alloc_start: crate::alloc::thread_allocated_bytes(),
        attrs: Vec::new(),
        active: true,
    }
}

impl SpanGuard {
    /// Attaches a numeric attribute.
    pub fn attr_num(&mut self, key: &str, v: f64) {
        if self.active {
            self.attrs.push((key.to_string(), AttrValue::Num(v)));
        }
    }

    /// Attaches a string attribute.
    pub fn attr_str(&mut self, key: &str, v: &str) {
        if self.active {
            self.attrs.push((key.to_string(), AttrValue::Str(v.to_string())));
        }
    }

    /// This span's id (0 when tracing is disabled). Lets callers link
    /// related records; flow code never reads it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_us = elapsed_us();
        let alloc_delta = crate::alloc::thread_allocated_bytes().saturating_sub(self.alloc_start);
        if alloc_delta > 0 {
            self.attrs.push(("alloc_bytes".to_string(), AttrValue::Num(alloc_delta as f64)));
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            // LIFO pop; tolerate out-of-order drops by removing this id
            // wherever it sits so the stack never wedges.
            if t.stack.last() == Some(&self.id) {
                t.stack.pop();
            } else if let Some(pos) = t.stack.iter().rposition(|&s| s == self.id) {
                t.stack.remove(pos);
            }
            let thread = t.label();
            t.buf.push(TraceEvent {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                thread,
                start_us: self.start_us,
                dur_us: (end_us - self.start_us).max(0.0),
                kind: EventKind::Span,
                attrs: std::mem::take(&mut self.attrs),
            });
            if t.stack.is_empty() || t.buf.len() >= FLUSH_AT {
                t.flush();
            }
        });
    }
}

/// Records a point-in-time marker (retry, injected fault, check
/// failure) under the current thread's open span, if any.
pub fn instant(name: &str, attrs: &[(&str, AttrValue)]) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let ts = elapsed_us();
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied();
        let thread = t.label();
        t.buf.push(TraceEvent {
            id,
            parent,
            name: name.to_string(),
            thread,
            start_us: ts,
            dur_us: 0.0,
            kind: EventKind::Instant,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
        if t.stack.is_empty() {
            t.flush();
        }
    });
}

/// Drains every collected event: flushes the calling thread's buffer,
/// then swaps out the global collector. Events are returned sorted by
/// (start, id) so exports are stable. Worker threads flush on exit
/// (scoped threads join before their `par_map` returns), so calling
/// this after a parallel region sees the workers' events too.
pub fn take_events() -> Vec<TraceEvent> {
    TLS.with(|t| t.borrow_mut().flush());
    let mut events = std::mem::take(&mut *COLLECTED.lock().unwrap());
    events.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
    events
}

/// Discards every collected event (including the calling thread's
/// buffer). Test isolation helper.
pub fn clear() {
    drop(take_events());
}

fn attrs_json(attrs: &[(String, AttrValue)]) -> JsonValue {
    JsonValue::Object(
        attrs
            .iter()
            .map(|(k, v)| {
                let jv = match v {
                    AttrValue::Num(n) => JsonValue::Number(*n),
                    AttrValue::Str(s) => JsonValue::Str(s.clone()),
                };
                (k.clone(), jv)
            })
            .collect(),
    )
}

/// Serializes events in Chrome trace-event format: a bare JSON array of
/// `ph:"M"` thread-name metadata, `ph:"X"` complete events (`ts`/`dur`
/// in microseconds), and `ph:"i"` instants, loadable in chrome://tracing
/// and Perfetto. Thread ids are assigned by sorted label so the output
/// is stable across runs.
pub fn to_chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let mut labels: Vec<&str> = events.iter().map(|e| e.thread.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    let tid_of = |thread: &str| -> f64 {
        (labels.iter().position(|l| *l == thread).map(|i| i + 1).unwrap_or(0)) as f64
    };
    let mut items: Vec<JsonValue> = labels
        .iter()
        .map(|label| {
            JsonValue::object(vec![
                ("name".into(), JsonValue::Str("thread_name".into())),
                ("ph".into(), JsonValue::Str("M".into())),
                ("pid".into(), JsonValue::Number(1.0)),
                ("tid".into(), JsonValue::Number(tid_of(label))),
                (
                    "args".into(),
                    JsonValue::object(vec![("name".into(), JsonValue::Str((*label).into()))]),
                ),
            ])
        })
        .collect();
    for e in events {
        let mut args = vec![("id".into(), JsonValue::Number(e.id as f64))];
        if let Some(p) = e.parent {
            args.push(("parent".into(), JsonValue::Number(p as f64)));
        }
        if let JsonValue::Object(entries) = attrs_json(&e.attrs) {
            args.extend(entries);
        }
        let mut fields = vec![
            ("name".into(), JsonValue::Str(e.name.clone())),
            ("cat".into(), JsonValue::Str("casyn".into())),
            (
                "ph".into(),
                JsonValue::Str(
                    match e.kind {
                        EventKind::Span => "X",
                        EventKind::Instant => "i",
                    }
                    .into(),
                ),
            ),
            ("ts".into(), JsonValue::Number(e.start_us)),
        ];
        if e.kind == EventKind::Span {
            fields.push(("dur".into(), JsonValue::Number(e.dur_us)));
        } else {
            fields.push(("s".into(), JsonValue::Str("t".into())));
        }
        fields.push(("pid".into(), JsonValue::Number(1.0)));
        fields.push(("tid".into(), JsonValue::Number(tid_of(&e.thread))));
        fields.push(("args".into(), JsonValue::object(args)));
        items.push(JsonValue::object(fields));
    }
    JsonValue::Array(items)
}

#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = trace_test_lock();
        set_enabled(false);
        clear();
        {
            let mut s = span("noop");
            s.attr_num("k", 1.0);
        }
        instant("noop.marker", &[]);
        assert!(take_events().is_empty());
    }

    #[test]
    fn nested_spans_chain_parents() {
        let _guard = trace_test_lock();
        set_enabled(true);
        clear();
        {
            let outer = span("outer");
            let outer_id = outer.id();
            {
                let mut inner = span("inner");
                assert_ne!(inner.id(), outer_id);
                inner.attr_str("what", "dp");
                instant("tick", &[("n", AttrValue::Num(3.0))]);
            }
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 3);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let tick = events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(inner.id));
        assert_eq!(tick.kind, EventKind::Instant);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1e-6);
        assert!(inner.attrs.iter().any(|(k, v)| k == "what" && *v == AttrValue::Str("dp".into())));
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let _guard = trace_test_lock();
        set_enabled(true);
        clear();
        std::thread::scope(|s| {
            for w in 0..2 {
                s.spawn(move || {
                    set_thread_label(&format!("test_w{w}"));
                    let _s = span("job");
                });
            }
        });
        set_enabled(false);
        let events = take_events();
        let mut threads: Vec<&str> =
            events.iter().filter(|e| e.name == "job").map(|e| e.thread.as_str()).collect();
        threads.sort_unstable();
        assert_eq!(threads, ["test_w0", "test_w1"]);
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let _guard = trace_test_lock();
        set_enabled(true);
        clear();
        {
            let _s = span("flow");
            instant("fault", &[]);
        }
        set_enabled(false);
        let doc = to_chrome_trace(&take_events());
        let items = doc.as_array().unwrap();
        let meta: Vec<_> =
            items.iter().filter(|i| i.get("ph").and_then(|p| p.as_str()) == Some("M")).collect();
        assert_eq!(meta.len(), 1, "one thread_name metadata event per track");
        let complete = items
            .iter()
            .find(|i| i.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("complete event");
        assert!(complete.get("ts").unwrap().as_f64().is_some());
        assert!(complete.get("dur").unwrap().as_f64().is_some());
        assert!(complete.get("tid").unwrap().as_f64().is_some());
        assert_eq!(complete.get("pid").unwrap().as_f64(), Some(1.0));
        let inst = items
            .iter()
            .find(|i| i.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .expect("instant event");
        assert_eq!(inst.get("name").unwrap().as_str(), Some("fault"));
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
    }
}
