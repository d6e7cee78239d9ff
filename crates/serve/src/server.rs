//! The synthesis service: job table, bounded admission queue, batch
//! dispatcher, content-addressed artifact cache and graceful drain.
//!
//! ## Architecture
//!
//! One accept-loop thread spawns a handler thread per connection
//! (requests are short; the only long-lived handlers are `result?wait=1`
//! and `/jobs/<id>/events` streams, which block on a condvar, not a
//! core). One dispatcher thread drains the admission queue in batches
//! into [`casyn_flow::batch::run_batch`] on the shared
//! `casyn-exec` pool — so serve jobs inherit the batch runner's panic
//! isolation, retries, per-job deadlines and cancellation semantics
//! unchanged.
//!
//! ## Caching and dedup
//!
//! Each cacheable job gets a content address from [`KeyBuilder`]
//! (design hash + library fingerprint + flow parameters, never
//! timings). Submission classifies jobs in one pass under the state
//! lock: result-cache hit (answered instantly), in-flight duplicate
//! (attached as a follower of the running compute), or fresh (admitted
//! to the queue, 429 when the whole request does not fit). The prepare
//! cache additionally shares the expensive flow front end between jobs
//! that differ only in their K schedule.

use crate::cache::{DiskCache, Lru};
use crate::http::{self, HttpError, Request};
use casyn_exec::{CancelToken, FaultKind, FaultPlan, Pool};
use casyn_flow::batch::{
    run_batch, run_batch_job, BatchJob, BatchJobReport, BatchOptions, JobSuccess,
};
use casyn_flow::durable::Wal;
use casyn_flow::telemetry::snapshot_json;
use casyn_flow::{
    congestion_flow_prepared, fnv1a64, k_row_json, library_fingerprint, parse_manifest_value,
    prepare, FlowError, FlowErrorKind, FlowOptions, KSweepEntry, KeyBuilder, ManifestDefaults,
    ManifestJob, Prepared,
};
use casyn_netlist::network::Network;
use casyn_obs as obs;
use casyn_obs::json::{JsonErrorKind, JsonLimits, JsonValue};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The service version: crate version plus the git describe string when
/// the build script could obtain one (`0.1.0+gabc1234`).
pub fn version() -> String {
    match option_env!("CASYN_GIT_DESCRIBE") {
        Some(git) if !git.is_empty() => format!("{}+{git}", env!("CARGO_PKG_VERSION")),
        _ => env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Synthesis worker threads (0 = `Pool::from_env`).
    pub workers: usize,
    /// Maximum queued (admitted but not yet started) jobs; submissions
    /// that do not fit are rejected whole with 429.
    pub queue_capacity: usize,
    /// Maximum request body size; larger submissions get 413.
    pub max_body_bytes: usize,
    /// Batch-runner retries per failed job.
    pub retries: u32,
    /// Entries in the result cache (content address → finished rows).
    /// Also the job table's retention window: a finished job older than
    /// the most recent `result_cache_cap` admissions keeps its status but
    /// gives up its rows and event lines; `/result` then re-serves the
    /// rows from the caches, or answers 410 when no cache holds them.
    /// 0 disables both the cache and the release.
    pub result_cache_cap: usize,
    /// Entries in the prepare cache (front-end artifacts).
    pub prepare_cache_cap: usize,
    /// Durable state directory: the `casyn.wal.v1` job journal plus the
    /// checksummed disk cache live here, and startup replays them.
    /// `None` keeps all state in memory (the pre-durability behavior).
    pub state_dir: Option<PathBuf>,
    /// Live-heap byte budget: new submissions are shed with
    /// 503 + `Retry-After` while the counting allocator reports more
    /// live bytes than this. 0 disables the watchdog.
    pub mem_limit_bytes: u64,
    /// How long `GET /jobs/<id>/result?wait=1` blocks before answering
    /// 409 (previously a hardcoded 600 s).
    pub result_wait_secs: u64,
    /// Per-connection socket read *and* write timeout, so a slow-reader
    /// event stream cannot pin a handler thread forever.
    pub io_timeout_secs: u64,
    /// I/O chaos plan, armed at stage `"wal"` (journal appends),
    /// `"cache"` (disk-cache writes) and `"conn"` (drops the connection
    /// before the response). Test-only in practice; counters are shared
    /// across all connections so `nth` is global.
    pub io_fault: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 0,
            queue_capacity: 64,
            max_body_bytes: 8 << 20,
            retries: 0,
            result_cache_cap: 256,
            prepare_cache_cap: 32,
            state_dir: None,
            mem_limit_bytes: 0,
            result_wait_secs: 600,
            io_timeout_secs: 30,
            io_fault: None,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled)
    }
}

/// One row of the job table.
struct JobRecord {
    name: String,
    design: String,
    /// The id of the HTTP request that admitted this job; stamped into
    /// every event line, journal record and span so one id correlates
    /// the access log, NDJSON stream and trace.
    request_id: String,
    status: JobStatus,
    /// How the result was (or will be) obtained: `"hit"`, `"dedup"`,
    /// `"miss"`, or `"bypass"` for fault-plan jobs that skip the cache.
    cache: &'static str,
    /// The job's content address (`None` for fault-plan jobs): where a
    /// released record's rows are looked up again.
    result_key: Option<u64>,
    rows: Option<Arc<JsonValue>>,
    degraded: bool,
    error: Option<String>,
    wall_ms: f64,
    events: Vec<String>,
    /// Event lines ever pushed: `events.len()` until the record is
    /// released, more than that afterwards.
    event_count: usize,
    submitted: Instant,
}

impl JobRecord {
    fn new(name: &str, design: &str, request_id: &str, result_key: Option<u64>) -> JobRecord {
        JobRecord {
            name: name.to_string(),
            design: design.to_string(),
            request_id: request_id.to_string(),
            status: JobStatus::Queued,
            cache: "miss",
            result_key,
            rows: None,
            degraded: false,
            error: None,
            wall_ms: 0.0,
            events: Vec::new(),
            event_count: 0,
            submitted: Instant::now(),
        }
    }

    /// Gives up the bulk of a finished record — its result rows and its
    /// event lines — and keeps the metadata `GET /jobs/<id>` reports.
    /// The rows of a job with a content address stay reachable through
    /// the result caches; a server that ran for a day must not hold every
    /// result it ever produced.
    fn release(&mut self) {
        debug_assert!(self.status.terminal(), "only finished jobs are released");
        self.rows = None;
        self.events = Vec::new();
    }

    /// Whether [`JobRecord::release`] has run (every record has at least
    /// its admission event).
    fn released(&self) -> bool {
        self.events.len() < self.event_count
    }
}

/// A finished result in the content-addressed cache.
#[derive(Clone)]
struct CachedResult {
    rows: Arc<JsonValue>,
    degraded: bool,
}

/// A prepare-cache slot: per-key mutex so concurrent jobs with the same
/// front end compute it exactly once while distinct keys proceed in
/// parallel.
type PrepSlot = Arc<Mutex<Option<Arc<Prepared>>>>;

/// An admitted job waiting for (or being run by) the dispatcher.
struct Task {
    job_id: usize,
    request_id: String,
    mjob: ManifestJob,
    network: Network,
    fault: Option<FaultPlan>,
    prep_key: u64,
    /// `None` for fault-plan jobs: injected failures must never be
    /// cached or deduped onto healthy submissions.
    result_key: Option<u64>,
}

struct Inner {
    jobs: Vec<JobRecord>,
    /// Records below this id have left the retention window: the finished
    /// ones are released, the rest are released as they finish.
    swept: usize,
    queue: VecDeque<Task>,
    /// Content address → follower job ids waiting on the in-flight
    /// compute of the same artifact.
    inflight: HashMap<u64, Vec<usize>>,
    results: Lru<CachedResult>,
    prepared: Lru<PrepSlot>,
    draining: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes the dispatcher (queue or drain-state changed).
    queue_cv: Condvar,
    /// Wakes result/event waiters (a job changed state).
    state_cv: Condvar,
    /// Fired by `POST /shutdown {"mode": "cancel"}`; queued jobs that
    /// have not started are skipped and flushed as cancelled.
    cancel: CancelToken,
    stop_accept: AtomicBool,
    addr: SocketAddr,
    config: ServeConfig,
    /// The WAL + disk cache pair behind `--state-dir`; `None` when the
    /// server runs memory-only.
    durable: Option<Durable>,
    /// Windowed per-second series, fed by the sampler thread (and
    /// refreshed on demand by `/stats` and `/metrics?format=prom`).
    /// Seconds are measured from `started`, a monotonic clock.
    store: obs::SeriesStore,
    started: Instant,
    /// Source of generated request ids (`r000001`, ...).
    req_seq: AtomicU64,
    /// Access-log rate limiter state (second, emitted, suppressed).
    log_window: Mutex<LogWindow>,
}

/// Per-second access-log budget; above it lines are counted, not
/// printed, so a burst of requests cannot drown the log.
const ACCESS_LOG_MAX_PER_SEC: u32 = 50;

#[derive(Default)]
struct LogWindow {
    sec: u64,
    emitted: u32,
    suppressed: u64,
}

fn lock_inner(shared: &Shared) -> MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(|p| p.into_inner())
}

/// A running synthesis service. Dropping the handle does not stop the
/// server; use `POST /shutdown` (or [`Server::wait`] after one) to end
/// it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and dispatcher, and returns.
    /// Metrics collection is switched on (the service exposes
    /// `/metrics`).
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        obs::set_enabled(true);
        let pool = if config.workers == 0 { Pool::from_env() } else { Pool::new(config.workers) };
        let mut inner = Inner {
            jobs: Vec::new(),
            swept: 0,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            results: Lru::new(config.result_cache_cap),
            prepared: Lru::new(config.prepare_cache_cap),
            draining: false,
        };
        let durable = match &config.state_dir {
            None => None,
            Some(dir) => Some(recover_into(dir, config.io_fault.clone(), &mut inner)?),
        };
        // a long journal replays into a long table: keep only its tail whole
        sweep_retention(&mut inner, config.result_cache_cap);
        let shared = Arc::new(Shared {
            inner: Mutex::new(inner),
            queue_cv: Condvar::new(),
            state_cv: Condvar::new(),
            cancel: CancelToken::new(),
            stop_accept: AtomicBool::new(false),
            addr,
            config,
            durable,
            store: obs::SeriesStore::new(),
            started: Instant::now(),
            req_seq: AtomicU64::new(0),
            log_window: Mutex::new(LogWindow::default()),
        });
        let dispatcher = {
            let shared = shared.clone();
            thread::spawn(move || dispatcher_loop(&shared, &pool))
        };
        let acceptor = {
            let shared = shared.clone();
            thread::spawn(move || accept_loop(&shared, listener))
        };
        let sampler = {
            let shared = shared.clone();
            thread::spawn(move || sampler_loop(&shared))
        };
        Ok(Server { addr, shared, threads: vec![dispatcher, acceptor, sampler] })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address as `host:port`, ready for [`crate::client`].
    pub fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    /// Blocks until the server has fully drained after a
    /// `POST /shutdown`.
    pub fn wait(self) -> Result<(), String> {
        for t in self.threads {
            t.join().map_err(|_| "server thread panicked".to_string())?;
        }
        Ok(())
    }

    /// True once a shutdown has been requested.
    pub fn draining(&self) -> bool {
        lock_inner(&self.shared).draining
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop_accept.load(Ordering::SeqCst) {
                    return; // the self-connect that unblocked us
                }
                let shared = shared.clone();
                thread::spawn(move || handle_conn(&shared, stream));
            }
            Err(_) => {
                if shared.stop_accept.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// The request's correlation id: a client-supplied `X-Request-Id`
/// (sanitized, truncated) or a generated `r000001`-style sequence id.
fn request_id(shared: &Shared, req: &Request) -> String {
    match req.header("x-request-id") {
        Some(v) if !v.is_empty() => v
            .chars()
            .take(64)
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect(),
        _ => format!("r{:06}", shared.req_seq.fetch_add(1, Ordering::Relaxed) + 1),
    }
}

/// One structured access-log line per HTTP request, rate-limited to
/// [`ACCESS_LOG_MAX_PER_SEC`] so a burst cannot drown stderr; the
/// counters always fire, and suppressed lines surface as a per-second
/// summary plus the `serve.log_suppressed` counter.
fn access_log(
    shared: &Shared,
    rid: &str,
    method: &str,
    path: &str,
    status: u16,
    bytes: usize,
    t0: Instant,
) {
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    obs::counter_add("serve.http_requests", 1);
    obs::hist_record("serve.request_ms", ms);
    if !obs::log::enabled(obs::log::Level::Info) {
        return;
    }
    let now_s = shared.started.elapsed().as_secs();
    let suppressed = {
        let mut w = shared.log_window.lock().unwrap_or_else(|p| p.into_inner());
        if w.sec != now_s {
            let prior = w.suppressed;
            *w = LogWindow { sec: now_s, emitted: 0, suppressed: 0 };
            if prior > 0 {
                obs::log::info(&format!("access: {prior} lines suppressed under load"));
            }
        }
        if w.emitted < ACCESS_LOG_MAX_PER_SEC {
            w.emitted += 1;
            false
        } else {
            w.suppressed += 1;
            true
        }
    };
    if suppressed {
        obs::counter_add("serve.log_suppressed", 1);
    } else {
        obs::log::info(&format!(
            "access {method} {path} {status} {bytes}B {ms:.1}ms request_id={rid}"
        ));
    }
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let t0 = Instant::now();
    // read *and* write timeouts: a stalled client can neither starve the
    // parser nor pin a handler thread on an unread response or event
    // stream forever
    let io_t = Duration::from_secs(shared.config.io_timeout_secs.max(1));
    let _ = stream.set_read_timeout(Some(io_t));
    let _ = stream.set_write_timeout(Some(io_t));
    let req = match http::read_request(&mut stream, shared.config.max_body_bytes) {
        Ok(r) => r,
        Err(e) => {
            let bytes = http::respond_error(&mut stream, &e).unwrap_or(0);
            access_log(shared, "-", "?", "?", e.status, bytes, t0);
            return;
        }
    };
    let rid = request_id(shared, &req);
    // chaos: drop the connection after the request is read but before
    // any response bytes are written — the client sees a clean close and
    // (for idempotent requests) retries
    if let Some(plan) = &shared.config.io_fault {
        if plan.fire("conn") == Some(FaultKind::ConnDrop) {
            obs::counter_add("serve.conn_dropped", 1);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            access_log(shared, &rid, &req.method, &req.path, 0, 0, t0);
            return;
        }
    }
    let segs: Vec<String> =
        req.path.split('/').filter(|s| !s.is_empty()).map(str::to_string).collect();
    let seg_refs: Vec<&str> = segs.iter().map(String::as_str).collect();
    // the events stream writes incrementally and owns the socket
    if let ["jobs", id, "events"] = seg_refs.as_slice() {
        if req.method == "GET" {
            handle_events(shared, &mut stream, id);
            access_log(shared, &rid, &req.method, &req.path, 200, 0, t0);
            return;
        }
    }
    // shutdown also owns the socket: the acknowledgement must be on the
    // wire before the drain starts, or process exit (wait() returning
    // once the accept loop and dispatcher join) races this detached
    // handler thread's response write and the client sees a bare close
    if seg_refs.as_slice() == ["shutdown"] && req.method == "POST" {
        handle_shutdown(shared, &mut stream, &req);
        access_log(shared, &rid, &req.method, &req.path, 200, 0, t0);
        return;
    }
    // the Prometheus exposition is the one text/plain surface
    if seg_refs.as_slice() == ["metrics"]
        && req.method == "GET"
        && req.query_param("format") == Some("prom")
    {
        let now_s = sample_now(shared);
        let text = obs::prom::render(&obs::snapshot(), Some((&shared.store, now_s)));
        let bytes =
            http::respond_text(&mut stream, 200, "text/plain; version=0.0.4", &text).unwrap_or(0);
        access_log(shared, &rid, &req.method, &req.path, 200, bytes, t0);
        return;
    }
    let result: Result<(u16, JsonValue), HttpError> = match seg_refs.as_slice() {
        ["jobs"] if req.method == "POST" => handle_submit(shared, &req, &rid),
        ["jobs"] => Err(HttpError::method_not_allowed()),
        ["jobs", id] if req.method == "GET" => handle_status(shared, id),
        ["jobs", _] => Err(HttpError::method_not_allowed()),
        ["jobs", id, "result"] if req.method == "GET" => {
            handle_result(shared, id, req.query_flag("wait"))
        }
        ["jobs", _, "result"] | ["jobs", _, "events"] => Err(HttpError::method_not_allowed()),
        ["metrics"] if req.method == "GET" => Ok((200, metrics_doc(shared))),
        ["metrics"] => Err(HttpError::method_not_allowed()),
        ["stats"] if req.method == "GET" => Ok((200, stats_doc(shared))),
        ["stats"] => Err(HttpError::method_not_allowed()),
        ["healthz"] if req.method == "GET" => Ok((200, healthz_doc(shared))),
        ["healthz"] => Err(HttpError::method_not_allowed()),
        ["shutdown"] => Err(HttpError::method_not_allowed()),
        _ => Err(HttpError::not_found(format!("no such endpoint: {}", req.path))),
    };
    let (status, bytes) = match result {
        Ok((status, doc)) => {
            let hdr = [("X-Request-Id".to_string(), rid.clone())];
            (status, http::respond_json_with(&mut stream, status, &doc, &hdr).unwrap_or(0))
        }
        Err(e) => (e.status, http::respond_error(&mut stream, &e).unwrap_or(0)),
    };
    access_log(shared, &rid, &req.method, &req.path, status, bytes, t0);
}

fn parse_job_id(shared: &Shared, id: &str) -> Result<usize, HttpError> {
    let id: usize = id.parse().map_err(|_| HttpError::not_found(format!("bad job id {id:?}")))?;
    if id >= lock_inner(shared).jobs.len() {
        return Err(HttpError::not_found(format!("no job {id}")));
    }
    Ok(id)
}

/// Everything a manifest entry needs to run, plus its content address.
struct LoadedJob {
    network: Network,
    fault: Option<FaultPlan>,
    prep_key: u64,
    result_key: Option<u64>,
}

/// Loads the design and derives the job's content address: design text
/// hash, library fingerprint and flow parameters. Wall-clock never
/// enters a key, so a resubmit hits regardless of how long the original
/// run took.
fn load_and_key(m: &ManifestJob) -> Result<LoadedJob, String> {
    let fault = m.fault()?;
    let (network, raw) = m.load_network()?;
    let opts = m.flow_options(false);
    let design_hash = fnv1a64(raw.as_bytes());
    let lib_fp = library_fingerprint(&opts.lib);
    let placer = opts.placer.backend.name();
    let prep_key = KeyBuilder::new("casyn.serve.prep.v1")
        .hash(design_hash)
        .hash(lib_fp)
        .num(m.util)
        .int(m.layers as u64)
        .bool(m.optimize)
        .str(placer)
        .finish();
    let result_key = fault.is_none().then(|| {
        KeyBuilder::new("casyn.serve.job.v1")
            .hash(design_hash)
            .hash(lib_fp)
            .num(m.util)
            .int(m.layers as u64)
            .bool(m.optimize)
            .str(placer)
            .nums(&m.ks)
            .finish()
    });
    Ok(LoadedJob { network, fault, prep_key, result_key })
}

// ---------------------------------------------------------------------------
// Durability: the `casyn.wal.v1` job journal plus the checksummed disk
// cache under `--state-dir`, and the startup replay that restores the
// job table from them.
//
// Locking order is always `Inner` → `Wal`: lifecycle records are
// appended while the state lock is held so journal order matches job-id
// order (replay depends on `admitted` records arriving in id order).
// ---------------------------------------------------------------------------

/// The durable half of the server state.
struct Durable {
    wal: Mutex<Wal>,
    cache: DiskCache,
    /// When the last journal append succeeded; `serve.wal.lag_s` is the
    /// age of this stamp, a proxy for "the journal is keeping up".
    last_append: Mutex<Option<Instant>>,
}

impl Durable {
    fn new(wal: Wal, cache: DiskCache) -> Durable {
        Durable { wal: Mutex::new(wal), cache, last_append: Mutex::new(None) }
    }

    /// Appends one lifecycle record, downgrading failures to a warning:
    /// an unwritable journal degrades durability, not availability. The
    /// journal wedges itself after a torn append (the tail is in an
    /// unknown state), so a single bad write cannot corrupt replay.
    fn append(&self, rec: JsonValue) {
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        if let Err(e) = wal.append(&rec) {
            obs::counter_add("serve.wal.errors", 1);
            obs::log::warn(&format!("wal: append failed ({e}); durability degraded"));
        } else {
            *self.last_append.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
        }
    }

    /// Seconds since the last successful journal append (0 before the
    /// first one).
    fn lag_s(&self) -> f64 {
        self.last_append
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }
}

fn wal_rec(t: &str, job: usize) -> Vec<(String, JsonValue)> {
    vec![("t".into(), JsonValue::Str(t.into())), ("job".into(), JsonValue::Number(job as f64))]
}

/// The `admitted` record: everything replay needs to re-run the job —
/// its display identity, content address, admitting request id and full
/// manifest entry.
fn wal_admitted(id: usize, m: &ManifestJob, result_key: Option<u64>, rid: &str) -> JsonValue {
    let mut f = wal_rec("admitted", id);
    f.push(("name".into(), JsonValue::Str(m.name.clone())));
    f.push(("design".into(), JsonValue::Str(m.design.clone())));
    f.push(("request_id".into(), JsonValue::Str(rid.to_string())));
    if let Some(k) = result_key {
        f.push(("result_key".into(), JsonValue::Str(format!("{k:016x}"))));
    }
    f.push(("manifest".into(), m.to_json()));
    JsonValue::object(f)
}

fn wal_done(id: usize, result_key: Option<u64>, degraded: bool, wall_ms: f64) -> JsonValue {
    let mut f = wal_rec("done", id);
    if let Some(k) = result_key {
        f.push(("result_key".into(), JsonValue::Str(format!("{k:016x}"))));
    }
    f.push(("degraded".into(), JsonValue::Bool(degraded)));
    f.push(("wall_ms".into(), JsonValue::Number(wall_ms)));
    JsonValue::object(f)
}

fn wal_failed(id: usize, error: &str) -> JsonValue {
    let mut f = wal_rec("failed", id);
    f.push(("error".into(), JsonValue::Str(error.into())));
    JsonValue::object(f)
}

/// Reads a finished result out of the disk cache. Corruption was
/// already quarantined (and counted) inside [`DiskCache::get`]; a doc
/// that verified but lacks `rows` is schema drift and reads as a miss.
fn disk_lookup(durable: &Durable, key: u64) -> Option<CachedResult> {
    let doc = durable.cache.get("job", key)?;
    let rows = doc.get("rows")?.clone();
    let degraded = doc.get("degraded").and_then(JsonValue::as_bool).unwrap_or(false);
    Some(CachedResult { rows: Arc::new(rows), degraded })
}

/// One job's state as folded from the replayed journal.
struct Replayed {
    name: String,
    design: String,
    request_id: String,
    status: JobStatus,
    error: Option<String>,
    degraded: bool,
    wall_ms: f64,
    result_key: Option<u64>,
    manifest: Option<JsonValue>,
}

/// Re-parses the manifest entry embedded in an `admitted` record.
fn replayed_manifest_job(mdoc: &JsonValue) -> Result<ManifestJob, String> {
    let one = JsonValue::Array(vec![mdoc.clone()]);
    let mut jobs = parse_manifest_value(&one, &ManifestDefaults::default())?;
    Ok(jobs.remove(0))
}

/// Opens the durable state under `dir` and replays the journal into
/// `inner`: jobs that reached `done` before the crash are served from
/// the disk cache (re-enqueued if their artifact is missing or was
/// quarantined), other terminal jobs keep their recorded outcome, and
/// admitted-but-unfinished jobs are re-enqueued through the normal
/// dispatcher path. A journal damaged anywhere but its final line is a
/// typed, line-numbered error and the server refuses to start.
fn recover_into(
    dir: &std::path::Path,
    fault: Option<FaultPlan>,
    inner: &mut Inner,
) -> Result<Durable, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("state-dir {}: {e}", dir.display()))?;
    let cache = DiskCache::open(&dir.join("cache"), fault.clone())
        .map_err(|e| format!("state-dir cache: {e}"))?;
    let wal_path = dir.join("casyn.wal.v1");
    let replay = Wal::replay(&wal_path).map_err(|e| {
        format!(
            "state-dir journal {}: {e}; refusing to start (move it aside to reset)",
            wal_path.display()
        )
    })?;
    obs::counter_add("serve.wal.replayed", replay.records.len() as u64);
    if replay.torn_tail {
        obs::log::warn("wal: tolerated a torn final record (crash artifact)");
    }

    // fold lifecycle records into per-job state (last record wins)
    let mut folded: Vec<Replayed> = Vec::new();
    for r in &replay.records {
        let t = r.get("t").and_then(JsonValue::as_str).unwrap_or("");
        let Some(id) = r.get("job").and_then(JsonValue::as_f64).map(|f| f as usize) else {
            continue; // forward-compat: jobless records are skipped
        };
        if t == "admitted" {
            if id != folded.len() {
                return Err(format!(
                    "state-dir journal: admitted job {id} out of order (expected {})",
                    folded.len()
                ));
            }
            folded.push(Replayed {
                name: r.get("name").and_then(JsonValue::as_str).unwrap_or("?").to_string(),
                design: r.get("design").and_then(JsonValue::as_str).unwrap_or("?").to_string(),
                request_id: r
                    .get("request_id")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                status: JobStatus::Queued,
                error: None,
                degraded: false,
                wall_ms: 0.0,
                result_key: r
                    .get("result_key")
                    .and_then(JsonValue::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok()),
                manifest: r.get("manifest").cloned(),
            });
            continue;
        }
        let Some(f) = folded.get_mut(id) else { continue };
        match t {
            "started" => f.status = JobStatus::Running,
            "done" => {
                f.status = JobStatus::Done;
                f.degraded = r.get("degraded").and_then(JsonValue::as_bool).unwrap_or(false);
                f.wall_ms = r.get("wall_ms").and_then(JsonValue::as_f64).unwrap_or(0.0);
            }
            "failed" => {
                f.status = JobStatus::Failed;
                f.error = Some(
                    r.get("error").and_then(JsonValue::as_str).unwrap_or("unknown").to_string(),
                );
            }
            "cancelled" => f.status = JobStatus::Cancelled,
            _ => {} // forward-compat: unknown record types are skipped
        }
    }

    let durable = Durable::new(cache_wal_open(&wal_path, fault)?, cache);
    for (id, f) in folded.iter().enumerate() {
        let mut rec = JobRecord::new(&f.name, &f.design, &f.request_id, f.result_key);
        push_event(&mut rec, event("recovered"));
        match f.status {
            JobStatus::Done => {
                match f.result_key.and_then(|k| disk_lookup(&durable, k)) {
                    Some(c) => {
                        rec.status = JobStatus::Done;
                        rec.cache = "disk";
                        rec.rows = Some(c.rows.clone());
                        rec.degraded = c.degraded;
                        rec.wall_ms = f.wall_ms;
                        push_event(&mut rec, event("done"));
                        if let Some(k) = f.result_key {
                            inner.results.insert(k, c);
                        }
                    }
                    // the artifact is gone (never spilled, or quarantined
                    // as corrupt): recompute rather than serve nothing
                    None => requeue_replayed(inner, &durable, id, &mut rec, f),
                }
            }
            JobStatus::Failed | JobStatus::Cancelled => {
                rec.status = f.status;
                rec.cache = "none";
                rec.error = f.error.clone();
                rec.wall_ms = f.wall_ms;
                push_event(&mut rec, event(f.status.as_str()));
            }
            JobStatus::Queued | JobStatus::Running => {
                requeue_replayed(inner, &durable, id, &mut rec, f)
            }
        }
        inner.jobs.push(rec);
    }
    Ok(durable)
}

/// Opens the journal for appending (the replay above already validated
/// it). Split out so `recover_into` reads linearly.
fn cache_wal_open(path: &std::path::Path, fault: Option<FaultPlan>) -> Result<Wal, String> {
    Wal::open(path, fault).map_err(|e| format!("state-dir journal {}: {e}", path.display()))
}

/// Puts one unfinished (or artifact-less) replayed job back through the
/// admission classifier: disk hit, follower of an already re-enqueued
/// duplicate, or a fresh queue entry. The `admitted` record already
/// exists, so only terminal records will follow.
fn requeue_replayed(
    inner: &mut Inner,
    durable: &Durable,
    id: usize,
    rec: &mut JobRecord,
    f: &Replayed,
) {
    let loaded = match &f.manifest {
        None => Err("journal admitted record carries no manifest".to_string()),
        Some(mdoc) => replayed_manifest_job(mdoc).and_then(|m| load_and_key(&m).map(|l| (m, l))),
    };
    match loaded {
        Err(e) => {
            rec.status = JobStatus::Failed;
            rec.cache = "none";
            rec.error = Some(format!("recovery: {e}"));
            let mut ev = event("failed");
            ev.push(("error".into(), JsonValue::Str(format!("recovery: {e}"))));
            push_event(rec, ev);
            obs::counter_add("serve.jobs_failed", 1);
        }
        Ok((m, l)) => {
            rec.result_key = l.result_key;
            if let Some(k) = l.result_key {
                if let Some(c) = disk_lookup(durable, k) {
                    rec.status = JobStatus::Done;
                    rec.cache = "disk";
                    rec.rows = Some(c.rows.clone());
                    rec.degraded = c.degraded;
                    push_event(rec, event("done"));
                    inner.results.insert(k, c);
                    return;
                }
                if let Some(followers) = inner.inflight.get_mut(&k) {
                    rec.cache = "dedup";
                    push_event(rec, event("deduped"));
                    followers.push(id);
                    return;
                }
                inner.inflight.insert(k, Vec::new());
            } else {
                rec.cache = "bypass";
            }
            push_event(rec, event("queued"));
            obs::counter_add("serve.recovered", 1);
            inner.queue.push_back(Task {
                job_id: id,
                request_id: f.request_id.clone(),
                mjob: m,
                network: l.network,
                fault: l.fault,
                prep_key: l.prep_key,
                result_key: l.result_key,
            });
        }
    }
}

fn push_event(rec: &mut JobRecord, mut fields: Vec<(String, JsonValue)>) {
    let t_ms = rec.submitted.elapsed().as_secs_f64() * 1e3;
    fields.push(("t_ms".into(), JsonValue::Number(t_ms)));
    if !rec.request_id.is_empty() {
        fields.push(("request_id".into(), JsonValue::Str(rec.request_id.clone())));
    }
    rec.events.push(JsonValue::object(fields).to_string_compact());
    rec.event_count += 1;
}

/// Moves the retention window up to the newest `cap` admissions and
/// releases every finished record that fell out of it. Unfinished ones
/// are skipped here and released by [`finish_job`].
fn sweep_retention(g: &mut Inner, cap: usize) {
    if cap == 0 {
        return; // no result cache to re-serve from: the table keeps everything
    }
    let horizon = g.jobs.len().saturating_sub(cap);
    if horizon > g.swept {
        for rec in &mut g.jobs[g.swept..horizon] {
            if rec.status.terminal() {
                rec.release();
            }
        }
        g.swept = horizon;
    }
}

/// A finished result by content address, the way a resubmission finds
/// it: the memory LRU (`"hit"`), then the disk cache (`"disk"`, promoted
/// back into the LRU).
fn cached_result(shared: &Shared, g: &mut Inner, key: u64) -> Option<(CachedResult, &'static str)> {
    if let Some(c) = g.results.get(key) {
        return Some((c.clone(), "hit"));
    }
    // spilled by an earlier run (possibly before a restart)
    let c = disk_lookup(shared.durable.as_ref()?, key)?;
    g.results.insert(key, c.clone());
    Some((c, "disk"))
}

fn event(name: &str) -> Vec<(String, JsonValue)> {
    vec![("event".into(), JsonValue::Str(name.into()))]
}

/// How submission classified one manifest entry.
enum Admit {
    LoadError(String),
    /// Served from cache; the `&'static str` is the tag (`"hit"` for
    /// the in-memory LRU, `"disk"` for a spilled artifact).
    Hit(CachedResult, &'static str),
    Dedup(u64),
    Enqueue,
}

fn handle_submit(
    shared: &Arc<Shared>,
    req: &Request,
    rid: &str,
) -> Result<(u16, JsonValue), HttpError> {
    // memory watchdog: shed before parsing the body into yet more heap
    let limit = shared.config.mem_limit_bytes;
    if limit > 0 {
        let live = obs::alloc::current_bytes();
        if live > limit {
            obs::counter_add("serve.shed", 1);
            return Err(HttpError::unavailable(format!(
                "live heap {live} B exceeds the {limit} B --mem-limit; shedding"
            ))
            .with_retry_after(1));
        }
    }
    let text = String::from_utf8_lossy(&req.body).into_owned();
    let limits = JsonLimits { max_bytes: shared.config.max_body_bytes, ..Default::default() };
    let doc = JsonValue::parse_with_limits(&text, &limits).map_err(|e| match e.kind {
        JsonErrorKind::TooLarge => HttpError::too_large(shared.config.max_body_bytes),
        _ => HttpError::bad_request(format!("manifest: {e}")),
    })?;
    let manifest = parse_manifest_value(&doc, &ManifestDefaults::default())
        .map_err(|e| HttpError::bad_request(format!("manifest: {e}")))?;
    // design loading and content addressing happen outside the state lock
    let loaded: Vec<(ManifestJob, Result<LoadedJob, String>)> = manifest
        .into_iter()
        .map(|m| {
            let l = load_and_key(&m);
            (m, l)
        })
        .collect();

    let mut g = lock_inner(shared);
    if g.draining {
        return Err(HttpError::unavailable("server is draining"));
    }
    // classification pass: decide every job's fate before mutating, so a
    // 429 rejects the whole request without admitting a partial batch
    let mut admits = Vec::with_capacity(loaded.len());
    let mut pending: HashSet<u64> = HashSet::new();
    for (_, l) in &loaded {
        match l {
            Err(e) => admits.push(Admit::LoadError(e.clone())),
            Ok(l) => match l.result_key {
                Some(k) => {
                    // a key being computed is in neither cache yet
                    if g.inflight.contains_key(&k) || pending.contains(&k) {
                        admits.push(Admit::Dedup(k));
                    } else if let Some((c, tag)) = cached_result(shared, &mut g, k) {
                        admits.push(Admit::Hit(c, tag));
                    } else {
                        pending.insert(k);
                        admits.push(Admit::Enqueue);
                    }
                }
                None => admits.push(Admit::Enqueue),
            },
        }
    }
    let slots = admits.iter().filter(|a| matches!(a, Admit::Enqueue)).count();
    if g.queue.len() + slots > shared.config.queue_capacity {
        obs::counter_add("serve.rejected", loaded.len() as u64);
        return Err(HttpError::backpressure(format!(
            "queue full: {} queued of capacity {}, {slots} more requested",
            g.queue.len(),
            shared.config.queue_capacity
        )));
    }
    // admission pass
    let mut out = Vec::with_capacity(loaded.len());
    for ((m, l), admit) in loaded.into_iter().zip(admits) {
        let id = g.jobs.len();
        let result_key = l.as_ref().ok().and_then(|l| l.result_key);
        let mut rec = JobRecord::new(&m.name, &m.design, rid, result_key);
        push_event(&mut rec, event("submitted"));
        obs::counter_add("serve.submitted", 1);
        // journal the admission before the outcome records below; the
        // `admitted` record carries the manifest so replay can re-run
        if let Some(d) = &shared.durable {
            d.append(wal_admitted(id, &m, result_key, rid));
        }
        match admit {
            Admit::LoadError(e) => {
                rec.status = JobStatus::Failed;
                rec.cache = "none";
                rec.error = Some(e.clone());
                let mut ev = event("failed");
                ev.push(("error".into(), JsonValue::Str(e.clone())));
                push_event(&mut rec, ev);
                obs::counter_add("serve.jobs_failed", 1);
                if let Some(d) = &shared.durable {
                    d.append(wal_failed(id, &e));
                }
            }
            Admit::Hit(c, tag) => {
                rec.status = JobStatus::Done;
                rec.cache = tag;
                rec.rows = Some(c.rows);
                rec.degraded = c.degraded;
                push_event(&mut rec, event("cache_hit"));
                push_event(&mut rec, event("done"));
                obs::counter_add("serve.cache_hits", 1);
                obs::counter_add("serve.jobs_done", 1);
                if let Some(d) = &shared.durable {
                    d.append(wal_done(id, result_key, rec.degraded, 0.0));
                }
            }
            Admit::Dedup(k) => {
                rec.cache = "dedup";
                push_event(&mut rec, event("deduped"));
                g.inflight.entry(k).or_default().push(id);
                obs::counter_add("serve.deduped", 1);
            }
            Admit::Enqueue => {
                let l = l.expect("classified Enqueue from Ok");
                if l.result_key.is_none() {
                    rec.cache = "bypass";
                }
                push_event(&mut rec, event("queued"));
                if let Some(k) = l.result_key {
                    g.inflight.insert(k, Vec::new());
                }
                g.queue.push_back(Task {
                    job_id: id,
                    request_id: rid.to_string(),
                    mjob: m.clone(),
                    network: l.network,
                    fault: l.fault,
                    prep_key: l.prep_key,
                    result_key: l.result_key,
                });
                obs::counter_add("serve.queued", 1);
            }
        }
        out.push(JsonValue::object(vec![
            ("id".into(), JsonValue::Number(id as f64)),
            ("name".into(), JsonValue::Str(m.name)),
            ("status".into(), JsonValue::Str(rec.status.as_str().into())),
            ("cache".into(), JsonValue::Str(rec.cache.into())),
        ]));
        g.jobs.push(rec);
    }
    sweep_retention(&mut g, shared.config.result_cache_cap);
    drop(g);
    shared.queue_cv.notify_all();
    shared.state_cv.notify_all();
    Ok((
        202,
        JsonValue::object(vec![
            ("request_id".into(), JsonValue::Str(rid.to_string())),
            ("jobs".into(), JsonValue::Array(out)),
        ]),
    ))
}

/// The job's status document, with a `rows` field when `rows` is given.
fn status_doc(rec: &JobRecord, id: usize, rows: Option<JsonValue>) -> JsonValue {
    let mut doc = vec![
        ("id".into(), JsonValue::Number(id as f64)),
        ("name".into(), JsonValue::Str(rec.name.clone())),
        ("design".into(), JsonValue::Str(rec.design.clone())),
        ("request_id".into(), JsonValue::Str(rec.request_id.clone())),
        ("status".into(), JsonValue::Str(rec.status.as_str().into())),
        ("cache".into(), JsonValue::Str(rec.cache.into())),
        ("degraded".into(), JsonValue::Bool(rec.degraded)),
        ("wall_ms".into(), JsonValue::Number(rec.wall_ms)),
        ("events".into(), JsonValue::Number(rec.event_count as f64)),
    ];
    if let Some(e) = &rec.error {
        doc.push(("error".into(), JsonValue::Str(e.clone())));
    }
    if let Some(rows) = rows {
        doc.push(("rows".into(), rows));
    }
    JsonValue::object(doc)
}

fn handle_status(shared: &Shared, id: &str) -> Result<(u16, JsonValue), HttpError> {
    let id = parse_job_id(shared, id)?;
    let g = lock_inner(shared);
    Ok((200, status_doc(&g.jobs[id], id, None)))
}

fn handle_result(shared: &Shared, id: &str, wait: bool) -> Result<(u16, JsonValue), HttpError> {
    let id = parse_job_id(shared, id)?;
    let mut g = lock_inner(shared);
    if wait {
        let deadline = Instant::now() + Duration::from_secs(shared.config.result_wait_secs);
        while !g.jobs[id].status.terminal() {
            if Instant::now() > deadline {
                return Err(HttpError::conflict(format!("job {id} still running")));
            }
            let (ng, _) = shared
                .state_cv
                .wait_timeout(g, Duration::from_millis(500))
                .unwrap_or_else(|p| p.into_inner());
            g = ng;
        }
    } else if !g.jobs[id].status.terminal() {
        return Err(HttpError::conflict(format!(
            "job {id} is {}; poll again or pass ?wait=1",
            g.jobs[id].status.as_str()
        )));
    }
    let rec = &g.jobs[id];
    let rows = match &rec.rows {
        Some(r) => (**r).clone(),
        // a released result is re-served from where a resubmission of
        // the same job would find it
        None if rec.released() && rec.status == JobStatus::Done => {
            let cached = rec.result_key.and_then(|k| cached_result(shared, &mut g, k));
            match cached {
                Some((c, _)) => (*c.rows).clone(),
                None => {
                    return Err(HttpError::gone(format!(
                        "the result of job {id} was released and is in no cache; resubmit it"
                    )))
                }
            }
        }
        None => JsonValue::Array(Vec::new()),
    };
    Ok((200, status_doc(&g.jobs[id], id, Some(rows))))
}

fn handle_events(shared: &Shared, stream: &mut TcpStream, id: &str) {
    let id = match parse_job_id(shared, id) {
        Ok(id) => id,
        Err(e) => {
            let _ = http::respond_error(stream, &e);
            return;
        }
    };
    if http::start_ndjson_stream(stream).is_err() {
        return;
    }
    let mut sent = 0usize;
    loop {
        let (chunk, terminal) = {
            let mut g = lock_inner(shared);
            loop {
                let rec = &g.jobs[id];
                if rec.released() {
                    // the lines are gone — possibly between two polls of
                    // this very stream: say so once and end
                    break (vec![r#"{"event":"expired"}"#.to_string()], true);
                }
                if rec.events.len() > sent || rec.status.terminal() {
                    let chunk: Vec<String> = rec.events.get(sent..).unwrap_or_default().to_vec();
                    sent = rec.events.len();
                    break (chunk, rec.status.terminal());
                }
                let (ng, _) = shared
                    .state_cv
                    .wait_timeout(g, Duration::from_millis(500))
                    .unwrap_or_else(|p| p.into_inner());
                g = ng;
            }
        };
        for line in &chunk {
            use std::io::Write;
            if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return; // client went away
            }
        }
        {
            use std::io::Write;
            let _ = stream.flush();
        }
        if terminal {
            return;
        }
    }
}

/// Refreshes the server gauges (queue depth, inflight, live heap, WAL
/// lag, uptime) and feeds the current registry snapshot into the
/// windowed series at the current server second, which it returns.
/// Called once per second by the sampler thread and on demand by every
/// read surface, so a scrape never sees stale windows.
fn sample_now(shared: &Shared) -> u64 {
    let now_s = shared.started.elapsed().as_secs();
    {
        let g = lock_inner(shared);
        obs::gauge_set("serve.queue_depth", g.queue.len() as f64);
        let inflight = g.jobs.iter().filter(|r| !r.status.terminal()).count();
        obs::gauge_set("serve.inflight", inflight as f64);
    }
    obs::gauge_set("serve.live_bytes", obs::alloc::current_bytes() as f64);
    obs::gauge_set("serve.uptime_s", now_s as f64);
    if let Some(d) = &shared.durable {
        obs::gauge_set("serve.wal.lag_s", d.lag_s());
    }
    shared.store.observe(now_s, &obs::snapshot());
    now_s
}

/// Background sampler: one observation per second until shutdown. The
/// read surfaces also sample on demand, so this thread only guarantees
/// the windows stay populated while nobody is scraping.
fn sampler_loop(shared: &Arc<Shared>) {
    while !shared.stop_accept.load(Ordering::SeqCst) {
        sample_now(shared);
        for _ in 0..5 {
            if shared.stop_accept.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(200));
        }
    }
}

/// Keys `/stats` ships as raw per-second series for sparklines: job
/// completion rate and the router's overflow trajectory.
const SPARK_KEYS: [&str; 2] = ["serve.jobs_done", "route.overflow"];

/// Seconds of per-second history `/stats` ships per sparkline key.
const SPARK_LEN: usize = 60;

fn metrics_doc(shared: &Shared) -> JsonValue {
    sample_now(shared);
    JsonValue::object(vec![
        ("schema".into(), JsonValue::Str("casyn.metrics.v1".into())),
        ("metrics".into(), snapshot_json(&obs::snapshot())),
    ])
}

/// The `casyn.stats.v1` document: windowed summaries from the series
/// store plus identity fields (`uptime_s`, `version`, `degraded`).
fn stats_doc(shared: &Shared) -> JsonValue {
    let now_s = sample_now(shared);
    let doc = shared.store.stats_json(now_s, &SPARK_KEYS, SPARK_LEN);
    let JsonValue::Object(mut fields) = doc else { return doc };
    fields.insert(2, ("uptime_s".into(), JsonValue::Number(now_s as f64)));
    fields.insert(3, ("version".into(), JsonValue::Str(version())));
    fields.insert(4, ("degraded".into(), JsonValue::Bool(shed_recently(shared, now_s))));
    JsonValue::Object(fields)
}

/// Whether the mem-limit watchdog shed anything in the last 10 s
/// window — the `degraded` flag `/healthz` and `/stats` report.
fn shed_recently(shared: &Shared, now_s: u64) -> bool {
    shared.store.counter_delta(now_s, 10, "serve.shed") > 0
}

/// `/healthz` enriched: uptime, version, queue depth and the degraded
/// flag. `status` stays `"ok"` while the process serves — degradation
/// is a separate signal, not an availability one.
fn healthz_doc(shared: &Shared) -> JsonValue {
    let now_s = sample_now(shared);
    let queue_depth = lock_inner(shared).queue.len();
    JsonValue::object(vec![
        ("status".into(), JsonValue::Str("ok".into())),
        ("uptime_s".into(), JsonValue::Number(now_s as f64)),
        ("version".into(), JsonValue::Str(version())),
        ("queue_depth".into(), JsonValue::Number(queue_depth as f64)),
        ("degraded".into(), JsonValue::Bool(shed_recently(shared, now_s))),
    ])
}

fn handle_shutdown(shared: &Arc<Shared>, stream: &mut TcpStream, req: &Request) {
    let body = String::from_utf8_lossy(&req.body);
    let cancel_mode = if body.trim().is_empty() {
        false
    } else {
        match JsonValue::parse(&body) {
            Ok(doc) => doc.get("mode").and_then(|v| v.as_str()) == Some("cancel"),
            Err(e) => {
                let _ = http::respond_error(
                    stream,
                    &HttpError::bad_request(format!("shutdown body: {e}")),
                );
                return;
            }
        }
    };
    // acknowledge first: once the flags below flip, wait() can return
    // and the process may exit before a later write would land
    let doc = JsonValue::object(vec![
        ("status".into(), JsonValue::Str("draining".into())),
        ("mode".into(), JsonValue::Str(if cancel_mode { "cancel".into() } else { "drain".into() })),
    ]);
    let _ = http::respond_json(stream, 200, &doc);
    {
        let mut g = lock_inner(shared);
        g.draining = true;
    }
    if cancel_mode {
        // queued-but-unstarted jobs are skipped at claim time and
        // flushed as cancelled; running jobs always finish
        shared.cancel.cancel();
    }
    shared.queue_cv.notify_all();
    shared.state_cv.notify_all();
    shared.stop_accept.store(true, Ordering::SeqCst);
    // unblock the accept loop so it can observe the flag
    let _ = TcpStream::connect(shared.addr);
}

fn dispatcher_loop(shared: &Arc<Shared>, pool: &Pool) {
    loop {
        let tasks: Vec<Task> = {
            let mut g = lock_inner(shared);
            loop {
                if !g.queue.is_empty() {
                    break g.queue.drain(..).collect();
                }
                if g.draining {
                    return;
                }
                g = shared.queue_cv.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_tasks(shared, pool, &tasks);
    }
}

fn mark_running(shared: &Shared, job_id: usize) {
    let mut g = lock_inner(shared);
    if g.jobs[job_id].status == JobStatus::Queued {
        g.jobs[job_id].status = JobStatus::Running;
        push_event(&mut g.jobs[job_id], event("started"));
        if let Some(d) = &shared.durable {
            d.append(JsonValue::object(wal_rec("started", job_id)));
        }
    }
    drop(g);
    shared.state_cv.notify_all();
}

/// Returns the shared front-end artifact for `key`, computing it at
/// most once per key even under concurrent requests (each key has its
/// own mutex, so distinct designs still prepare in parallel).
fn prepared_for(
    shared: &Shared,
    key: u64,
    network: &Network,
    opts: &FlowOptions,
) -> Result<Arc<Prepared>, FlowError> {
    let slot: PrepSlot = {
        let mut g = lock_inner(shared);
        match g.prepared.get(key) {
            Some(s) => s.clone(),
            None => {
                let s: PrepSlot = Arc::new(Mutex::new(None));
                g.prepared.insert(key, s.clone());
                s
            }
        }
    };
    let mut s = slot.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(p) = s.as_ref() {
        obs::counter_add("serve.prepare_hits", 1);
        return Ok(p.clone());
    }
    let p = Arc::new(prepare(network, opts)?);
    *s = Some(p.clone());
    Ok(p)
}

fn run_tasks(shared: &Arc<Shared>, pool: &Pool, tasks: &[Task]) {
    let bopts = BatchOptions {
        retries: shared.config.retries,
        escalate_k: false,
        cancel: Some(shared.cancel.clone()),
    };
    let jobs: Vec<BatchJob> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut opts = t.mjob.flow_options(false);
            opts.fault = t.fault.as_ref().map(|p| p.fresh());
            BatchJob {
                // the name carries the task index: the runner only gets
                // &BatchJob, and display names live in the job table
                name: i.to_string(),
                network: t.network.clone(),
                ks: t.mjob.ks.clone(),
                opts,
                deadline: t.mjob.deadline(),
            }
        })
        .collect();
    let runner = |j: &BatchJob| -> Result<JobSuccess, FlowError> {
        let ti: usize = j.name.parse().expect("batch job name is the task index");
        let t = &tasks[ti];
        let mut sp = obs::trace::span("serve.job");
        sp.attr_num("job", t.job_id as f64);
        if !t.request_id.is_empty() {
            sp.attr_str("request_id", &t.request_id);
        }
        mark_running(shared, t.job_id);
        obs::counter_add("serve.computes", 1);
        if t.fault.is_some() {
            // fault-plan jobs take the stock batch path so injected
            // failures hit the same stages they would under `casyn batch`
            return run_batch_job(j, &bopts);
        }
        let prep = prepared_for(shared, t.prep_key, &j.network, &j.opts)?;
        let mut rows = Vec::with_capacity(j.ks.len());
        for &k in &j.ks {
            let result = congestion_flow_prepared(&prep, k, &j.opts)?;
            {
                let mut g = lock_inner(shared);
                let mut ev = event("k_done");
                ev.push(("k".into(), JsonValue::Number(k)));
                ev.push(("violations".into(), JsonValue::Number(result.route.violations as f64)));
                push_event(&mut g.jobs[t.job_id], ev);
            }
            shared.state_cv.notify_all();
            rows.push(KSweepEntry { k, result });
        }
        Ok(JobSuccess { rows, degraded: false })
    };
    let on_done = |i: usize, jr: &BatchJobReport| finish_job(shared, &tasks[i], jr);
    run_batch(&jobs, pool, &bopts, runner, on_done);
}

fn finish_job(shared: &Shared, t: &Task, jr: &BatchJobReport) {
    let mut g = lock_inner(shared);
    // a job that finishes outside the retention window is released at once
    let swept = g.swept;
    match &jr.outcome {
        Ok(s) => {
            let rows = Arc::new(JsonValue::Array(s.rows.iter().map(k_row_json).collect()));
            if let Some(k) = t.result_key {
                g.results.insert(k, CachedResult { rows: rows.clone(), degraded: s.degraded });
                // spill to disk *before* the terminal journal record, so
                // a replayed `done` implies the artifact should exist
                // (replay recomputes if the write below failed)
                if let Some(d) = &shared.durable {
                    let doc = JsonValue::object(vec![
                        ("schema".into(), JsonValue::Str("casyn.serve.cache.v1".into())),
                        ("rows".into(), (*rows).clone()),
                        ("degraded".into(), JsonValue::Bool(s.degraded)),
                    ]);
                    if let Err(e) = d.cache.put("job", k, &doc) {
                        obs::log::warn(&format!("cache: spill of {k:016x} failed: {e}"));
                    }
                }
            }
            let followers = t.result_key.and_then(|k| g.inflight.remove(&k)).unwrap_or_default();
            for id in std::iter::once(t.job_id).chain(followers) {
                let rec = &mut g.jobs[id];
                rec.status = JobStatus::Done;
                rec.rows = Some(rows.clone());
                rec.degraded = s.degraded;
                rec.wall_ms = jr.wall_ms;
                push_event(rec, event("done"));
                if id < swept {
                    rec.release();
                }
                obs::counter_add("serve.jobs_done", 1);
                if let Some(d) = &shared.durable {
                    d.append(wal_done(id, t.result_key, s.degraded, jr.wall_ms));
                }
            }
        }
        Err(e) => {
            let cancelled = e.kind == FlowErrorKind::Cancelled;
            let status = if cancelled { JobStatus::Cancelled } else { JobStatus::Failed };
            let followers = t.result_key.and_then(|k| g.inflight.remove(&k)).unwrap_or_default();
            for id in std::iter::once(t.job_id).chain(followers) {
                let rec = &mut g.jobs[id];
                rec.status = status;
                rec.error = Some(e.to_string());
                rec.wall_ms = jr.wall_ms;
                let mut ev = event(status.as_str());
                ev.push(("error".into(), JsonValue::Str(e.to_string())));
                push_event(rec, ev);
                if id < swept {
                    rec.release();
                }
                obs::counter_add(
                    if cancelled { "serve.jobs_cancelled" } else { "serve.jobs_failed" },
                    1,
                );
                if let Some(d) = &shared.durable {
                    d.append(if cancelled {
                        JsonValue::object(wal_rec("cancelled", id))
                    } else {
                        wal_failed(id, &e.to_string())
                    });
                }
            }
        }
    }
    drop(g);
    shared.state_cv.notify_all();
}
