//! The synthesis service: job table, bounded admission queue, compute
//! workers, content-addressed artifact cache and graceful drain.
//!
//! ## Architecture
//!
//! One accept-loop thread spawns a handler thread per connection
//! (requests are short; the only long-lived handlers are `result?wait=1`
//! and `/jobs/<id>/events` streams, which block on a condvar, not a
//! core). `workers` long-lived compute threads each take the oldest
//! queued job as soon as they are free and run it through the batch
//! runner's per-job loop, [`casyn_flow::batch::run_one`], so serve jobs
//! inherit the panic isolation, retries and cancellation of `casyn
//! batch`; a deadline counts from admission. Admission wakes one worker
//! per queued job, a cache hit none.
//!
//! ## Caching and dedup
//!
//! Each cacheable job gets a content address from [`KeyBuilder`]
//! (design text hash + library fingerprint + flow parameters, never
//! timings), computed from the raw text without parsing the design.
//! Submission classifies jobs in one pass under the state lock:
//! result-cache hit (answered instantly), in-flight duplicate (attached
//! as a follower of the running compute), or fresh (admitted to the
//! queue, 429 when the whole request does not fit). Only a fresh job's
//! design is parsed, outside the lock. The prepare cache additionally
//! shares the expensive flow front end between jobs that differ only in
//! their K schedule.

use crate::cache::{DiskCache, Lru};
use crate::http::{self, HttpError, Request};
use casyn_exec::{CancelToken, FaultKind, FaultPlan, Pool};
use casyn_flow::batch::{
    run_batch_job, run_one, BatchJob, BatchJobReport, BatchOptions, JobSuccess,
};
use casyn_flow::durable::Wal;
use casyn_flow::telemetry::snapshot_json;
use casyn_flow::{
    congestion_flow_prepared, fnv1a64, k_row_json, library_fingerprint, parse_manifest_value,
    prepare, DesignFormat, FlowError, FlowErrorKind, FlowOptions, KSweepEntry, KeyBuilder,
    ManifestDefaults, ManifestJob, Prepared,
};
use casyn_netlist::network::Network;
use casyn_obs as obs;
use casyn_obs::json::{JsonErrorKind, JsonLimits, JsonValue};
use casyn_place::PlacerBackend;
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
    /// Long-lived compute threads, each running one job at a time
    /// (0 = the worker count of `Pool::from_env`).
    pub workers: usize,
    /// Maximum queued jobs: admitted, and not yet taken by a worker.
    /// Submissions that do not fit are rejected whole with 429.
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

/// How a job's result was (or will be) obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Miss,
    /// From the memory LRU.
    Hit,
    /// From the disk cache (a spilled artifact, possibly from before a
    /// restart).
    Disk,
    /// A follower of the in-flight compute of the same content address.
    Dedup,
    /// A fault-plan job, which skips the cache.
    Bypass,
    /// A job that failed before it could be looked up.
    Uncached,
}

impl Cache {
    fn as_str(self) -> &'static str {
        match self {
            Cache::Miss => "miss",
            Cache::Hit => "hit",
            Cache::Disk => "disk",
            Cache::Dedup => "dedup",
            Cache::Bypass => "bypass",
            Cache::Uncached => "none",
        }
    }
}

/// One row of the job table. The table keeps every record for the life
/// of the process, so a record keeps little: its three strings share one
/// allocation, and what only a live or recent job needs sits in a boxed
/// [`Live`] part that [`JobRecord::release`] drops.
struct JobRecord {
    /// `name`, `design` and `request_id`, back to back. The request id is
    /// that of the HTTP request that admitted the job; it is stamped into
    /// every event line, journal record and span so one id correlates the
    /// access log, NDJSON stream and trace.
    ident: Box<str>,
    name_len: usize,
    design_len: usize,
    /// The job's content address (`None` for fault-plan jobs): where a
    /// released record's rows are looked up again.
    result_key: Option<u64>,
    error: Option<Box<str>>,
    wall_ms: f64,
    /// The sequence number of the job's last journal record (0: none); a
    /// response that reports the job waits until that record is durable.
    wal_seq: u64,
    /// `None` once the record is released.
    live: Option<Box<Live>>,
    /// Event lines ever pushed, including those a release dropped.
    event_count: u32,
    status: JobStatus,
    cache: Cache,
    degraded: bool,
}

/// The part of a job record that only a live or recent job needs.
struct Live {
    rows: Option<Arc<JsonValue>>,
    events: Vec<String>,
    submitted: Instant,
}

impl JobRecord {
    fn new(name: &str, design: &str, request_id: &str, result_key: Option<u64>) -> JobRecord {
        JobRecord {
            ident: [name, design, request_id].concat().into_boxed_str(),
            name_len: name.len(),
            design_len: design.len(),
            result_key,
            error: None,
            wall_ms: 0.0,
            wal_seq: 0,
            live: Some(Box::new(Live {
                rows: None,
                events: Vec::new(),
                submitted: Instant::now(),
            })),
            event_count: 0,
            status: JobStatus::Queued,
            cache: Cache::Miss,
            degraded: false,
        }
    }

    fn name(&self) -> &str {
        &self.ident[..self.name_len]
    }

    fn design(&self) -> &str {
        &self.ident[self.name_len..self.name_len + self.design_len]
    }

    fn request_id(&self) -> &str {
        &self.ident[self.name_len + self.design_len..]
    }

    /// Sets the rows of a job that finished (or was found) done.
    fn set_rows(&mut self, rows: Arc<JsonValue>) {
        if let Some(live) = &mut self.live {
            live.rows = Some(rows);
        }
    }

    /// Gives up the bulk of a finished record — its result rows and its
    /// event lines — and keeps the metadata `GET /jobs/<id>` reports.
    /// The rows of a job with a content address stay reachable through
    /// the result caches; a server that ran for a day must not hold every
    /// result it ever produced.
    fn release(&mut self) {
        debug_assert!(self.status.terminal(), "only finished jobs are released");
        self.live = None;
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

/// An admitted job waiting for a worker.
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
    /// When the job was admitted (or re-admitted by replay): its
    /// deadline counts from here, queue wait included.
    admitted: Instant,
}

struct Inner {
    jobs: Vec<JobRecord>,
    /// Jobs in `jobs` that are not terminal yet (the `serve.inflight`
    /// gauge), kept by [`push_job`] and [`finish_job`].
    unfinished: usize,
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
    /// Wakes one worker per queued job, and every worker on drain.
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
    /// The fingerprint of the cell library every job maps to, computed
    /// once at start-up: a content key needs it, a resubmission should
    /// not pay for it.
    lib_fp: u64,
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

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_inner(shared: &Shared) -> MutexGuard<'_, Inner> {
    lock(&shared.inner)
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
    /// Binds, spawns the accept loop and the workers, and returns.
    /// Metrics collection is switched on (the service exposes
    /// `/metrics`).
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        obs::set_enabled(true);
        let workers = if config.workers == 0 { Pool::from_env().workers() } else { config.workers };
        let lib_fp = library_fingerprint(&FlowOptions::default().lib);
        let mut inner = Inner {
            jobs: Vec::new(),
            unfinished: 0,
            swept: 0,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            results: Lru::new(config.result_cache_cap),
            prepared: Lru::new(config.prepare_cache_cap),
            draining: false,
        };
        let durable = match &config.state_dir {
            None => None,
            Some(dir) => Some(recover_into(dir, config.io_fault.clone(), lib_fp, &mut inner)?),
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
            lib_fp,
            store: obs::SeriesStore::new(),
            started: Instant::now(),
            req_seq: AtomicU64::new(0),
            log_window: Mutex::new(LogWindow::default()),
        });
        let mut threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|wid| {
                let shared = shared.clone();
                thread::spawn(move || worker_loop(&shared, wid))
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            thread::spawn(move || accept_loop(&shared, listener))
        };
        let sampler = {
            let shared = shared.clone();
            thread::spawn(move || sampler_loop(&shared))
        };
        threads.extend([acceptor, sampler]);
        Ok(Server { addr, shared, threads })
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
    // once the accept loop and workers join) races this detached
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

/// A manifest entry addressed by its raw design text: what admission
/// needs to classify it, plus the text to parse should it have to run.
struct Keyed {
    text: String,
    format: DesignFormat,
    fault: Option<FaultPlan>,
    prep_key: u64,
    result_key: Option<u64>,
}

/// Derives the job's content address — design text hash, library
/// fingerprint `lib_fp` and flow parameters — without parsing the
/// design: the key hashes the raw text, so a parse would add nothing to
/// it. Wall-clock never enters a key, so a resubmit hits regardless of
/// how long the original run took.
fn content_keys(m: &ManifestJob, lib_fp: u64) -> Result<Keyed, String> {
    let fault = m.fault()?;
    let (text, format) = m.design_text()?;
    let placer = m.placer.unwrap_or_else(PlacerBackend::from_env);
    debug_assert!(
        {
            let opts = m.flow_options(false);
            library_fingerprint(&opts.lib) == lib_fp && opts.placer.backend == placer
        },
        "the key covers the library and placer the job runs with"
    );
    let design_hash = fnv1a64(text.as_bytes());
    let key = |domain: &str| {
        KeyBuilder::new(domain)
            .hash(design_hash)
            .hash(lib_fp)
            .num(m.util)
            .int(m.layers as u64)
            .bool(m.optimize)
            .str(placer.name())
    };
    let prep_key = key("casyn.serve.prep.v1").finish();
    let result_key = fault.is_none().then(|| key("casyn.serve.job.v1").nums(&m.ks).finish());
    Ok(Keyed { text, format, fault, prep_key, result_key })
}

/// Parses the design of a job that is going to run. Only such a job is
/// parsed, and never under the state lock.
fn parse_keyed(m: &ManifestJob, k: &Keyed) -> Result<Network, String> {
    obs::counter_add("serve.design_parses", 1);
    m.parse_network(&k.text, k.format)
}

// ---------------------------------------------------------------------------
// Durability: the `casyn.wal.v1` job journal plus the checksummed disk
// cache under `--state-dir`, and the startup replay that restores the
// job table from them.
//
// Lifecycle records are *enqueued* while the state lock is held, so
// journal order matches job-id order (replay depends on `admitted`
// records arriving in id order), and *written* outside it by group
// commit. Locking order is `Inner` → `queued` and `wal` → `queued`;
// `queued` is held for nothing else.
// ---------------------------------------------------------------------------

/// The durable half of the server state.
struct Durable {
    /// Held by the thread committing a group, across its write and sync.
    wal: Mutex<Wal>,
    /// Sealed records not written yet, in enqueue order.
    queued: Mutex<Queued>,
    /// The sequence number of the last record whose write has completed,
    /// landed or failed. The committing thread stores it with `Release`
    /// after its write and sync return; a waiter's `Acquire` load that
    /// reads its own number therefore happens after that write.
    written: AtomicU64,
    cache: DiskCache,
    /// When the last journal write succeeded; `serve.wal.lag_s` is the
    /// age of this stamp, a proxy for "the journal is keeping up".
    last_append: Mutex<Option<Instant>>,
}

/// The journal's write queue: sealed lines, and the sequence number of
/// the last line ever enqueued (records are numbered from 1).
#[derive(Default)]
struct Queued {
    lines: Vec<String>,
    last: u64,
}

/// Counts and logs a journal record that did not land: an unwritable
/// journal degrades durability, not availability.
fn wal_error(e: &std::io::Error) {
    obs::counter_add("serve.wal.errors", 1);
    obs::log::warn(&format!("wal: append failed ({e}); durability degraded"));
}

impl Durable {
    fn new(wal: Wal, cache: DiskCache) -> Durable {
        Durable {
            wal: Mutex::new(wal),
            queued: Mutex::new(Queued::default()),
            written: AtomicU64::new(0),
            cache,
            last_append: Mutex::new(None),
        }
    }

    /// Enqueues one lifecycle record and returns its sequence number;
    /// [`Durable::sync`] writes it. Called under the state lock, which
    /// orders the records.
    fn append(&self, rec: &JsonValue) -> u64 {
        let sealed = Wal::seal(rec);
        let mut q = lock(&self.queued);
        match sealed {
            Ok(line) => {
                q.lines.push(line);
                q.last += 1;
            }
            Err(e) => wal_error(&e),
        }
        q.last
    }

    /// Returns once every record up to `seq` has been written, landed or
    /// failed. The first thread to get here writes everything queued with
    /// one write and one `fdatasync` (a group commit); the threads whose
    /// records it took along find them written with one atomic load. The
    /// journal wedges itself after a torn write (the tail is in an
    /// unknown state), so a single bad write cannot corrupt replay.
    fn sync(&self, seq: u64) {
        if self.written.load(Ordering::Acquire) >= seq {
            return;
        }
        let mut wal = lock(&self.wal);
        if self.written.load(Ordering::Acquire) >= seq {
            return; // the group commit this thread waited on took it along
        }
        let (lines, last) = {
            let mut q = lock(&self.queued);
            (std::mem::take(&mut q.lines), q.last)
        };
        let failed = wal.append_sealed(&lines);
        failed.iter().for_each(wal_error);
        if failed.len() < lines.len() {
            obs::counter_add("serve.wal.syncs", 1);
            *lock(&self.last_append) = Some(Instant::now());
        }
        self.written.store(last, Ordering::Release);
    }

    /// Writes everything enqueued so far.
    fn sync_all(&self) {
        let last = lock(&self.queued).last;
        self.sync(last);
    }

    /// Seconds since the last successful journal write (0 before the
    /// first one).
    fn lag_s(&self) -> f64 {
        lock(&self.last_append).map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0)
    }
}

/// Enqueues a journal record for the job `rec` (when the server is
/// durable) and remembers its sequence number on the record.
fn journal(shared: &Shared, rec: &mut JobRecord, doc: impl FnOnce() -> JsonValue) {
    if let Some(d) = &shared.durable {
        rec.wal_seq = d.append(&doc());
    }
}

/// Waits until the journal records up to `seq` are written: a response
/// that reports a job's state goes out only after its records.
fn await_journal(shared: &Shared, seq: u64) {
    if let Some(d) = &shared.durable {
        d.sync(seq);
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
/// worker path. A journal damaged anywhere but its final line is a
/// typed, line-numbered error and the server refuses to start.
fn recover_into(
    dir: &std::path::Path,
    fault: Option<FaultPlan>,
    lib_fp: u64,
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
                        rec.cache = Cache::Disk;
                        rec.set_rows(c.rows.clone());
                        rec.degraded = c.degraded;
                        rec.wall_ms = f.wall_ms;
                        push_event(&mut rec, event("done"));
                        if let Some(k) = f.result_key {
                            inner.results.insert(k, c);
                        }
                    }
                    // the artifact is gone (never spilled, or quarantined
                    // as corrupt): recompute rather than serve nothing
                    None => requeue_replayed(inner, &durable, lib_fp, id, &mut rec, f),
                }
            }
            JobStatus::Failed | JobStatus::Cancelled => {
                rec.status = f.status;
                rec.cache = Cache::Uncached;
                rec.error = f.error.as_deref().map(Box::from);
                rec.wall_ms = f.wall_ms;
                push_event(&mut rec, event(f.status.as_str()));
            }
            JobStatus::Queued | JobStatus::Running => {
                requeue_replayed(inner, &durable, lib_fp, id, &mut rec, f)
            }
        }
        push_job(inner, rec);
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
/// duplicate, or a fresh queue entry — the only case that parses the
/// design. The `admitted` record already exists, so only terminal
/// records will follow.
fn requeue_replayed(
    inner: &mut Inner,
    durable: &Durable,
    lib_fp: u64,
    id: usize,
    rec: &mut JobRecord,
    f: &Replayed,
) {
    let keyed = match &f.manifest {
        None => Err("journal admitted record carries no manifest".to_string()),
        Some(mdoc) => {
            replayed_manifest_job(mdoc).and_then(|m| content_keys(&m, lib_fp).map(|k| (m, k)))
        }
    };
    let (m, k) = match keyed {
        Ok(mk) => mk,
        Err(e) => return fail_replayed(rec, &e),
    };
    rec.result_key = k.result_key;
    if let Some(key) = k.result_key {
        if let Some(c) = disk_lookup(durable, key) {
            rec.status = JobStatus::Done;
            rec.cache = Cache::Disk;
            rec.set_rows(c.rows.clone());
            rec.degraded = c.degraded;
            push_event(rec, event("done"));
            inner.results.insert(key, c);
            return;
        }
        if let Some(followers) = inner.inflight.get_mut(&key) {
            rec.cache = Cache::Dedup;
            push_event(rec, event("deduped"));
            followers.push(id);
            return;
        }
    }
    let network = match parse_keyed(&m, &k) {
        Ok(n) => n,
        Err(e) => return fail_replayed(rec, &e),
    };
    match k.result_key {
        Some(key) => {
            inner.inflight.insert(key, Vec::new());
        }
        None => rec.cache = Cache::Bypass,
    }
    push_event(rec, event("queued"));
    obs::counter_add("serve.recovered", 1);
    inner.queue.push_back(Task {
        job_id: id,
        request_id: f.request_id.clone(),
        mjob: m,
        network,
        fault: k.fault,
        prep_key: k.prep_key,
        result_key: k.result_key,
        admitted: Instant::now(),
    });
}

/// Marks a replayed job failed because it can no longer be run.
fn fail_replayed(rec: &mut JobRecord, e: &str) {
    let error = format!("recovery: {e}");
    rec.status = JobStatus::Failed;
    rec.cache = Cache::Uncached;
    let mut ev = event("failed");
    ev.push(("error".into(), JsonValue::Str(error.clone())));
    push_event(rec, ev);
    rec.error = Some(error.into());
    obs::counter_add("serve.jobs_failed", 1);
}

/// Appends a record to the job table, counting it while it is
/// unfinished; [`finish_job`] uncounts it.
fn push_job(g: &mut Inner, rec: JobRecord) {
    g.unfinished += usize::from(!rec.status.terminal());
    g.jobs.push(rec);
}

fn push_event(rec: &mut JobRecord, mut fields: Vec<(String, JsonValue)>) {
    rec.event_count += 1;
    let request_id = &rec.ident[rec.name_len + rec.design_len..];
    let Some(live) = &mut rec.live else { return };
    let t_ms = live.submitted.elapsed().as_secs_f64() * 1e3;
    fields.push(("t_ms".into(), JsonValue::Number(t_ms)));
    if !request_id.is_empty() {
        fields.push(("request_id".into(), JsonValue::Str(request_id.to_string())));
    }
    live.events.push(JsonValue::object(fields).to_string_compact());
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
/// it: the memory LRU ([`Cache::Hit`]), then the disk cache
/// ([`Cache::Disk`], promoted back into the LRU).
fn cached_result(shared: &Shared, g: &mut Inner, key: u64) -> Option<(CachedResult, Cache)> {
    if let Some(c) = g.results.get(key) {
        return Some((c.clone(), Cache::Hit));
    }
    // spilled by an earlier run (possibly before a restart)
    let c = disk_lookup(shared.durable.as_ref()?, key)?;
    g.results.insert(key, c.clone());
    Some((c, Cache::Disk))
}

fn event(name: &str) -> Vec<(String, JsonValue)> {
    vec![("event".into(), JsonValue::Str(name.into()))]
}

/// How submission classified one manifest entry.
enum Admit {
    LoadError(String),
    /// Served from cache, from where the tag says.
    Hit(CachedResult, Cache),
    Dedup(u64),
    Enqueue,
}

/// One manifest entry on its way through admission.
struct Candidate {
    m: ManifestJob,
    keyed: Result<Keyed, String>,
    /// The parsed design, once classification has said the job runs.
    network: Option<Result<Network, String>>,
}

/// Decides every candidate's fate before anything is mutated, so a 429
/// rejects the whole request without admitting a partial batch. A job
/// that would run but has no parsed design yet classifies as `Enqueue`;
/// the caller parses it and classifies again.
fn classify(shared: &Shared, g: &mut Inner, cands: &[Candidate]) -> Vec<Admit> {
    let mut pending: HashSet<u64> = HashSet::new();
    cands
        .iter()
        .map(|c| match (&c.keyed, &c.network) {
            (Err(e), _) | (_, Some(Err(e))) => Admit::LoadError(e.clone()),
            (Ok(k), _) => match k.result_key {
                // a key being computed is in neither cache yet
                Some(key) if g.inflight.contains_key(&key) || pending.contains(&key) => {
                    Admit::Dedup(key)
                }
                Some(key) => match cached_result(shared, g, key) {
                    Some((c, tag)) => Admit::Hit(c, tag),
                    None => {
                        pending.insert(key);
                        Admit::Enqueue
                    }
                },
                None => Admit::Enqueue,
            },
        })
        .collect()
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
    // content addressing happens outside the state lock, from the raw text
    let mut cands: Vec<Candidate> = manifest
        .into_iter()
        .map(|m| {
            let keyed = content_keys(&m, shared.lib_fp);
            Candidate { m, keyed, network: None }
        })
        .collect();
    // a job that runs is parsed outside the lock, after which the request
    // is classified afresh: the state may have moved in between
    let (mut g, admits) = loop {
        let mut g = lock_inner(shared);
        if g.draining {
            return Err(HttpError::unavailable("server is draining"));
        }
        let admits = classify(shared, &mut g, &cands);
        let unparsed: Vec<usize> = (0..cands.len())
            .filter(|&i| matches!(admits[i], Admit::Enqueue) && cands[i].network.is_none())
            .collect();
        if unparsed.is_empty() {
            break (g, admits);
        }
        drop(g);
        for i in unparsed {
            let c = &mut cands[i];
            if let Ok(k) = &c.keyed {
                c.network = Some(parse_keyed(&c.m, k));
            }
        }
    };
    let slots = admits.iter().filter(|a| matches!(a, Admit::Enqueue)).count();
    if g.queue.len() + slots > shared.config.queue_capacity {
        obs::counter_add("serve.rejected", cands.len() as u64);
        return Err(HttpError::backpressure(format!(
            "queue full: {} queued of capacity {}, {slots} more requested",
            g.queue.len(),
            shared.config.queue_capacity
        )));
    }
    // admission pass
    let mut out = Vec::with_capacity(cands.len());
    let mut wal_seq = 0;
    for (Candidate { m, keyed, network }, admit) in cands.into_iter().zip(admits) {
        let id = g.jobs.len();
        let result_key = keyed.as_ref().ok().and_then(|k| k.result_key);
        let mut rec = JobRecord::new(&m.name, &m.design, rid, result_key);
        push_event(&mut rec, event("submitted"));
        obs::counter_add("serve.submitted", 1);
        // journal the admission before the outcome records below; the
        // `admitted` record carries the manifest so replay can re-run
        journal(shared, &mut rec, || wal_admitted(id, &m, result_key, rid));
        match admit {
            Admit::LoadError(e) => {
                rec.status = JobStatus::Failed;
                rec.cache = Cache::Uncached;
                let mut ev = event("failed");
                ev.push(("error".into(), JsonValue::Str(e.clone())));
                push_event(&mut rec, ev);
                obs::counter_add("serve.jobs_failed", 1);
                journal(shared, &mut rec, || wal_failed(id, &e));
                rec.error = Some(e.into());
            }
            Admit::Hit(c, tag) => {
                rec.status = JobStatus::Done;
                rec.cache = tag;
                rec.set_rows(c.rows);
                rec.degraded = c.degraded;
                push_event(&mut rec, event("cache_hit"));
                push_event(&mut rec, event("done"));
                obs::counter_add("serve.cache_hits", 1);
                obs::counter_add("serve.jobs_done", 1);
                journal(shared, &mut rec, || wal_done(id, result_key, c.degraded, 0.0));
            }
            Admit::Dedup(k) => {
                rec.cache = Cache::Dedup;
                push_event(&mut rec, event("deduped"));
                g.inflight.entry(k).or_default().push(id);
                obs::counter_add("serve.deduped", 1);
            }
            Admit::Enqueue => {
                let (Ok(k), Some(Ok(network))) = (keyed, network) else {
                    unreachable!("only a keyed, parsed job classifies as Enqueue")
                };
                match k.result_key {
                    Some(key) => {
                        g.inflight.insert(key, Vec::new());
                    }
                    None => rec.cache = Cache::Bypass,
                }
                push_event(&mut rec, event("queued"));
                g.queue.push_back(Task {
                    job_id: id,
                    request_id: rid.to_string(),
                    mjob: m,
                    network,
                    fault: k.fault,
                    prep_key: k.prep_key,
                    result_key: k.result_key,
                    admitted: Instant::now(),
                });
                obs::counter_add("serve.queued", 1);
            }
        }
        out.push(JsonValue::object(vec![
            ("id".into(), JsonValue::Number(id as f64)),
            ("name".into(), JsonValue::Str(rec.name().to_string())),
            ("status".into(), JsonValue::Str(rec.status.as_str().into())),
            ("cache".into(), JsonValue::Str(rec.cache.as_str().into())),
        ]));
        wal_seq = wal_seq.max(rec.wal_seq);
        push_job(&mut g, rec);
    }
    sweep_retention(&mut g, shared.config.result_cache_cap);
    drop(g);
    // one worker per queued job; hits and followers have nothing to run
    for _ in 0..slots {
        shared.queue_cv.notify_one();
    }
    await_journal(shared, wal_seq);
    Ok((
        202,
        JsonValue::object(vec![
            ("request_id".into(), JsonValue::Str(rid.to_string())),
            ("jobs".into(), JsonValue::Array(out)),
        ]),
    ))
}

/// The fields of the job's status document (`/result` adds `rows`).
fn status_fields(rec: &JobRecord, id: usize) -> Vec<(String, JsonValue)> {
    let mut doc = vec![
        ("id".into(), JsonValue::Number(id as f64)),
        ("name".into(), JsonValue::Str(rec.name().to_string())),
        ("design".into(), JsonValue::Str(rec.design().to_string())),
        ("request_id".into(), JsonValue::Str(rec.request_id().to_string())),
        ("status".into(), JsonValue::Str(rec.status.as_str().into())),
        ("cache".into(), JsonValue::Str(rec.cache.as_str().into())),
        ("degraded".into(), JsonValue::Bool(rec.degraded)),
        ("wall_ms".into(), JsonValue::Number(rec.wall_ms)),
        ("events".into(), JsonValue::Number(f64::from(rec.event_count))),
    ];
    if let Some(e) = &rec.error {
        doc.push(("error".into(), JsonValue::Str(e.to_string())));
    }
    doc
}

fn handle_status(shared: &Shared, id: &str) -> Result<(u16, JsonValue), HttpError> {
    let id = parse_job_id(shared, id)?;
    let (doc, seq) = {
        let g = lock_inner(shared);
        (status_fields(&g.jobs[id], id), g.jobs[id].wal_seq)
    };
    await_journal(shared, seq);
    Ok((200, JsonValue::Object(doc)))
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
    let rows = if let Some(live) = &rec.live {
        live.rows.clone()
    } else if rec.status == JobStatus::Done {
        // a released result is re-served from where a resubmission of
        // the same job would find it
        let key = rec.result_key;
        match key.and_then(|k| cached_result(shared, &mut g, k)) {
            Some((c, _)) => Some(c.rows),
            None => {
                return Err(HttpError::gone(format!(
                    "the result of job {id} was released and is in no cache; resubmit it"
                )))
            }
        }
    } else {
        None
    };
    let (mut doc, seq) = (status_fields(&g.jobs[id], id), g.jobs[id].wal_seq);
    drop(g);
    await_journal(shared, seq);
    // the rows are shared with the cache: copy them outside the lock
    let rows = rows.map_or_else(|| JsonValue::Array(Vec::new()), |r| (*r).clone());
    doc.push(("rows".into(), rows));
    Ok((200, JsonValue::Object(doc)))
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
        let (chunk, terminal, seq) = {
            let mut g = lock_inner(shared);
            loop {
                let rec = &g.jobs[id];
                let Some(live) = &rec.live else {
                    // the lines are gone — possibly between two polls of
                    // this very stream: say so once and end
                    break (vec![r#"{"event":"expired"}"#.to_string()], true, 0);
                };
                if live.events.len() > sent || rec.status.terminal() {
                    let chunk: Vec<String> = live.events.get(sent..).unwrap_or_default().to_vec();
                    sent = live.events.len();
                    break (chunk, rec.status.terminal(), rec.wal_seq);
                }
                let (ng, _) = shared
                    .state_cv
                    .wait_timeout(g, Duration::from_millis(500))
                    .unwrap_or_else(|p| p.into_inner());
                g = ng;
            }
        };
        await_journal(shared, seq);
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
        obs::gauge_set("serve.inflight", g.unfinished as f64);
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

/// One compute worker: takes the oldest queued job as soon as it is
/// free, until a drain finds the queue empty.
fn worker_loop(shared: &Shared, wid: usize) {
    obs::trace::set_thread_label(&format!("w{wid}"));
    let bopts = BatchOptions {
        retries: shared.config.retries,
        escalate_k: false,
        cancel: Some(shared.cancel.clone()),
    };
    loop {
        let mut g = lock_inner(shared);
        let task = loop {
            if let Some(t) = g.queue.pop_front() {
                break t;
            }
            if g.draining {
                drop(g);
                // drained: every job admitted before the drain has its
                // records queued; write them before the process may exit
                if let Some(d) = &shared.durable {
                    d.sync_all();
                }
                return;
            }
            g = shared.queue_cv.wait(g).unwrap_or_else(|p| p.into_inner());
        };
        drop(g);
        run_task(shared, &bopts, task);
    }
}

/// Marks a claimed job running. Its `started` record is enqueued but
/// not waited for: replay requeues a running job exactly like a queued
/// one, so nothing depends on that record being durable.
fn mark_running(shared: &Shared, job_id: usize) {
    let mut g = lock_inner(shared);
    let rec = &mut g.jobs[job_id];
    if rec.status == JobStatus::Queued {
        rec.status = JobStatus::Running;
        push_event(rec, event("started"));
        journal(shared, rec, || JsonValue::object(wal_rec("started", job_id)));
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

/// Runs one claimed job through the batch runner's per-job loop, with
/// its deadline counted from admission, and records the outcome.
fn run_task(shared: &Shared, bopts: &BatchOptions, t: Task) {
    let Task { job_id, request_id, mjob, network, fault, prep_key, result_key, admitted } = t;
    let mut opts = mjob.flow_options(false);
    opts.fault = fault;
    let deadline = mjob.deadline();
    let job = BatchJob { name: mjob.name, network, ks: mjob.ks, opts, deadline };
    let runner = |j: &BatchJob| -> Result<JobSuccess, FlowError> {
        let mut sp = obs::trace::span("serve.job");
        sp.attr_num("job", job_id as f64);
        if !request_id.is_empty() {
            sp.attr_str("request_id", &request_id);
        }
        mark_running(shared, job_id);
        obs::counter_add("serve.computes", 1);
        if j.opts.fault.is_some() {
            // fault-plan jobs take the stock batch path so injected
            // failures hit the same stages they would under `casyn batch`
            return run_batch_job(j, bopts);
        }
        let prep = prepared_for(shared, prep_key, &j.network, &j.opts)?;
        let mut rows = Vec::with_capacity(j.ks.len());
        for &k in &j.ks {
            let result = congestion_flow_prepared(&prep, k, &j.opts)?;
            {
                let mut g = lock_inner(shared);
                let mut ev = event("k_done");
                ev.push(("k".into(), JsonValue::Number(k)));
                ev.push(("violations".into(), JsonValue::Number(result.route.violations as f64)));
                push_event(&mut g.jobs[job_id], ev);
            }
            shared.state_cv.notify_all();
            rows.push(KSweepEntry { k, result });
        }
        Ok(JobSuccess { rows, degraded: false })
    };
    let report = run_one(&job, admitted, bopts, runner);
    finish_job(shared, job_id, result_key, &report);
}

fn finish_job(shared: &Shared, job_id: usize, result_key: Option<u64>, jr: &BatchJobReport) {
    let outcome = jr.outcome.as_ref().map(|s| CachedResult {
        rows: Arc::new(JsonValue::Array(s.rows.iter().map(k_row_json).collect())),
        degraded: s.degraded,
    });
    // spill to disk outside the lock, and *before* the terminal journal
    // record, so a replayed `done` implies the artifact should exist
    // (replay recomputes if the write below failed)
    if let (Ok(c), Some(k), Some(d)) = (&outcome, result_key, &shared.durable) {
        let doc = JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("casyn.serve.cache.v1".into())),
            ("rows".into(), (*c.rows).clone()),
            ("degraded".into(), JsonValue::Bool(c.degraded)),
        ]);
        if let Err(e) = d.cache.put("job", k, &doc) {
            obs::log::warn(&format!("cache: spill of {k:016x} failed: {e}"));
        }
    }
    let mut guard = lock_inner(shared);
    let g = &mut *guard;
    if let (Ok(c), Some(k)) = (&outcome, result_key) {
        g.results.insert(k, c.clone());
    }
    let followers = result_key.and_then(|k| g.inflight.remove(&k)).unwrap_or_default();
    let mut wal_seq = 0;
    for id in std::iter::once(job_id).chain(followers) {
        let rec = &mut g.jobs[id];
        g.unfinished -= usize::from(!rec.status.terminal());
        rec.wall_ms = jr.wall_ms;
        match &outcome {
            Ok(c) => {
                rec.status = JobStatus::Done;
                rec.set_rows(c.rows.clone());
                rec.degraded = c.degraded;
                push_event(rec, event("done"));
                obs::counter_add("serve.jobs_done", 1);
                journal(shared, rec, || wal_done(id, result_key, c.degraded, jr.wall_ms));
            }
            Err(e) => {
                let cancelled = e.kind == FlowErrorKind::Cancelled;
                rec.status = if cancelled { JobStatus::Cancelled } else { JobStatus::Failed };
                let mut ev = event(rec.status.as_str());
                ev.push(("error".into(), JsonValue::Str(e.to_string())));
                push_event(rec, ev);
                rec.error = Some(e.to_string().into());
                obs::counter_add(
                    if cancelled { "serve.jobs_cancelled" } else { "serve.jobs_failed" },
                    1,
                );
                journal(shared, rec, || {
                    if cancelled {
                        JsonValue::object(wal_rec("cancelled", id))
                    } else {
                        wal_failed(id, &e.to_string())
                    }
                });
            }
        }
        // a job that finishes outside the retention window is released at once
        if id < g.swept {
            rec.release();
        }
        wal_seq = rec.wal_seq;
    }
    drop(guard);
    shared.state_cv.notify_all();
    await_journal(shared, wal_seq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request_json;
    use casyn_netlist::bench::{random_pla, PlaGenConfig};
    use casyn_netlist::blif::to_blif;

    /// The key the way it was derived before keys stopped parsing: from
    /// the text `load_network` returns after the parse, and from the
    /// library and placer of the job's own flow options.
    fn parsed_path_keys(m: &ManifestJob) -> (u64, Option<u64>) {
        let (_, raw) = m.load_network().unwrap();
        let opts = m.flow_options(false);
        let key = |domain: &str| {
            KeyBuilder::new(domain)
                .hash(fnv1a64(raw.as_bytes()))
                .hash(library_fingerprint(&opts.lib))
                .num(m.util)
                .int(m.layers as u64)
                .bool(m.optimize)
                .str(opts.placer.backend.name())
        };
        let result_key =
            m.fault().unwrap().is_none().then(|| key("casyn.serve.job.v1").nums(&m.ks));
        (key("casyn.serve.prep.v1").finish(), result_key.map(KeyBuilder::finish))
    }

    #[test]
    fn keys_from_raw_text_equal_the_keys_of_the_parsed_path() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/designs");
        let mut entries: Vec<JsonValue> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pla"))
            .map(|p| {
                let path = p.to_string_lossy().into_owned();
                JsonValue::object(vec![("design".into(), JsonValue::Str(path))])
            })
            .collect();
        assert!(entries.len() >= 2, "the example designs are found");
        let pla = random_pla(&PlaGenConfig { terms: 12, seed: 3, ..Default::default() });
        let blif = to_blif(&pla.to_network(), "inline");
        for extra in [
            vec![],
            vec![
                ("util", JsonValue::Number(0.5)),
                ("optimize", JsonValue::Bool(true)),
                ("placer", JsonValue::Str("bisect".into())),
            ],
            vec![("fault_plan", JsonValue::Str("map:panic:1".into()))],
        ] {
            let mut fields = vec![
                ("name".into(), JsonValue::Str("inline".into())),
                ("source".into(), JsonValue::Str(blif.clone())),
                ("format".into(), JsonValue::Str("blif".into())),
            ];
            fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
            entries.push(JsonValue::object(fields));
        }
        let jobs =
            parse_manifest_value(&JsonValue::Array(entries), &ManifestDefaults::default()).unwrap();
        let lib_fp = library_fingerprint(&FlowOptions::default().lib);
        for m in &jobs {
            let k = content_keys(m, lib_fp).unwrap();
            assert_eq!((k.prep_key, k.result_key), parsed_path_keys(m), "{}", m.name);
        }
        assert!(content_keys(&jobs[jobs.len() - 1], lib_fp).unwrap().result_key.is_none());
    }

    /// One inline-BLIF job entry, plus `extra` fields.
    fn job(name: &str, seed: u64, terms: usize, extra: &[(&str, JsonValue)]) -> JsonValue {
        let pla = random_pla(&PlaGenConfig { terms, seed, ..Default::default() });
        let mut fields = vec![
            ("name".into(), JsonValue::Str(name.into())),
            ("source".into(), JsonValue::Str(to_blif(&pla.to_network(), name))),
            ("format".into(), JsonValue::Str("blif".into())),
            ("ks".into(), JsonValue::Array(vec![JsonValue::Number(0.0), JsonValue::Number(1.0)])),
        ];
        fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
        JsonValue::object(fields)
    }

    fn submit(addr: &str, jobs: Vec<JsonValue>) -> Vec<usize> {
        let body = JsonValue::object(vec![("jobs".into(), JsonValue::Array(jobs))]);
        let (status, doc) =
            request_json(addr, "POST", "/jobs", Some(&body.to_string_compact())).unwrap();
        assert_eq!(status, 202, "{doc:?}");
        let ids = doc.get("jobs").and_then(JsonValue::as_array).unwrap();
        ids.iter().map(|j| j.get("id").and_then(JsonValue::as_f64).unwrap() as usize).collect()
    }

    fn wait_all(addr: &str, ids: &[usize]) {
        for id in ids {
            let (status, _) =
                request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None).unwrap();
            assert_eq!(status, 200);
        }
    }

    /// The unfinished-job count, the `serve.inflight` gauge it feeds and
    /// a walk of the table, which the count replaced. The first two are
    /// read under one lock; the gauge only where nothing is running.
    fn unfinished_and_walk(shared: &Shared) -> (usize, usize) {
        let g = lock_inner(shared);
        (g.unfinished, g.jobs.iter().filter(|r| !r.status.terminal()).count())
    }

    fn inflight_gauge(shared: &Shared) -> f64 {
        sample_now(shared);
        obs::snapshot().gauge("serve.inflight").unwrap()
    }

    #[test]
    fn the_inflight_gauge_equals_a_walk_of_the_job_table() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let shared = server.shared.clone();
        let addr = server.endpoint();
        // a miss, then a hit of it; a duplicate pair (one dedups onto the
        // other); a design that does not parse; a job whose flow fails
        let miss = submit(&addr, vec![job("a", 1, 10, &[])]);
        wait_all(&addr, &miss);
        let fault = ("fault_plan", JsonValue::Str("map:panic:1".into()));
        let bad = JsonValue::object(vec![
            ("name".into(), JsonValue::Str("bad".into())),
            ("source".into(), JsonValue::Str(".inputs a\n".into())),
            ("format".into(), JsonValue::Str("blif".into())),
        ]);
        let mix = submit(
            &addr,
            vec![
                job("a", 1, 10, &[]),
                job("b", 2, 10, &[]),
                job("b", 2, 10, &[]),
                bad,
                job("f", 3, 10, &[fault]),
            ],
        );
        let (count, walk) = unfinished_and_walk(&shared);
        assert_eq!(count, walk);
        wait_all(&addr, &mix);
        assert_eq!(unfinished_and_walk(&shared), (0, 0));
        assert_eq!(inflight_gauge(&shared), 0.0);
        let cache: Vec<&str> = {
            let g = lock_inner(&shared);
            mix.iter().map(|&id| g.jobs[id].cache.as_str()).collect()
        };
        assert_eq!(cache, ["hit", "miss", "dedup", "none", "bypass"]);

        // a backlog for one worker, then a cancel-mode drain
        let backlog: Vec<usize> = (0..4)
            .flat_map(|i| submit(&addr, vec![job(&format!("c{i}"), 10 + i, 40, &[])]))
            .collect();
        let (count, walk) = unfinished_and_walk(&shared);
        assert_eq!(count, walk);
        assert!(count > 0, "the backlog is unfinished");
        request_json(&addr, "POST", "/shutdown", Some("{\"mode\": \"cancel\"}")).unwrap();
        server.wait().unwrap();
        assert_eq!(unfinished_and_walk(&shared), (0, 0));
        assert_eq!(inflight_gauge(&shared), 0.0);
        let g = lock_inner(&shared);
        assert!(backlog.iter().any(|&id| g.jobs[id].status == JobStatus::Cancelled));
    }
}
