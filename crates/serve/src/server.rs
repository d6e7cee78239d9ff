//! The synthesis service: HTTP handlers, admission, compute workers,
//! the durable journal and recovery. A job changes state only through
//! `State::apply`, the transition function of the `state` module.
//!
//! One accept-loop thread spawns a handler thread per connection (the
//! only long-lived handlers are `result?wait=1` and event streams, which
//! block on a condvar). `workers` long-lived compute threads each take
//! the oldest queued job as soon as they are free and run it through the
//! batch runner's per-job loop, [`casyn_flow::batch::run_one`], so serve
//! jobs inherit its panic isolation, retries and cancellation.
//! Submission keys each job from its raw text ([`KeyBuilder`]) and
//! classifies it under the state lock as a cache hit, a follower of an
//! in-flight duplicate, or a fresh job for the queue (429 when the whole
//! request does not fit); only a fresh job's design is parsed, outside
//! the lock.

use crate::cache::{DiskCache, Lru};
use crate::http::{self, HttpError, Request};
use crate::state::{event, Admission, Cache, JobRecord, JobStatus, Manifest, State, Transition};
use casyn_exec::{CancelToken, FaultKind, FaultPlan, Pool};
use casyn_flow::batch::{run_one, BatchJob, BatchJobReport, BatchOptions, JobSuccess};
use casyn_flow::durable::Wal;
use casyn_flow::telemetry::snapshot_json;
use casyn_flow::{
    congestion_flow_prepared, fnv1a64, library_fingerprint, parse_manifest_value, prepare,
    DesignFormat, FlowError, FlowErrorKind, FlowOptions, KSweepEntry, KeyBuilder, ManifestDefaults,
    ManifestJob, Prepared, Row,
};
use casyn_netlist::network::Network;
use casyn_obs as obs;
use casyn_obs::json::{JsonErrorKind, JsonLimits, JsonValue};
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
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
    /// How long `GET /jobs/<id>/result?wait=1` blocks before answering 409.
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

/// A prepare-cache slot: per-key mutex so concurrent jobs with the same
/// front end compute it exactly once while distinct keys proceed in
/// parallel.
pub(crate) type PrepSlot = Arc<Mutex<Option<Arc<Prepared>>>>;

/// An admitted job waiting for a worker.
pub(crate) struct Task {
    id: usize,
    request_id: String,
    job: ManifestJob,
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

struct Shared {
    inner: Mutex<State>,
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
    durable: Option<Arc<Durable>>,
    /// The fingerprint of the cell library every job maps to, computed
    /// once: every content key needs it.
    lib_fp: u64,
    /// Windowed per-second series, fed by the sampler thread and on
    /// demand by the read surfaces; seconds count from `started`.
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

fn lock_inner(shared: &Shared) -> MutexGuard<'_, State> {
    lock(&shared.inner)
}

/// A running synthesis service. Dropping the handle does not stop the
/// server; `POST /shutdown` (and [`Server::wait`] after it) ends it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and the workers, and returns, with
    /// metrics collection switched on (the service exposes `/metrics`).
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        obs::set_enabled(true);
        let workers = if config.workers == 0 { Pool::from_env().workers() } else { config.workers };
        let lib_fp = library_fingerprint(&FlowOptions::default().lib);
        let mut state = State::new(config.result_cache_cap, config.prepare_cache_cap);
        let durable = match &config.state_dir {
            None => None,
            Some(dir) => Some(recover(dir, config.io_fault.clone(), lib_fp, &mut state)?),
        };
        // a long journal replays into a long table: keep only its tail whole
        state.sweep(config.result_cache_cap);
        let shared = Arc::new(Shared {
            inner: Mutex::new(state),
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
    for stream in listener.incoming() {
        if shared.stop_accept.load(Ordering::SeqCst) {
            return; // possibly the self-connect that unblocked us
        }
        if let Ok(stream) = stream {
            let shared = shared.clone();
            thread::spawn(move || handle_conn(&shared, stream));
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

/// One access-log line per HTTP request, at most
/// [`ACCESS_LOG_MAX_PER_SEC`]; the counters always fire, and suppressed
/// lines surface as a per-second summary and `serve.log_suppressed`.
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
    let mut w = lock(&shared.log_window);
    if w.sec != now_s {
        if w.suppressed > 0 {
            obs::log::info(&format!("access: {} lines suppressed under load", w.suppressed));
        }
        *w = LogWindow { sec: now_s, emitted: 0, suppressed: 0 };
    }
    if w.emitted == ACCESS_LOG_MAX_PER_SEC {
        w.suppressed += 1;
        obs::counter_add("serve.log_suppressed", 1);
        return;
    }
    w.emitted += 1;
    drop(w);
    obs::log::info(&format!("access {method} {path} {status} {bytes}B {ms:.1}ms request_id={rid}"));
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let t0 = Instant::now();
    // read *and* write timeouts: a stalled client can neither starve the
    // parser nor pin a handler thread on an unread response or stream
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
    let log = |status, bytes| access_log(shared, &rid, &req.method, &req.path, status, bytes, t0);
    // chaos: drop the connection before any response byte; the client
    // sees a clean close and (for idempotent requests) retries
    if let Some(plan) = &shared.config.io_fault {
        if plan.fire("conn") == Some(FaultKind::ConnDrop) {
            obs::counter_add("serve.conn_dropped", 1);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return log(0, 0);
        }
    }
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let result = match (req.method.as_str(), segs.as_slice()) {
        // the events stream writes incrementally and owns the socket
        ("GET", ["jobs", id, "events"]) => {
            handle_events(shared, &mut stream, id);
            return log(200, 0);
        }
        // shutdown also owns the socket: its acknowledgement must be on
        // the wire before the drain lets the process exit
        ("POST", ["shutdown"]) => {
            handle_shutdown(shared, &mut stream, &req);
            return log(200, 0);
        }
        // the Prometheus exposition is the one text/plain surface
        ("GET", ["metrics"]) if req.query_param("format") == Some("prom") => {
            let now_s = sample_now(shared);
            let text = obs::prom::render(&obs::snapshot(), Some((&shared.store, now_s)));
            let ctype = "text/plain; version=0.0.4";
            return log(200, http::respond(&mut stream, 200, ctype, &text, &[]).unwrap_or(0));
        }
        ("POST", ["jobs"]) => handle_submit(shared, &req, &rid),
        ("GET", ["jobs", id]) => handle_status(shared, id),
        ("GET", ["jobs", id, "result"]) => handle_result(shared, id, req.query_flag("wait")),
        ("GET", ["metrics"]) => Ok((200, metrics_doc(shared))),
        ("GET", ["stats"]) => Ok((200, stats_doc(shared))),
        ("GET", ["healthz"]) => Ok((200, healthz_doc(shared))),
        (_, [p]) if ["jobs", "metrics", "stats", "healthz", "shutdown"].contains(p) => {
            Err(HttpError::method_not_allowed())
        }
        (_, ["jobs", _] | ["jobs", _, "result" | "events"]) => Err(HttpError::method_not_allowed()),
        _ => Err(HttpError::not_found(format!("no such endpoint: {}", req.path))),
    };
    let (status, bytes) = match result {
        Ok((status, doc)) => {
            let hdr = [("X-Request-Id".to_string(), rid.clone())];
            (status, http::respond_json(&mut stream, status, &doc, &hdr).unwrap_or(0))
        }
        Err(e) => (e.status, http::respond_error(&mut stream, &e).unwrap_or(0)),
    };
    log(status, bytes);
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

/// Derives the job's content addresses from the raw design text, the
/// library fingerprint `lib_fp` and the flow parameters, without parsing
/// the design. Wall-clock never enters a key.
fn content_keys(m: &ManifestJob, lib_fp: u64) -> Result<Keyed, String> {
    let fault = m.fault()?;
    let (text, format) = m.design_text()?;
    debug_assert!(
        library_fingerprint(&m.flow_options(false).lib) == lib_fp,
        "the key covers the library the job runs with"
    );
    let design_hash = fnv1a64(text.as_bytes());
    let key = |domain: &str| {
        KeyBuilder::new(domain)
            .hash(design_hash)
            .hash(lib_fp)
            .num(m.util)
            .int(m.layers as u64)
            .bool(m.optimize)
            // the placer's name, from when there were two: caches and
            // journals keep the addresses they had
            .str("kway")
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

/// The durable half of the server state: the `casyn.wal.v1` journal and
/// the disk cache under `--state-dir`. Records are *enqueued* under the
/// state lock, so journal order is job-id order, and *written* outside it
/// by group commit. Locking order is `State` → `queued` and `wal` →
/// `queued`; `queued` is held for nothing else.
pub(crate) struct Durable {
    /// Held by the thread committing a group, across its write and sync.
    wal: Mutex<Wal>,
    /// Sealed records not written yet, in enqueue order.
    queued: Mutex<Queued>,
    /// The sequence number of the last record whose write has completed,
    /// landed or failed; stored with `Release` after the write and sync,
    /// so a waiter's `Acquire` load of its number follows that write.
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
    pub(crate) fn new(wal: Wal, cache: DiskCache) -> Durable {
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
    pub(crate) fn append(&self, rec: &JsonValue) -> u64 {
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
    /// failed. The first thread here writes everything queued with one
    /// write and one `fdatasync` (a group commit); the threads whose
    /// records it took along find them written with one atomic load.
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
    pub(crate) fn sync_all(&self) {
        let last = lock(&self.queued).last;
        self.sync(last);
    }

    /// Seconds since the last successful journal write (0 before the
    /// first one).
    fn lag_s(&self) -> f64 {
        lock(&self.last_append).map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0)
    }
}

/// Waits until the journal records up to `seq` are written: a response
/// that reports a job's state goes out only after its records.
fn await_journal(shared: &Shared, seq: u64) {
    if let Some(d) = &shared.durable {
        d.sync(seq);
    }
}

/// Reads a finished result's rows out of the disk cache. Corruption was
/// already quarantined (and counted) inside [`DiskCache::get`]. An entry
/// is the rows array itself; one spilled by an older build holds it
/// under `rows`. A doc that verified but holds neither is schema drift
/// and reads as a miss.
fn disk_lookup(durable: &Durable, key: u64) -> Option<Arc<JsonValue>> {
    let rows = match durable.cache.get("job", key)? {
        rows @ JsonValue::Array(_) => rows,
        older => older.get("rows")?.clone(),
    };
    Some(Arc::new(rows))
}

/// Opens the durable state under `dir` and rebuilds the job table:
/// [`State::replay`] folds the journal, then every job it left unfinished
/// goes through [`classify`] like a fresh submission. A journal damaged
/// anywhere but its final line is a typed, line-numbered error and the
/// server refuses to start.
fn recover(
    dir: &Path,
    fault: Option<FaultPlan>,
    lib_fp: u64,
    g: &mut State,
) -> Result<Arc<Durable>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("state-dir {}: {e}", dir.display()))?;
    let cache = DiskCache::open(&dir.join("cache"), fault.clone())
        .map_err(|e| format!("state-dir cache: {e}"))?;
    let wal_path = dir.join("casyn.wal.v1");
    let journal_err = |e| format!("state-dir journal {}: {e}", wal_path.display());
    let replay = Wal::replay(&wal_path)
        .map_err(|e| format!("{}; refusing to start (move it aside to reset)", journal_err(e)))?;
    obs::counter_add("serve.wal.replayed", replay.records.len() as u64);
    if replay.torn_tail {
        obs::log::warn("wal: tolerated a torn final record (crash artifact)");
    }
    let durable = Arc::new(Durable::new(Wal::open(&wal_path, fault).map_err(journal_err)?, cache));
    // the memory LRU stays off while the table is rebuilt, so a result
    // found on the way is a disk hit; it is filled in id order afterwards
    let results = std::mem::replace(&mut g.results, Lru::new(0));
    let manifests = g.replay(&replay.records, |k| disk_lookup(&durable, k))?;
    for (id, manifest) in manifests.into_iter().enumerate() {
        if g.jobs[id].status.terminal() {
            continue;
        }
        let job = manifest
            .ok_or_else(|| "journal admitted record carries no manifest".to_string())
            .and_then(|doc| {
                let one = JsonValue::Array(vec![doc.clone()]);
                parse_manifest_value(&one, &ManifestDefaults::default())
            })
            .and_then(|jobs| jobs.into_iter().next().ok_or_else(|| "empty manifest".to_string()));
        let mut cands = match job.and_then(|m| content_keys(&m, lib_fp).map(|k| (m, k))) {
            Ok((m, k)) => {
                g.jobs[id].result_key = k.result_key;
                vec![Candidate { m, keyed: Ok(k), network: None }]
            }
            Err(e) => {
                g.apply(id, Transition::Rejected(format!("recovery: {e}")));
                continue;
            }
        };
        let admits = loop {
            match classify(Some(&durable), g, &mut cands) {
                Ok(admits) => break admits,
                Err(unparsed) => parse_candidates(&mut cands, &unparsed),
            }
        };
        for (c, admit) in cands.into_iter().zip(admits) {
            let admit = match admit {
                Admit::LoadError(e) => Admit::LoadError(format!("recovery: {e}")),
                admit => admit,
            };
            settle(g, id, c.m, admit);
        }
    }
    g.results = results;
    for rec in &g.jobs {
        if let (Some(k), Some(rows)) =
            (rec.result_key, rec.live.as_ref().and_then(|l| l.rows.clone()))
        {
            g.results.insert(k, rows);
        }
    }
    g.replaying = false;
    g.journal = Some(durable.clone());
    Ok(durable)
}

/// A finished result by content address, the way a resubmission finds
/// it: the memory LRU ([`Cache::Hit`]), then the disk cache
/// ([`Cache::Disk`], promoted back into the LRU).
fn cached_result(
    durable: Option<&Durable>,
    results: &mut Lru<Arc<JsonValue>>,
    key: u64,
) -> Option<(Arc<JsonValue>, Cache)> {
    if let Some(c) = results.get(key) {
        return Some((c.clone(), Cache::Hit));
    }
    // spilled by an earlier run (possibly before a restart)
    let c = disk_lookup(durable?, key)?;
    results.insert(key, c.clone());
    Some((c, Cache::Disk))
}

/// How admission classified one manifest entry.
enum Admit {
    LoadError(String),
    /// Served from cache, from where the tag says.
    Hit(Arc<JsonValue>, Cache),
    Dedup(u64),
    /// Runs: its parsed design and what its task needs besides.
    Enqueue {
        network: Network,
        fault: Option<FaultPlan>,
        prep_key: u64,
        result_key: Option<u64>,
    },
}

/// One manifest entry on its way through admission.
struct Candidate {
    m: ManifestJob,
    keyed: Result<Keyed, String>,
    /// The parsed design, once classification has said the job runs.
    network: Option<Result<Network, String>>,
}

/// Decides every candidate's fate before anything is mutated, so a 429
/// rejects the whole request without admitting a partial batch. While a
/// job that would run has no parsed design, the indices of such jobs come
/// back instead, to be parsed and classified again.
fn classify(
    durable: Option<&Durable>,
    g: &mut State,
    cands: &mut [Candidate],
) -> Result<Vec<Admit>, Vec<usize>> {
    let mut pending: HashSet<u64> = HashSet::new();
    let mut admits = Vec::with_capacity(cands.len());
    let mut unparsed = Vec::new();
    for (i, c) in cands.iter_mut().enumerate() {
        let k = match (&c.keyed, &c.network) {
            (Err(e), _) | (_, Some(Err(e))) => {
                admits.push(Some(Admit::LoadError(e.clone())));
                continue;
            }
            (Ok(k), _) => k,
        };
        if let Some(key) = k.result_key {
            // a key being computed is in neither cache yet
            if g.inflight.contains_key(&key) || pending.contains(&key) {
                admits.push(Some(Admit::Dedup(key)));
                continue;
            }
            if let Some((hit, tag)) = cached_result(durable, &mut g.results, key) {
                admits.push(Some(Admit::Hit(hit, tag)));
                continue;
            }
            pending.insert(key);
        }
        admits.push(match c.network.take() {
            Some(Ok(network)) => Some(Admit::Enqueue {
                network,
                fault: k.fault.clone(),
                prep_key: k.prep_key,
                result_key: k.result_key,
            }),
            _ => {
                unparsed.push(i);
                None
            }
        });
    }
    if unparsed.is_empty() {
        return Ok(admits.into_iter().flatten().collect());
    }
    // hand the parsed designs back for the next round
    for (c, admit) in cands.iter_mut().zip(admits) {
        if let Some(Admit::Enqueue { network, .. }) = admit {
            c.network = Some(Ok(network));
        }
    }
    Err(unparsed)
}

/// Parses the designs of the candidates `classify` said will run.
fn parse_candidates(cands: &mut [Candidate], unparsed: &[usize]) {
    for &i in unparsed {
        let c = &mut cands[i];
        if let Ok(k) = &c.keyed {
            c.network = Some(parse_keyed(&c.m, k));
        }
    }
}

/// Applies a classified job's outcome to job `id`; a job that runs joins
/// the queue.
fn settle(g: &mut State, id: usize, job: ManifestJob, admit: Admit) {
    let t = match admit {
        Admit::LoadError(e) => Transition::Rejected(e),
        Admit::Hit(c, tag) => Transition::CacheHit(c, tag),
        Admit::Dedup(key) => Transition::Deduped(key),
        Admit::Enqueue { network, fault, prep_key, result_key } => {
            g.apply(id, Transition::Queued);
            let (request_id, admitted) = (g.jobs[id].request_id().to_string(), Instant::now());
            let task = Task { id, request_id, job, network, fault, prep_key, result_key, admitted };
            g.queue.push_back(task);
            return;
        }
    };
    g.apply(id, t);
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
        match classify(shared.durable.as_deref(), &mut g, &mut cands) {
            Ok(admits) => break (g, admits),
            Err(unparsed) => {
                drop(g);
                parse_candidates(&mut cands, &unparsed);
            }
        }
    };
    let slots = admits.iter().filter(|a| matches!(a, Admit::Enqueue { .. })).count();
    if g.queue.len() + slots > shared.config.queue_capacity {
        obs::counter_add("serve.rejected", cands.len() as u64);
        return Err(HttpError::backpressure(format!(
            "queue full: {} queued of capacity {}, {slots} more requested",
            g.queue.len(),
            shared.config.queue_capacity
        )));
    }
    let mut out = Vec::with_capacity(cands.len());
    let mut wal_seq = 0;
    for (c, admit) in cands.into_iter().zip(admits) {
        let id = g.jobs.len();
        let result_key = c.keyed.as_ref().ok().and_then(|k| k.result_key);
        // the `admitted` record precedes the outcome's and carries the
        // manifest, so replay can re-run the job
        let admission = Admission {
            name: &c.m.name,
            design: &c.m.design,
            request_id: rid,
            result_key,
            manifest: Manifest::Job(&c.m),
        };
        g.apply(id, Transition::Admitted(admission));
        settle(&mut g, id, c.m, admit);
        let rec = &g.jobs[id];
        out.push(JsonValue::object(vec![
            ("id".into(), JsonValue::Number(id as f64)),
            ("name".into(), JsonValue::Str(rec.name().to_string())),
            ("status".into(), JsonValue::Str(rec.status.as_str().into())),
            ("cache".into(), JsonValue::Str(rec.cache.as_str().into())),
        ]));
        wal_seq = wal_seq.max(rec.wal_seq);
    }
    g.sweep(shared.config.result_cache_cap);
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
            g = wait_state(shared, g);
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
        let found = key.and_then(|k| cached_result(shared.durable.as_deref(), &mut g.results, k));
        let gone = format!("the result of job {id} was released and is in no cache; resubmit it");
        Some(found.ok_or_else(|| HttpError::gone(gone))?.0)
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

/// Blocks until a job changes state, or for half a second at most.
fn wait_state<'a>(shared: &'a Shared, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    let waited = shared.state_cv.wait_timeout(g, Duration::from_millis(500));
    waited.unwrap_or_else(|p| p.into_inner()).0
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
                    break ("{\"event\":\"expired\"}\n".to_string(), true, 0);
                };
                if live.events.len() > sent || rec.status.terminal() {
                    let lines = live.events.get(sent..).unwrap_or_default();
                    let chunk: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
                    sent = live.events.len();
                    break (chunk, rec.status.terminal(), rec.wal_seq);
                }
                g = wait_state(shared, g);
            }
        };
        await_journal(shared, seq);
        if stream.write_all(chunk.as_bytes()).and_then(|()| stream.flush()).is_err() || terminal {
            return; // ended, or the client went away
        }
    }
}

/// Refreshes the server gauges and feeds the registry snapshot into the
/// windowed series at the current server second, which it returns. The
/// sampler thread calls it once a second, every read surface on demand.
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

/// Background sampler: keeps the windows populated while nobody reads
/// them, one observation per second until shutdown.
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
    let cancel_mode = match JsonValue::parse(&body) {
        _ if body.trim().is_empty() => false,
        Ok(doc) => doc.get("mode").and_then(|v| v.as_str()) == Some("cancel"),
        Err(e) => {
            let e = HttpError::bad_request(format!("shutdown body: {e}"));
            let _ = http::respond_error(stream, &e);
            return;
        }
    };
    // acknowledge first: once the flags below flip, wait() can return
    // and the process may exit before a later write would land
    let doc = JsonValue::object(vec![
        ("status".into(), JsonValue::Str("draining".into())),
        ("mode".into(), JsonValue::Str(if cancel_mode { "cancel".into() } else { "drain".into() })),
    ]);
    let _ = http::respond_json(stream, 200, &doc, &[]);
    lock_inner(shared).draining = true;
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
    // the workers already use the cores: a flow here fans out no further
    Pool::mark_worker();
    let bopts =
        BatchOptions { retries: shared.config.retries, cancel: Some(shared.cancel.clone()) };
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

/// Marks a claimed job running. Nobody waits for its `started` record:
/// replay requeues a running job exactly like a queued one.
fn mark_running(shared: &Shared, job_id: usize) {
    lock_inner(shared).apply(job_id, Transition::Started);
    shared.state_cv.notify_all();
}

/// The shared front end for `key`, computed once per key; each key has
/// its own mutex, so distinct designs still prepare in parallel.
fn prepared_for(
    shared: &Shared,
    key: u64,
    network: &Network,
    opts: &FlowOptions,
) -> Result<Arc<Prepared>, FlowError> {
    let slot = {
        let mut g = lock_inner(shared);
        let found = g.prepared.get(key).cloned();
        found.unwrap_or_else(|| {
            let s = PrepSlot::default();
            g.prepared.insert(key, s.clone());
            s
        })
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
    let Task { id, request_id, job: m, network, fault, prep_key, result_key, admitted } = t;
    let mut opts = m.flow_options(false);
    opts.fault = fault;
    let deadline = m.deadline();
    let job = BatchJob { name: m.name, network, ks: m.ks, opts, deadline };
    let runner = |j: &BatchJob| -> Result<JobSuccess, FlowError> {
        let mut sp = obs::trace::span("serve.job");
        sp.attr_num("job", id as f64);
        if !request_id.is_empty() {
            sp.attr_str("request_id", &request_id);
        }
        mark_running(shared, id);
        obs::counter_add("serve.computes", 1);
        // a fault-plan job prepares afresh, so injected failures hit the
        // stages they would under `casyn batch` and no front end is shared
        let prep = match j.opts.fault {
            Some(_) => Arc::new(prepare(&j.network, &j.opts)?),
            None => prepared_for(shared, prep_key, &j.network, &j.opts)?,
        };
        let mut rows = Vec::with_capacity(j.ks.len());
        for &k in &j.ks {
            let result = congestion_flow_prepared(&prep, k, &j.opts)?;
            let mut ev = event("k_done");
            ev.push(("k".into(), JsonValue::Number(k)));
            ev.push(("violations".into(), JsonValue::Number(result.route.violations as f64)));
            lock_inner(shared).jobs[id].push_event(ev);
            shared.state_cv.notify_all();
            rows.push(KSweepEntry { k, result });
        }
        Ok(JobSuccess { rows, degraded: false })
    };
    let report = run_one(&job, admitted, bopts, runner);
    finish_job(shared, id, result_key, &report);
}

fn finish_job(shared: &Shared, job_id: usize, result_key: Option<u64>, jr: &BatchJobReport) {
    // a job's result is its record's rows
    let outcome = jr.outcome.as_ref().map(|s| {
        let rows = s.rows.iter().map(|e| Row::from_result(e.k, &e.result).to_json());
        Arc::new(JsonValue::Array(rows.collect()))
    });
    // spill outside the lock and before the terminal journal record, so a
    // replayed `done` implies the artifact (replay recomputes without it)
    if let (Ok(rows), Some(k), Some(d)) = (&outcome, result_key, &shared.durable) {
        if let Err(e) = d.cache.put("job", k, rows) {
            obs::log::warn(&format!("cache: spill of {k:016x} failed: {e}"));
        }
    }
    let mut g = lock_inner(shared);
    if let (Ok(rows), Some(k)) = (&outcome, result_key) {
        g.results.insert(k, rows.clone());
    }
    let followers = result_key.and_then(|k| g.inflight.remove(&k)).unwrap_or_default();
    let mut wal_seq = 0;
    for id in std::iter::once(job_id).chain(followers) {
        let wall_ms = jr.wall_ms;
        let t = match &outcome {
            Ok(rows) => Transition::Done { rows: Some(rows.clone()), wall_ms },
            Err(e) if e.kind == FlowErrorKind::Cancelled => {
                Transition::Cancelled { error: Some(e.to_string()), wall_ms }
            }
            Err(e) => Transition::Failed { error: e.to_string(), wall_ms },
        };
        g.apply(id, t);
        wal_seq = g.jobs[id].wal_seq;
    }
    drop(g);
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
    /// library of the job's own flow options.
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
                .str("kway")
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
                ("placer", JsonValue::Str("kway".into())),
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

    #[test]
    fn content_addresses_are_pinned() {
        // recorded while a job could still name one of two placers: disk
        // caches and journals written then still resolve
        let lib_fp = library_fingerprint(&FlowOptions::default().lib);
        for extra in [vec![], vec![("placer", JsonValue::Str("kway".into()))]] {
            let doc = JsonValue::Array(vec![job("pinned", 5, 24, &extra)]);
            let jobs = parse_manifest_value(&doc, &ManifestDefaults::default()).unwrap();
            let k = content_keys(&jobs[0], lib_fp).unwrap();
            assert_eq!(k.prep_key, 0xb7bf_f4a3_a112_08af, "casyn.serve.prep.v1");
            assert_eq!(k.result_key, Some(0xd0d0_54fc_49cc_5492), "casyn.serve.job.v1");
        }
    }

    #[test]
    fn a_disk_entry_spilled_by_an_older_build_is_a_hit() {
        // the entry an older build spilled for this job: its rows wrapped
        // with a schema and a degraded flag, checksum trailer included
        let entry = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/cache-entry-3515c6deafe3f7ee.json"
        );
        let pla = include_str!("../../../examples/designs/ex_a.pla");
        let job = JsonValue::object(vec![
            ("name".into(), JsonValue::Str("ex_a".into())),
            ("source".into(), JsonValue::Str(pla.into())),
            ("format".into(), JsonValue::Str("pla".into())),
            ("ks".into(), JsonValue::Array(vec![JsonValue::Number(0.0), JsonValue::Number(0.5)])),
        ]);
        let dir = std::env::temp_dir().join(format!("casyn-older-entry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("cache/job")).unwrap();
        std::fs::copy(entry, dir.join("cache/job/3515c6deafe3f7ee.json")).unwrap();
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            state_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();
        let addr = server.endpoint();
        let id = submit(&addr, vec![job])[0];
        let (_, r) =
            request_json(&addr, "GET", &format!("/jobs/{id}/result?wait=1"), None).unwrap();
        assert_eq!(r.get("cache").and_then(JsonValue::as_str), Some("disk"), "{r:?}");
        let older = JsonValue::parse(&casyn_flow::read_checksummed(Path::new(entry)).unwrap());
        assert_eq!(r.get("rows"), older.unwrap().get("rows"));
        request_json(&addr, "POST", "/shutdown", None).unwrap();
        server.wait().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
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
