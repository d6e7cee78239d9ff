//! The two serve workloads — `serve_cold` and `serve_warm` — which
//! drive an in-process `casyn_serve::Server` over real HTTP with a
//! closed loop of `nproc` clients: each client submits a job, waits for
//! its result, and only then submits the next.
//!
//! `serve_cold` submits every design once, so each job computes and
//! writes (queue, two flows, WAL appends, cache insert, disk spill).
//! `serve_warm` resubmits designs computed in set-up, so each job is a
//! read (content key, LRU hit, WAL appends). The same layers serve both;
//! a change that speeds one by slowing the other shows as a loss here.

use crate::gen::{self, Rng, TwoLevel};
use crate::metrics::LayerValues;
use crate::run::{
    goes_on, peak_rss_mb, Checks, Config, Outcome, Round, Row, Scale, Timed, Workload, SETUP_REPS,
};
use crate::stats::{median, median_us};
use crate::trace::Recorder;
use casyn_flow::{
    congestion_flow_prepared, fnv1a64, library_fingerprint, parse_manifest, prepare, KeyBuilder,
    ManifestDefaults, Wal,
};
use casyn_obs::json::JsonValue;
use casyn_serve::{request, request_json, DiskCache, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Distinct designs one cold round submits, and resubmissions one warm
/// round makes; a round is one repetition of the timed work.
const COLD_ROUND: usize = 60;
const WARM_ROUND: usize = 1000;
/// Designs `serve_warm` computes in set-up and then draws from, and
/// designs `serve_cold` computes in set-up to let the server's threads,
/// heap and state directory settle before anything is timed.
const WARM_DESIGNS: usize = 48;
/// The first design index of the timed `serve_cold` rounds: past every
/// design that set-up submits, so no timed job can hit the cache.
const FIRST_TIMED: usize = 1 << 20;
/// Cold designs whose served rows are recomputed through the library.
const RECOMPUTED: usize = 4;
/// The K schedule of every job.
const JOB_KS: [f64; 2] = [0.0, 1.0];

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn round_size(cfg: &Config) -> usize {
    let paper = if cfg.workload == Workload::ServeCold { COLD_ROUND } else { WARM_ROUND };
    match cfg.scale {
        Scale::Paper => paper,
        Scale::Tiny => paper / 10,
    }
}

fn warm_designs(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Paper => WARM_DESIGNS,
        Scale::Tiny => WARM_DESIGNS / 6,
    }
}

/// The submission for design `index` of this seed: one job, the design
/// inline as BLIF, as a remote client without a shared disk sends it.
fn manifest(seed: u64, index: usize) -> String {
    let design = TwoLevel::generate(gen::SMALL, &mut Rng::stream(seed, 1000 + index as u64));
    let job = JsonValue::object(vec![
        ("name".into(), JsonValue::Str(format!("d{index}"))),
        ("source".into(), JsonValue::Str(design.to_blif(&format!("d{index}")))),
        ("format".into(), JsonValue::Str("blif".into())),
        ("ks".into(), JsonValue::Array(JOB_KS.iter().map(|&k| JsonValue::Number(k)).collect())),
    ]);
    JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![job]))]).to_string_compact()
}

/// A running server with its durable state under the output directory.
struct Service {
    server: Server,
    addr: String,
    state_dir: PathBuf,
}

impl Service {
    fn start(cfg: &Config) -> Service {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let state_dir = cfg.out_dir.join(format!("state-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&state_dir).expect("the state directory can be created");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: clients(),
            state_dir: Some(state_dir.clone()),
            ..Default::default()
        })
        .expect("the server starts on an ephemeral port");
        let addr = server.endpoint();
        Service { server, addr, state_dir }
    }

    /// Drains the server, joins its threads and removes its state.
    fn stop(self) {
        request_json(&self.addr, "POST", "/shutdown", None).expect("the server accepts shutdown");
        self.server.wait().expect("the server drains");
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }

    /// The server's cumulative counter `name` (the registry is shared by
    /// every server of this process, so callers take differences).
    fn counter(&self, name: &str) -> f64 {
        let (_, doc) = request_json(&self.addr, "GET", "/metrics", None).expect("metrics answer");
        doc.get("metrics").and_then(|m| m.get(name)).and_then(|v| v.as_f64()).unwrap_or(0.0)
    }
}

/// One completed job as its client saw it.
struct Done {
    design: usize,
    latency_ms: f64,
    hit: bool,
    rows: Vec<Row>,
}

fn rows_of(doc: &JsonValue) -> Option<Vec<Row>> {
    doc.get("rows")?
        .as_array()?
        .iter()
        .map(|r| {
            let num = |key: &str| r.get(key).and_then(|v| v.as_f64());
            Some(Row {
                k: num("k")?,
                cells: num("num_cells")? as usize,
                cell_area: num("cell_area")?,
                violations: num("violations")? as usize,
                wirelength: num("wirelength_um")?,
                critical: num("critical_ns")?,
            })
        })
        .collect()
}

/// Submits one manifest and waits for its result. With a recorder the
/// two requests are spans under one `serve.job` root.
fn one_job(addr: &str, design: usize, body: &str, rec: Option<&Recorder>) -> Result<Done, String> {
    let flow = format!("d{design}");
    let root = rec.map(|r| r.open(None, "serve.job", &flow));
    let t = Instant::now();
    let span = rec.map(|r| r.open(root, "serve.submit", &flow));
    let submitted = request_json(addr, "POST", "/jobs", Some(body));
    if let (Some(r), Some(id)) = (rec, span) {
        r.close(id, &[("bytes", body.len() as f64)]);
    }
    let (status, doc) = submitted?;
    if status != 202 {
        return Err(format!("submit answered {status}"));
    }
    let job = doc.get("jobs").and_then(|j| j.as_array()).and_then(|a| a.first());
    let job = job.ok_or("submit response names no job")?;
    let id = job.get("id").and_then(|v| v.as_f64()).ok_or("job without id")? as u64;
    let hit = job.get("cache").and_then(|v| v.as_str()) == Some("hit");
    let span = rec.map(|r| r.open(root, "serve.result_wait", &flow));
    let result = request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None);
    if let (Some(r), Some(id)) = (rec, span) {
        r.close(id, &[]);
    }
    let (_, result) = result?;
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if let (Some(r), Some(id)) = (rec, root) {
        r.close(id, &[("hit", f64::from(u8::from(hit)))]);
    }
    match result.get("status").and_then(|v| v.as_str()) {
        Some("done") => {
            let rows = rows_of(&result).ok_or("result rows are malformed")?;
            Ok(Done { design, latency_ms, hit, rows })
        }
        other => Err(format!("job ended {}", other.unwrap_or("without a status"))),
    }
}

/// One round of the closed loop: `clients()` threads share the list of
/// `(design, manifest)` submissions, each taking the next when its last
/// job has answered.
struct Served {
    wall_s: f64,
    done: Vec<Done>,
    errors: Vec<String>,
}

fn serve_round(addr: &str, jobs: &[(usize, String)], rec: Option<&Recorder>) -> Served {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients() {
            s.spawn(|| loop {
                let Some((design, body)) = jobs.get(next.fetch_add(1, Ordering::SeqCst)) else {
                    return;
                };
                match one_job(addr, *design, body, rec) {
                    Ok(d) => done.lock().expect("a client panicked").push(d),
                    Err(e) => errors.lock().expect("a client panicked").push(e),
                }
            });
        }
    });
    Served {
        wall_s: t.elapsed().as_secs_f64(),
        done: done.into_inner().expect("a client panicked"),
        errors: errors.into_inner().expect("a client panicked"),
    }
}

/// A server set up: started, and [`WARM_DESIGNS`] designs computed.
struct Bench {
    service: Service,
    /// The manifests computed in set-up and the rows they gave, which
    /// `serve_warm` resubmits.
    warm: Vec<(String, Vec<Row>)>,
}

fn set_up(cfg: &Config, checks: &mut Checks) -> Bench {
    let service = Service::start(cfg);
    let jobs: Vec<(usize, String)> =
        (0..warm_designs(cfg)).map(|i| (i, manifest(cfg.seed, i))).collect();
    let mut fill = serve_round(&service.addr, &jobs, None);
    checks.require(fill.errors.is_empty(), || format!("set-up jobs failed: {:?}", fill.errors));
    fill.done.sort_by_key(|d| d.design);
    let manifests = jobs.into_iter().map(|(_, m)| m);
    let warm = manifests.zip(fill.done.into_iter().map(|d| d.rows)).collect();
    Bench { service, warm }
}

/// The `(design, manifest)` submissions of round `r`: fresh designs on
/// `serve_cold`, seeded draws from the computed designs on `serve_warm`.
fn submissions(cfg: &Config, bench: &Bench, r: usize) -> Vec<(usize, String)> {
    let n = round_size(cfg);
    if cfg.workload == Workload::ServeCold {
        let first = FIRST_TIMED + r * n;
        return (first..first + n).map(|i| (i, manifest(cfg.seed, i))).collect();
    }
    let mut rng = Rng::stream(cfg.seed, 7 + r as u64);
    (0..n)
        .map(|_| {
            let d = rng.below(bench.warm.len());
            (d, bench.warm[d].0.clone())
        })
        .collect()
}

/// The checks on every completed job of a timed round.
fn check_round(cfg: &Config, bench: &Bench, served: &Served, checks: &mut Checks) {
    let name = cfg.workload.name();
    for d in &served.done {
        checks.require(d.rows.len() == JOB_KS.len(), || {
            format!("{name}: design {} answered {} rows", d.design, d.rows.len())
        });
        if cfg.workload == Workload::ServeCold {
            checks.require(!d.hit, || {
                format!("{name}: first submission of design {} was a hit", d.design)
            });
        } else {
            checks.require(d.hit, || {
                format!("{name}: resubmission of design {} was not a hit", d.design)
            });
            checks.require(d.rows == bench.warm[d.design].1, || {
                format!("{name}: design {} answered other rows than when it was computed", d.design)
            });
        }
    }
}

/// Recomputes the rows of a served design by calling the library the way
/// the service does (manifest → network → prepare → one flow per K).
fn recompute(body: &str) -> Vec<Row> {
    let job = parse_manifest(body, &ManifestDefaults::default())
        .expect("a generated manifest parses")
        .remove(0);
    let (network, _) = job.load_network().expect("the inline design parses");
    let opts = job.flow_options(false);
    let prep = prepare(&network, &opts).expect("prepare succeeds");
    job.ks
        .iter()
        .map(|&k| Row::of(k, &congestion_flow_prepared(&prep, k, &opts).expect("flow succeeds")))
        .collect()
}

/// The untraced run: set up [`SETUP_REPS`] times, run rounds for
/// `cfg.seconds`, check every answer.
pub fn run_untraced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        if let Some(Bench { service, .. }) = bench.take() {
            service.stop();
        }
        let t = Instant::now();
        bench = Some(set_up(cfg, &mut checks));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("SETUP_REPS is at least 1");

    let mut timed = Timed {
        setup_s,
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        rows: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let walls = |t: &Timed| t.rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    while goes_on(cfg.seconds, &walls(&timed)) {
        let first = timed.rounds.is_empty();
        let jobs = submissions(cfg, &bench, timed.rounds.len());
        let served = serve_round(&bench.service.addr, &jobs, None);
        timed.attempted += jobs.len() as u64;
        timed.failed += served.errors.len() as u64;
        check_round(cfg, &bench, &served, &mut checks);
        if cfg.workload == Workload::ServeCold && first {
            for d in served.done.iter().filter(|d| d.design < FIRST_TIMED + RECOMPUTED) {
                checks.require(d.rows == recompute(&manifest(cfg.seed, d.design)), || {
                    format!(
                        "serve_cold: design {} served other rows than the library computes",
                        d.design
                    )
                });
            }
        }
        if let Some(e) = served.errors.first() {
            checks.failures.push(format!(
                "{}: {} jobs failed, first: {e}",
                cfg.workload.name(),
                served.errors.len()
            ));
        }
        let job_ms = served.done.iter().map(|d| d.latency_ms).collect();
        timed.rounds.push(Round { wall_s: served.wall_s, job_ms });
        if first {
            // the quality metrics are those of the first round: its designs
            // depend on the seed alone, the number of rounds on the machine.
            // In design order, since the clients finish in any order and a
            // sum of floats depends on its order
            let mut done = served.done;
            done.sort_by_key(|d| d.design);
            timed.rows = done.into_iter().flat_map(|d| d.rows).collect();
        }
    }
    timed.peak_rss_mb = peak_rss_mb();
    bench.service.stop();
    let completed = timed.rounds.iter().any(|r| !r.job_ms.is_empty());
    checks.require(completed, || "no job completed".to_string());
    Outcome {
        correct: checks.failures.is_empty(),
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: if completed { timed.metrics() } else { Vec::new() },
        failures: checks.failures,
    }
}

/// The traced run: one round as the untraced run makes it, one round
/// with a span around each client request, then direct probes of the
/// layers a job crosses inside the server.
pub fn run_traced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let mut values = LayerValues::default();
    let bench = set_up(cfg, &mut checks);
    let service = &bench.service;
    let before = |name: &str| service.counter(name);
    let (computes0, rejected0) = (before("serve.computes"), before("serve.rejected"));

    let plain = serve_round(&service.addr, &submissions(cfg, &bench, 0), None);
    let rec = Recorder::default();
    let jobs = submissions(cfg, &bench, 1);
    let traced = serve_round(&service.addr, &jobs, Some(&rec));
    for r in [&plain, &traced] {
        check_round(cfg, &bench, r, &mut checks);
        checks.require(r.errors.is_empty(), || format!("jobs failed: {:?}", r.errors));
    }
    let attempted = 2 * jobs.len() as u64;
    let failed = (plain.errors.len() + traced.errors.len()) as u64;
    let all = || plain.done.iter().chain(&traced.done);
    let p50 = |r: &Served| median(&r.done.iter().map(|d| d.latency_ms).collect::<Vec<_>>());
    values.set("serve.submit_ms", rec.median_ms("serve.submit"));
    values.set("serve.result_wait_ms", rec.median_ms("serve.result_wait"));
    values.set(
        "serve.cache_hit_share",
        all().filter(|d| d.hit).count() as f64 / all().count() as f64,
    );
    values.set("serve.computes", service.counter("serve.computes") - computes0);
    values.set("serve.rejected", service.counter("serve.rejected") - rejected0);
    values.set("bench.trace_overhead_pct", 100.0 * (p50(&traced) - p50(&plain)) / p50(&plain));
    values.set("bench.failed_share", failed as f64 / attempted as f64);

    let addr = service.addr.as_str();
    values.set(
        "serve.http_noop_ms",
        median_us(200, || request_json(addr, "GET", "/healthz", None)) / 1e3,
    );
    values.set(
        "serve.prom_scrape_ms",
        median_us(20, || request(addr, "GET", "/metrics?format=prom", None)) / 1e3,
    );
    probe_job_path(cfg, &manifest(cfg.seed, 0), &mut values);

    rec.write(&cfg.out_dir, cfg.workload.name(), cfg.seed);
    bench.service.stop();
    Outcome {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        metrics: values.finish(),
        failures: checks.failures,
    }
}

/// Direct calls into what a job crosses inside the server, which no
/// client can time from outside: manifest parsing, the content key, the
/// journal and the disk cache.
fn probe_job_path(cfg: &Config, body: &str, values: &mut LayerValues) {
    let defaults = ManifestDefaults::default();
    values.set("flow.manifest_parse_us", median_us(200, || parse_manifest(body, &defaults)));
    let job = parse_manifest(body, &defaults).expect("a generated manifest parses").remove(0);
    let text = job.source.clone().expect("the design is inline");
    let opts = job.flow_options(false);
    // as `load_and_key` in the server: design hash, library fingerprint,
    // then the prepare key and the result key
    values.set(
        "flow.content_key_us",
        median_us(200, || {
            let (design, lib) = (fnv1a64(text.as_bytes()), library_fingerprint(&opts.lib));
            let key = |domain: &str| {
                KeyBuilder::new(domain).hash(design).hash(lib).num(job.util).int(job.layers as u64)
            };
            (key("prep").finish(), key("job").nums(&job.ks).finish())
        }),
    );
    let dir = cfg.out_dir.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the probe directory can be created");
    let wal_path = dir.join("probe.wal");
    let record = job.to_json();
    let mut wal = Wal::open(&wal_path, None).expect("a fresh journal opens");
    values.set(
        "flow.wal_append_us",
        median_us(200, || wal.append(&record).expect("append succeeds")),
    );
    drop(wal);
    values.set(
        "flow.wal_replay_ms",
        median_us(5, || Wal::replay(&wal_path).expect("replay succeeds")) / 1e3,
    );
    let cache = DiskCache::open(&dir.join("cache"), None).expect("the disk cache opens");
    let mut key = 0u64;
    values.set(
        "serve.disk_put_us",
        median_us(100, || {
            key += 1;
            cache.put("probe", key, &record).expect("put succeeds")
        }),
    );
    let mut key = 0u64;
    values.set(
        "serve.disk_get_us",
        median_us(100, || {
            key += 1;
            cache.get("probe", key).expect("a stored entry reads back")
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
