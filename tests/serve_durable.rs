//! Durability end-to-end tests: WAL replay after a simulated crash,
//! disk-cache corruption quarantine, the memory watchdog, and seeded
//! I/O chaos (torn journal writes, dropped connections with client
//! retry) — all over real sockets on ephemeral ports.

use casyn::exec::FaultPlan;
use casyn::flow::Wal;
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::blif::to_blif;
use casyn::obs;
use casyn::obs::json::JsonValue;
use casyn::serve::{client, request_json, RetryPolicy, ServeConfig, Server};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The metrics registry is process-wide and `Server::start` enables it;
/// tests that read counter deltas must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match OBS_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("casyn-durable-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(state: &Path, config: ServeConfig) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: Some(state.to_path_buf()),
        workers: 2,
        ..config
    })
    .unwrap()
}

/// One manifest entry with an inline BLIF source, plus `extra` fields.
fn job_entry(
    name: &str,
    seed: u64,
    terms: usize,
    ks: &[f64],
    extra: &[(&str, JsonValue)],
) -> JsonValue {
    let pla = random_pla(&PlaGenConfig { terms, seed, ..Default::default() });
    let blif = to_blif(&pla.to_network(), name);
    let mut fields = vec![
        ("name".into(), JsonValue::Str(name.into())),
        ("source".into(), JsonValue::Str(blif)),
        ("format".into(), JsonValue::Str("blif".into())),
        ("ks".into(), JsonValue::Array(ks.iter().map(|&k| JsonValue::Number(k)).collect())),
    ];
    fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    JsonValue::object(fields)
}

/// Single-job manifest with an inline BLIF source.
fn manifest(name: &str, seed: u64, terms: usize, ks: &[f64]) -> String {
    let jobs = JsonValue::Array(vec![job_entry(name, seed, terms, ks, &[])]);
    JsonValue::object(vec![("jobs".into(), jobs)]).to_string_pretty()
}

fn submit_one(addr: &str, body: &str) -> (i64, String) {
    let (status, doc) = request_json(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(status, 202, "submit failed: {doc:?}");
    let job = doc.get("jobs").and_then(|v| v.as_array()).and_then(|a| a.first()).unwrap();
    (
        job.get("id").and_then(|v| v.as_f64()).unwrap() as i64,
        job.get("cache").and_then(|v| v.as_str()).unwrap().to_string(),
    )
}

fn result_wait(addr: &str, id: i64) -> JsonValue {
    let (status, doc) =
        request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None).unwrap();
    assert_eq!(status, 200, "result fetch failed: {doc:?}");
    doc
}

fn shutdown(addr: &str, server: Server) {
    request_json(addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

fn counter(snap: &obs::Snapshot, key: &str) -> u64 {
    snap.counter(key).unwrap_or(0)
}

/// The deterministic part of a result: rows with the wall-clock/alloc
/// telemetry stripped, as one compact string for bit-exact comparison.
fn stable_rows(doc: &JsonValue) -> String {
    let rows = doc.get("rows").and_then(|v| v.as_array()).expect("result has rows");
    let stripped: Vec<JsonValue> = rows
        .iter()
        .map(|r| match r {
            JsonValue::Object(fields) => JsonValue::Object(
                fields.iter().filter(|(k, _)| k != "telemetry").cloned().collect(),
            ),
            other => other.clone(),
        })
        .collect();
    JsonValue::Array(stripped).to_string_compact()
}

fn wal_path(state: &Path) -> PathBuf {
    state.join("casyn.wal.v1")
}

/// The single spilled artifact for a one-job cache (panics if the spill
/// count differs so tests notice schema drift).
fn only_cache_file(state: &Path) -> PathBuf {
    let dir = state.join("cache").join("job");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "expected exactly one spilled artifact in {}", dir.display());
    files.remove(0)
}

/// Crash + restart: a job that finished before the crash is served
/// straight from the disk cache (no recompute, zero reroute), a job
/// that was admitted but unfinished is re-run to an identical report,
/// and a torn final journal record is tolerated.
#[test]
fn crash_recovery_replays_journal_and_serves_disk_hits() {
    let _guard = lock();
    let state = tmpdir("recover");
    let ma = manifest("job-a", 11, 40, &[0.0, 1.0]);
    let mb = manifest("job-b", 23, 36, &[0.5]);

    // run both jobs to completion, remembering their reports
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    let (ida, _) = submit_one(&addr, &ma);
    let ra = result_wait(&addr, ida);
    let (idb, _) = submit_one(&addr, &mb);
    let rb = result_wait(&addr, idb);
    shutdown(&addr, server);

    // simulate dying mid-run: job B's terminal record never made it to
    // the journal (it is "started" at the crash), its artifact never hit
    // the disk cache, and the final journal line is torn mid-record
    let wal = fs::read_to_string(wal_path(&state)).unwrap();
    let keep: Vec<&str> = wal
        .lines()
        .filter(|l| !(l.contains("\"t\":\"done\"") && l.contains(&format!("\"job\":{idb}"))))
        .collect();
    fs::write(wal_path(&state), keep.join("\n") + "\n{\"t\":\"do").unwrap();
    let b_key = {
        // two artifacts are on disk; B's is the one A's key does not own
        let dir = state.join("cache").join("job");
        let mut files: Vec<PathBuf> =
            fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 2);
        // A's journal "done" record names its key; B's file is the other
        let a_line = keep.iter().find(|l| l.contains("\"t\":\"done\"")).unwrap();
        files.retain(|f| {
            let stem = f.file_stem().unwrap().to_string_lossy().into_owned();
            !a_line.contains(&stem)
        });
        assert_eq!(files.len(), 1, "expected exactly one non-A artifact");
        files.remove(0)
    };
    fs::remove_file(&b_key).unwrap();

    // restart against the damaged state
    let before = obs::snapshot();
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();

    // pre-crash completed job: served from the disk spill, bit-identical
    let ra2 = result_wait(&addr, ida);
    assert_eq!(ra2.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(ra2.get("cache").and_then(|v| v.as_str()), Some("disk"));
    assert_eq!(stable_rows(&ra2), stable_rows(&ra), "disk hit must be bit-identical");

    // in-flight job: re-enqueued through the normal path, identical rows
    let rb2 = result_wait(&addr, idb);
    assert_eq!(rb2.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(stable_rows(&rb2), stable_rows(&rb), "recovered re-run must be bit-identical");

    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.recovered"), 1, "only B re-runs");
    assert_eq!(counter(&delta, "serve.computes"), 1, "A must not recompute");
    assert!(counter(&delta, "serve.cache.disk_hits") >= 1);
    assert!(counter(&delta, "serve.wal.replayed") >= 4);

    // zero-reroute check for the disk hit: resubmitting A's manifest
    // after everything is terminal touches neither router nor flow
    let before = obs::snapshot();
    let (ida2, cache) = submit_one(&addr, &ma);
    let ra3 = result_wait(&addr, ida2);
    let delta = obs::snapshot().delta_since(&before);
    assert!(cache == "hit" || cache == "disk", "got cache {cache:?}");
    assert_eq!(counter(&delta, "route.iterations"), 0, "disk hit re-ran the router");
    assert_eq!(counter(&delta, "serve.computes"), 0);
    assert_eq!(stable_rows(&ra3), stable_rows(&ra));
    shutdown(&addr, server);

    fs::remove_dir_all(&state).unwrap();
}

/// A corrupted artifact is quarantined and recomputed on replay — the
/// damaged bytes are never served — and the address is repopulated.
#[test]
fn corrupted_cache_entry_is_quarantined_and_recomputed() {
    let _guard = lock();
    let state = tmpdir("quarantine");
    let m = manifest("victim", 31, 38, &[0.0, 0.5]);

    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    let (id, _) = submit_one(&addr, &m);
    let r0 = result_wait(&addr, id);
    shutdown(&addr, server);

    // flip payload digits, leaving the checksum trailer stale
    let artifact = only_cache_file(&state);
    let text = fs::read_to_string(&artifact).unwrap();
    let (payload, trailer) = text.rsplit_once("#fnv1a:").unwrap();
    let mangled = payload.replace(['1', '2', '3'], "9") + "#fnv1a:" + trailer;
    assert_ne!(mangled, text, "corruption must change the payload");
    fs::write(&artifact, &mangled).unwrap();

    let before = obs::snapshot();
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    let r1 = result_wait(&addr, id);
    let delta = obs::snapshot().delta_since(&before);

    // the job recomputed to the same report; corruption was quarantined
    assert_eq!(r1.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(stable_rows(&r1), stable_rows(&r0), "recompute must match the original");
    assert_eq!(counter(&delta, "serve.cache.corrupt"), 1);
    assert_eq!(counter(&delta, "serve.recovered"), 1, "corrupt artifact forces a re-run");
    let quarantined: Vec<_> =
        fs::read_dir(state.join("cache").join("quarantine")).unwrap().collect();
    assert_eq!(quarantined.len(), 1, "damaged file preserved as evidence");
    // the finished re-run spilled a fresh, valid artifact to the address
    let respilled = fs::read_to_string(only_cache_file(&state)).unwrap();
    assert!(respilled.contains("#fnv1a:"), "respilled artifact has a trailer");
    assert_ne!(respilled, mangled);
    shutdown(&addr, server);

    fs::remove_dir_all(&state).unwrap();
}

/// The memory watchdog sheds submissions with 503 + Retry-After while
/// live heap exceeds the budget; reads are unaffected.
#[test]
fn mem_limit_sheds_submissions_with_retry_after() {
    let _guard = lock();
    let state = tmpdir("shed");
    let before = obs::snapshot();
    let server = start(&state, ServeConfig { mem_limit_bytes: 1, ..Default::default() });
    let addr = server.endpoint();

    let (status, doc) =
        request_json(&addr, "POST", "/jobs", Some(&manifest("shed", 1, 8, &[0.0]))).unwrap();
    assert_eq!(status, 503, "1-byte budget must shed: {doc:?}");
    assert_eq!(doc.get("retry_after_s").and_then(|v| v.as_f64()), Some(1.0));
    // the header itself reaches the wire
    let raw = client::raw(&addr, "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
        .unwrap();
    assert_eq!(raw.status, 503);
    // reads still work under shedding
    let (status, _) = request_json(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let delta = obs::snapshot().delta_since(&before);
    assert!(counter(&delta, "serve.shed") >= 2);
    shutdown(&addr, server);

    fs::remove_dir_all(&state).unwrap();
}

/// Seeded I/O chaos: a dropped connection is retried deterministically
/// by the client, and a torn journal append degrades durability (wedged
/// journal, warning counters) without affecting results — and the state
/// directory still replays cleanly afterwards.
#[test]
fn io_chaos_conn_drop_and_torn_wal_are_survivable() {
    let _guard = lock();
    let state = tmpdir("chaos");
    let m = manifest("chaos", 47, 30, &[0.0]);

    // request #2 (the result GET) is dropped before any response bytes;
    // the client's retry ladder recovers without wall-clock randomness.
    // WAL append #2 (job 0's "started" record) is torn mid-write: the
    // journal wedges and every later append is dropped with a warning.
    let plan = FaultPlan::parse("conn:conn_drop:2,wal:torn_write:2").unwrap();
    let before = obs::snapshot();
    let server = start(&state, ServeConfig { io_fault: Some(plan), ..Default::default() });
    let addr = server.endpoint();

    let (id, cache) = submit_one(&addr, &m);
    assert_eq!(cache, "miss");
    let resp = client::request_with(
        &addr,
        "GET",
        &format!("/jobs/{id}/result?wait=1"),
        None,
        &RetryPolicy::default(),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "retry must recover the dropped GET");
    let doc = resp.json().unwrap();
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("done"));
    shutdown(&addr, server);

    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.conn_dropped"), 1);
    assert!(counter(&delta, "serve.wal.errors") >= 1, "torn append must be counted");

    // the torn journal replays: the tail is tolerated, and although the
    // wedge dropped the job's terminal record, its artifact did reach
    // the disk cache — recovery serves it without recomputing
    let before = obs::snapshot();
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    let r = result_wait(&addr, id);
    assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("disk"));
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.computes"), 0, "artifact survived the torn journal");
    shutdown(&addr, server);

    fs::remove_dir_all(&state).unwrap();
}

/// The job table keeps a finished job's status forever but its rows and
/// event lines only for the most recent `result_cache_cap` admissions.
/// A released result is re-served from the disk cache on a durable
/// server and is `410 Gone` on a memory-only one; released events answer
/// one `expired` line, also on a stream that was open when the release
/// happened.
#[test]
fn finished_jobs_outside_the_retention_window_are_released() {
    use std::io::{BufRead, BufReader, Write};
    let _guard = lock();
    for durable in [true, false] {
        let state = tmpdir("retention");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: durable.then(|| state.clone()),
            // one worker: jobs finish in admission order
            workers: 1,
            result_cache_cap: 4,
            ..Default::default()
        })
        .unwrap();
        let addr = server.endpoint();

        // the oldest job, fetched while it is still inside the window
        let (id0, _) = submit_one(&addr, &manifest("oldest", 3, 14, &[0.0, 1.0]));
        let original = result_wait(&addr, id0);
        let (_, status0) = request_json(&addr, "GET", &format!("/jobs/{id0}"), None).unwrap();

        // a slow job with an events stream open on it...
        let rest: Vec<String> =
            (0..10).map(|i| manifest(&format!("j{i}"), 100 + i, 12, &[0.0])).collect();
        let (slow, _) = submit_one(&addr, &manifest("slow", 5, 80, &[0.0, 0.5, 1.0, 2.0]));
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(120))).unwrap();
        write!(stream, "GET /jobs/{slow}/events HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut lines = BufReader::new(stream).lines();
        let first_event = lines
            .by_ref()
            .map(|l| l.expect("stream readable"))
            .find(|l| l.starts_with('{'))
            .expect("an event line before the stream ends");
        assert!(first_event.contains("\"event\":\"submitted\""), "{first_event}");
        // ...falls out of the window while it runs: ten more admissions
        let rest: Vec<i64> = rest.iter().map(|m| submit_one(&addr, m).0).collect();
        // it is released the moment it finishes, between two polls of the
        // stream, which must say so and end instead of dying on the
        // vanished lines
        let tail: Vec<String> = lines.map(|l| l.expect("stream ends cleanly")).collect();
        assert_eq!(tail.last().map(String::as_str), Some(r#"{"event":"expired"}"#), "{tail:?}");
        result_wait(&addr, *rest.last().unwrap());

        // 12 finished jobs, window of 4: the oldest is long released
        let (code, status) = request_json(&addr, "GET", &format!("/jobs/{id0}"), None).unwrap();
        assert_eq!(code, 200);
        assert_eq!(status, status0, "the status document does not change on release");
        let (code, doc) = request_json(&addr, "GET", &format!("/jobs/{id0}/result"), None).unwrap();
        if durable {
            assert_eq!(code, 200, "{doc:?}");
            assert_eq!(doc.get("rows"), original.get("rows"), "rows come back from the disk cache");
        } else {
            assert_eq!(code, 410, "{doc:?}");
            assert_eq!(doc.get("status").and_then(|v| v.as_f64()), Some(410.0));
            assert!(doc
                .get("error")
                .and_then(|v| v.as_str())
                .is_some_and(|e| e.contains("released")));
        }
        let ev = client::raw(&addr, &format!("GET /jobs/{id0}/events HTTP/1.1\r\nHost: t\r\n\r\n"))
            .unwrap();
        assert_eq!((ev.status, ev.body.as_str()), (200, "{\"event\":\"expired\"}\n"));
        // the newest jobs are whole
        let newest = *rest.last().unwrap();
        let ev =
            client::raw(&addr, &format!("GET /jobs/{newest}/events HTTP/1.1\r\nHost: t\r\n\r\n"))
                .unwrap();
        assert!(ev.body.contains("\"event\":\"done\""), "events: {}", ev.body);

        shutdown(&addr, server);
        let _ = fs::remove_dir_all(&state);
    }
}

/// A submit with an out-of-range number is a 400 that names the field,
/// and nothing of it reaches the journal: `deadline_ms: -1` used to be
/// admitted, journaled, and then panic the dispatcher thread on
/// `Duration::from_secs_f64`, taking the process down.
#[test]
fn out_of_range_submit_is_rejected_before_the_journal() {
    let _guard = lock();
    let state = tmpdir("reject");
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    for (field, value) in
        [("deadline_ms", -1.0), ("deadline_ms", 1e300), ("util", 0.0), ("layers", 2.7)]
    {
        let entry = job_entry("bad", 3, 8, &[0.0], &[(field, JsonValue::Number(value))]);
        let body = JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![entry]))]);
        let (status, doc) =
            request_json(&addr, "POST", "/jobs", Some(&body.to_string_compact())).unwrap();
        assert_eq!(status, 400, "{field}={value}: {doc:?}");
        let err = doc.get("error").and_then(|v| v.as_str()).unwrap_or_default();
        assert!(err.contains("job 0") && err.contains(field), "error names job and field: {err}");
    }
    let journal = fs::read_to_string(wal_path(&state)).unwrap();
    assert!(!journal.contains("\"t\":\"admitted\""), "nothing was admitted: {journal}");
    // the server is alive and takes a good job
    let (id, _) = submit_one(&addr, &manifest("good", 3, 8, &[0.0]));
    let r = result_wait(&addr, id);
    assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("done"));
    shutdown(&addr, server);
    fs::remove_dir_all(&state).unwrap();
}

/// A journal an older build left behind, holding an `admitted` record
/// with `deadline_ms: -1`, used to kill the server again at every start.
/// Replay parses the record through the same range check, so the job
/// recovers as a typed failure and the server serves.
#[test]
fn poisoned_journal_recovers_as_a_failed_job() {
    let _guard = lock();
    let state = tmpdir("poison");
    let poisoned = job_entry("poison", 5, 8, &[0.0], &[("deadline_ms", JsonValue::Number(-1.0))]);
    {
        let mut wal = Wal::open(&wal_path(&state), None).unwrap();
        wal.append(&JsonValue::object(vec![
            ("t".into(), JsonValue::Str("admitted".into())),
            ("job".into(), JsonValue::Number(0.0)),
            ("name".into(), JsonValue::Str("poison".into())),
            ("design".into(), JsonValue::Str("poison".into())),
            ("request_id".into(), JsonValue::Str("r-old".into())),
            ("manifest".into(), poisoned),
        ]))
        .unwrap();
    }
    let server = start(&state, ServeConfig::default());
    let addr = server.endpoint();
    let r0 = result_wait(&addr, 0);
    assert_eq!(r0.get("status").and_then(|v| v.as_str()), Some("failed"));
    let err = r0.get("error").and_then(|v| v.as_str()).unwrap();
    assert!(err.starts_with("recovery:") && err.contains("deadline_ms"), "got: {err}");
    let (id, _) = submit_one(&addr, &manifest("after", 5, 8, &[0.0]));
    assert_eq!(id, 1, "ids continue after the replayed job");
    let r1 = result_wait(&addr, id);
    assert_eq!(r1.get("status").and_then(|v| v.as_str()), Some("done"));
    shutdown(&addr, server);
    fs::remove_dir_all(&state).unwrap();
}
