//! End-to-end tests for the synthesis service: real sockets on ephemeral
//! ports, content-addressed cache hits, request dedup, HTTP error
//! discipline, backpressure, and graceful drain.

use casyn::flow::{parse_manifest, ManifestDefaults, Wal};
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::blif::to_blif;
use casyn::obs;
use casyn::obs::json::JsonValue;
use casyn::serve::{client, request_json, ServeConfig, Server};
use std::sync::Mutex;
use std::time::Instant;

/// The metrics registry is process-wide and `Server::start` enables it;
/// tests that read counter deltas must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    match OBS_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn start(config: ServeConfig) -> Server {
    Server::start(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).unwrap()
}

/// Single-job manifest with an inline BLIF source, as a remote client
/// with no shared filesystem would send it.
fn manifest(name: &str, seed: u64, terms: usize, ks: &[f64]) -> String {
    manifest_with(name, seed, terms, ks, vec![])
}

/// [`manifest`] with `extra` fields on the job.
fn manifest_with(
    name: &str,
    seed: u64,
    terms: usize,
    ks: &[f64],
    extra: Vec<(String, JsonValue)>,
) -> String {
    let pla = random_pla(&PlaGenConfig { terms, seed, ..Default::default() });
    let blif = to_blif(&pla.to_network(), name);
    let mut job = vec![
        ("name".into(), JsonValue::Str(name.into())),
        ("source".into(), JsonValue::Str(blif)),
        ("format".into(), JsonValue::Str("blif".into())),
        ("ks".into(), JsonValue::Array(ks.iter().map(|&k| JsonValue::Number(k)).collect())),
    ];
    job.extend(extra);
    JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![JsonValue::object(job)]))])
        .to_string_pretty()
}

/// Submits a manifest and returns the first job's (id, cache tag).
fn submit_one(addr: &str, body: &str) -> (i64, String) {
    let (status, doc) = request_json(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(status, 202, "submit failed: {doc:?}");
    let job = doc.get("jobs").and_then(|v| v.as_array()).and_then(|a| a.first()).unwrap();
    (
        job.get("id").and_then(|v| v.as_f64()).unwrap() as i64,
        job.get("cache").and_then(|v| v.as_str()).unwrap().to_string(),
    )
}

/// Blocks until the job is terminal and returns its result document.
fn result_wait(addr: &str, id: i64) -> JsonValue {
    let (status, doc) =
        request_json(addr, "GET", &format!("/jobs/{id}/result?wait=1"), None).unwrap();
    assert_eq!(status, 200, "result fetch failed: {doc:?}");
    doc
}

fn counter(snap: &obs::Snapshot, key: &str) -> u64 {
    snap.counter(key).unwrap_or(0)
}

#[test]
fn identical_resubmit_hits_cache_without_rerouting() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 2, ..Default::default() });
    let addr = server.endpoint();
    let m = manifest("accept", 7, 40, &[0.0, 0.5, 1.0]);

    let first = obs::snapshot();
    let (id0, cache0) = submit_one(&addr, &m);
    let r0 = result_wait(&addr, id0);
    assert_eq!(cache0, "miss");
    let delta = obs::snapshot().delta_since(&first);
    assert_eq!(counter(&delta, "serve.design_parses"), 1, "a job that runs is parsed once");
    assert_eq!(r0.get("status").and_then(|v| v.as_str()), Some("done"));
    let rows0 = r0.get("rows").and_then(|v| v.as_array()).unwrap().to_vec();
    assert_eq!(rows0.len(), 3, "one row per K value");

    // the resubmit must not touch the router: zero route.iterations delta,
    // zero new computes and no design parse
    let before = obs::snapshot();
    let (id1, cache1) = submit_one(&addr, &m);
    let r1 = result_wait(&addr, id1);
    let delta = obs::snapshot().delta_since(&before);

    assert_ne!(id1, id0, "resubmit is a new job record");
    assert_eq!(cache1, "hit");
    assert_eq!(r1.get("status").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(counter(&delta, "route.iterations"), 0, "cache hit re-ran the router");
    assert_eq!(counter(&delta, "serve.computes"), 0, "cache hit re-ran the flow");
    assert_eq!(counter(&delta, "serve.design_parses"), 0, "cache hit parsed the design");
    assert_eq!(counter(&delta, "serve.cache_hits"), 1);

    // both jobs report identical K-sweep rows
    let rows1 = r1.get("rows").and_then(|v| v.as_array()).unwrap().to_vec();
    assert_eq!(rows0.len(), rows1.len());
    for (a, b) in rows0.iter().zip(rows1.iter()) {
        assert_eq!(
            a.get("wirelength_um").and_then(|v| v.as_f64()),
            b.get("wirelength_um").and_then(|v| v.as_f64())
        );
    }

    // the events stream is close-delimited NDJSON ending in a terminal event
    let ev =
        client::raw(&addr, &format!("GET /jobs/{id0}/events HTTP/1.1\r\nHost: t\r\n\r\n")).unwrap();
    assert_eq!(ev.status, 200);
    assert!(ev.body.contains("\"event\":\"submitted\""), "events: {}", ev.body);
    assert!(ev.body.contains("\"event\":\"done\""), "events: {}", ev.body);

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

#[test]
fn concurrent_identical_submits_dedupe_to_one_compute() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 2, ..Default::default() });
    let addr = server.endpoint();
    let m = manifest("dedup", 11, 32, &[0.0, 1.0]);
    let before = obs::snapshot();

    let tags: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let (id, cache) = submit_one(&addr, &m);
                    let r = result_wait(&addr, id);
                    assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("done"));
                    cache
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.computes"), 1, "tags: {tags:?}");
    assert_eq!(counter(&delta, "serve.jobs_done"), 4);
    assert_eq!(tags.iter().filter(|t| *t == "miss").count(), 1, "tags: {tags:?}");
    for t in &tags {
        assert!(t == "miss" || t == "dedup" || t == "hit", "unexpected tag {t}");
    }

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

#[test]
fn http_layer_rejects_malformed_requests() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, max_body_bytes: 1024, ..Default::default() });
    let addr = server.endpoint();

    let (status, _) = request_json(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = request_json(&addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404, "unknown job id");
    let (status, _) = request_json(&addr, "DELETE", "/jobs", None).unwrap();
    assert_eq!(status, 405, "unsupported method");
    let (status, doc) = request_json(&addr, "POST", "/jobs", Some("{not json")).unwrap();
    assert_eq!(status, 400);
    assert!(
        doc.get("error").and_then(|v| v.as_str()).unwrap().contains("manifest"),
        "error names the manifest: {doc:?}"
    );
    let (status, doc) =
        request_json(&addr, "POST", "/jobs", Some("{\"jobs\": [{\"ks\": []}]}")).unwrap();
    assert_eq!(status, 400);
    assert!(doc.get("error").and_then(|v| v.as_str()).unwrap().contains("job 0"));

    // chunked transfer encoding is rejected up front, not half-read
    let r = client::raw(
        &addr,
        "POST /jobs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    )
    .unwrap();
    assert_eq!(r.status, 411);

    // a body larger than the configured cap is refused before it is read
    let big = format!("{{\"pad\": \"{}\"}}", "x".repeat(4096));
    let r = client::request(&addr, "POST", "/jobs", Some(&big)).unwrap();
    assert_eq!(r.status, 413);

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

#[test]
fn full_queue_rejects_whole_request_with_429() {
    let _guard = lock();
    // capacity 0 makes rejection deterministic regardless of worker speed
    let server = start(ServeConfig { workers: 1, queue_capacity: 0, ..Default::default() });
    let addr = server.endpoint();
    let before = obs::snapshot();

    let (status, doc) =
        request_json(&addr, "POST", "/jobs", Some(&manifest("bp", 3, 8, &[0.0]))).unwrap();
    assert_eq!(status, 429);
    assert!(doc.get("error").and_then(|v| v.as_str()).unwrap().contains("queue full"), "{doc:?}");

    // rejection is atomic: no job record was admitted
    let (status, _) = request_json(&addr, "GET", "/jobs/0", None).unwrap();
    assert_eq!(status, 404);
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.rejected"), 1);
    assert_eq!(counter(&delta, "serve.queued"), 0);

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

#[test]
fn fault_plan_jobs_fail_and_bypass_the_cache() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    let pla = random_pla(&PlaGenConfig { terms: 8, seed: 5, ..Default::default() });
    let body = JsonValue::object(vec![(
        "jobs".into(),
        JsonValue::Array(vec![JsonValue::object(vec![
            ("name".into(), JsonValue::Str("boom".into())),
            ("source".into(), JsonValue::Str(to_blif(&pla.to_network(), "boom"))),
            ("format".into(), JsonValue::Str("blif".into())),
            ("ks".into(), JsonValue::Array(vec![JsonValue::Number(0.0)])),
            ("fault_plan".into(), JsonValue::Str("decompose:panic:1".into())),
        ])]),
    )])
    .to_string_pretty();
    let before = obs::snapshot();

    for round in 0..2 {
        let (id, cache) = submit_one(&addr, &body);
        assert_eq!(cache, "bypass", "fault jobs must never be cached (round {round})");
        let (status, doc) =
            request_json(&addr, "GET", &format!("/jobs/{id}/result?wait=1"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("failed"));
        let err = doc.get("error").and_then(|v| v.as_str()).unwrap();
        assert!(err.contains("decompose"), "error names the faulted stage: {err}");
    }
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.computes"), 2, "fault jobs recompute every time");
    assert_eq!(counter(&delta, "serve.jobs_failed"), 2);
    assert_eq!(counter(&delta, "serve.cache_hits"), 0);

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

#[test]
fn shutdown_drains_queued_jobs_then_exits() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    let before = obs::snapshot();

    let mut ids = Vec::new();
    for i in 0..2 {
        let (id, _) = submit_one(&addr, &manifest(&format!("drain{i}"), 100 + i, 16, &[0.0]));
        ids.push(id);
    }
    let (status, doc) = request_json(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("draining"));
    assert!(server.draining());
    server.wait().unwrap();

    // every admitted job reached a terminal state before the process let go
    let delta = obs::snapshot().delta_since(&before);
    let done = counter(&delta, "serve.jobs_done");
    let failed = counter(&delta, "serve.jobs_failed");
    let cancelled = counter(&delta, "serve.jobs_cancelled");
    assert_eq!(done + failed + cancelled, 2, "done {done} failed {failed} cancelled {cancelled}");
    assert_eq!(done, 2, "drain mode finishes queued work rather than dropping it");
}

#[test]
fn cancel_shutdown_final_flushes_unstarted_jobs() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    let before = obs::snapshot();

    // one slow-ish job per submission so the single worker develops a backlog
    for i in 0..4 {
        submit_one(&addr, &manifest(&format!("cx{i}"), 200 + i, 24, &[0.0, 1.0]));
    }
    let (status, doc) =
        request_json(&addr, "POST", "/shutdown", Some("{\"mode\": \"cancel\"}")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("mode").and_then(|v| v.as_str()), Some("cancel"));
    server.wait().unwrap();

    // the cancel token stops unclaimed jobs, and the batch runner's final
    // flush still reports each of them exactly once
    let delta = obs::snapshot().delta_since(&before);
    let done = counter(&delta, "serve.jobs_done");
    let failed = counter(&delta, "serve.jobs_failed");
    let cancelled = counter(&delta, "serve.jobs_cancelled");
    assert_eq!(done + failed + cancelled, 4, "done {done} failed {failed} cancelled {cancelled}");
    assert!(cancelled >= 1, "expected at least one cancelled job, got {cancelled}");
}

#[test]
fn healthz_and_metrics_respond() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();

    let (status, doc) = request_json(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));

    let (id, _) = submit_one(&addr, &manifest("mx", 31, 12, &[0.0]));
    result_wait(&addr, id);
    let (status, doc) = request_json(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("casyn.metrics.v1"));
    let metrics = doc.get("metrics").unwrap();
    assert!(metrics.get("serve.submitted").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);
    assert!(metrics.get("serve.inflight").is_some(), "inflight gauge exported");

    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

fn str_field<'a>(doc: &'a JsonValue, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(|v| v.as_str())
}

/// A design that cannot run still fails at admission, in the 202 body,
/// with the error its parse gives, although a content key no longer
/// needs the parse. A failed parse is never cached: a resubmit parses
/// and fails again.
#[test]
fn designs_that_cannot_run_fail_at_admission_with_their_parse_error() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    for (source, says) in [
        (
            ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
            "invalid input-plane character",
        ),
        (".model s\n.inputs a\n.outputs q\n.latch a q 0\n.end\n", "sequential designs"),
    ] {
        let entry = JsonValue::object(vec![
            ("name".into(), JsonValue::Str("bad".into())),
            ("source".into(), JsonValue::Str(source.into())),
            ("format".into(), JsonValue::Str("blif".into())),
        ]);
        let body = JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![entry]))])
            .to_string_compact();
        let job = parse_manifest(&body, &ManifestDefaults::default()).unwrap().remove(0);
        let want = job.load_network().unwrap_err();
        assert!(want.contains(says), "{want}");
        for _ in 0..2 {
            let before = obs::snapshot();
            let (status, doc) = request_json(&addr, "POST", "/jobs", Some(&body)).unwrap();
            assert_eq!(status, 202, "{doc:?}");
            let job = &doc.get("jobs").and_then(|v| v.as_array()).unwrap()[0];
            assert_eq!(str_field(job, "status"), Some("failed"));
            assert_eq!(str_field(job, "cache"), Some("none"));
            let id = job.get("id").and_then(|v| v.as_f64()).unwrap() as i64;
            let (_, status) = request_json(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
            assert_eq!(str_field(&status, "error"), Some(want.as_str()));
            let delta = obs::snapshot().delta_since(&before);
            assert_eq!(counter(&delta, "serve.design_parses"), 1);
            assert_eq!(counter(&delta, "serve.computes"), 0);
        }
    }
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

/// A job's `placer` may only name the one placer: `kway` runs, anything
/// else is refused with the whole request, naming the field, so a client
/// written for a retired backend never silently gets k-way.
#[test]
fn a_placer_other_than_kway_fails_at_admission_naming_the_field() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    let placer = |p: &str| vec![("placer".to_string(), JsonValue::Str(p.into()))];
    let (id, _) = submit_one(&addr, &manifest_with("kway", 4, 10, &[0.0], placer("kway")));
    assert_eq!(str_field(&result_wait(&addr, id), "status"), Some("done"));
    let body = manifest_with("bisect", 4, 10, &[0.0], placer("bisect"));
    let (status, doc) = request_json(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 400, "{doc:?}");
    let error = str_field(&doc, "error").unwrap();
    assert!(error.contains(r#"job 0: "placer" "bisect""#), "{error}");
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

/// Concurrent hits on a durable server share journal writes (group
/// commit), and the journal stays what replay requires: `admitted` ids
/// dense and in order, and every job that was answered in it — so a
/// restarted server reports each of them done.
#[test]
fn concurrent_hits_group_commit_a_journal_that_replays() {
    let _guard = lock();
    let state = std::env::temp_dir().join(format!("casyn-serve-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let config =
        || ServeConfig { workers: 2, state_dir: Some(state.clone()), ..Default::default() };
    let server = start(config());
    let addr = server.endpoint();
    let m = manifest("group", 13, 24, &[0.0, 1.0]);
    let (id0, _) = submit_one(&addr, &m);
    result_wait(&addr, id0);

    let before = obs::snapshot();
    let answered: Vec<i64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    (0..50)
                        .map(|_| {
                            let (id, cache) = submit_one(&addr, &m);
                            assert_eq!(cache, "hit");
                            id
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    let syncs = counter(&obs::snapshot().delta_since(&before), "serve.wal.syncs");
    assert!(syncs > 0 && syncs < 400, "{syncs} journal syncs for 400 records");

    // read while the server still runs: an answer implies its records
    // are already on disk, not merely queued until the drain
    let replay = Wal::replay(&state.join("casyn.wal.v1")).unwrap();
    let ids = |t: &str| -> Vec<i64> {
        let of_type = replay.records.iter().filter(|r| str_field(r, "t") == Some(t));
        of_type.map(|r| r.get("job").and_then(|v| v.as_f64()).unwrap() as i64).collect()
    };
    let admitted = ids("admitted");
    assert_eq!(admitted, (0..201).collect::<Vec<i64>>(), "admitted ids are dense and in order");
    let done = ids("done");
    for id in &answered {
        assert!(done.contains(id), "job {id} was answered but its done record is missing");
    }
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();

    let server = start(config());
    let addr = server.endpoint();
    for id in &answered {
        let (status, doc) = request_json(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!((status, str_field(&doc, "status")), (200, Some("done")));
    }
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
    std::fs::remove_dir_all(&state).unwrap();
}

/// A finished job outside the retention window keeps at most a quarter
/// kilobyte of live heap, the growth of the job table included: the
/// table keeps every record for the life of the process.
#[test]
fn a_released_job_record_retains_at_most_a_quarter_kilobyte() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, result_cache_cap: 8, ..Default::default() });
    let addr = server.endpoint();
    let m = manifest("kept", 17, 8, &[0.0]);
    let (id, _) = submit_one(&addr, &m);
    result_wait(&addr, id);
    // fifty hits per request, all of them done at admission
    let entry = JsonValue::parse(&m).unwrap().get("jobs").unwrap().as_array().unwrap()[0].clone();
    let body = JsonValue::object(vec![("jobs".into(), JsonValue::Array(vec![entry; 50]))])
        .to_string_compact();
    let hits = |requests: usize| {
        for _ in 0..requests {
            let (status, doc) = request_json(&addr, "POST", "/jobs", Some(&body)).unwrap();
            assert_eq!(status, 202, "{doc:?}");
        }
    };
    hits(2);
    // the series store builds a key's ring at the key's first sample:
    // take that sample now (`/stats` samples on demand), so the 1 Hz
    // sampler thread cannot build it inside the measured window
    let (status, _) = request_json(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let before = obs::alloc::current_bytes() as f64;
    hits(40);
    let per_job = (obs::alloc::current_bytes() as f64 - before) / 2000.0;
    assert!(per_job <= 250.0, "{per_job:.0} B of live heap retained per finished job");
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

/// The job's status string, from `GET /jobs/<id>`.
fn job_status(addr: &str, id: i64) -> String {
    let (status, doc) = request_json(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "{doc:?}");
    str_field(&doc, "status").unwrap().to_string()
}

/// Polls until a worker has taken the job.
fn wait_running(addr: &str, id: i64) {
    let t = Instant::now();
    while job_status(addr, id) == "queued" {
        assert!(t.elapsed().as_secs() < 60, "job {id} never started");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(job_status(addr, id), "running", "job {id} ended before the test could look");
}

/// A design slow enough, in debug builds too, that the small jobs below
/// finish many times over while it runs.
fn slow_manifest(name: &str) -> String {
    manifest(name, 41, 400, &[0.0, 0.5, 1.0, 2.0])
}

/// No head-of-line blocking: with two workers, a small job submitted
/// while a slow one runs is taken by the free worker at once, instead of
/// waiting for a batch that contains the slow job to end.
#[test]
fn a_small_job_finishes_while_a_slow_one_runs() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 2, ..Default::default() });
    let addr = server.endpoint();
    let (slow, _) = submit_one(&addr, &slow_manifest("slow"));
    wait_running(&addr, slow);
    let ex_a = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/designs/ex_a.pla");
    let small = format!(r#"{{"jobs": [{{"design": "{ex_a}", "ks": [0.0]}}]}}"#);
    let (id, _) = submit_one(&addr, &small);
    assert_eq!(str_field(&result_wait(&addr, id), "status"), Some("done"));
    assert_eq!(job_status(&addr, slow), "running", "the small job waited for the slow one");
    assert_eq!(str_field(&result_wait(&addr, slow), "status"), Some("done"));
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

/// A service job's `deadline_ms` counts from its admission: a job that
/// waited in the queue longer than its budget fails with the typed
/// deadline error and never computes.
#[test]
fn a_deadline_counts_the_wait_in_the_queue() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 1, ..Default::default() });
    let addr = server.endpoint();
    let before = obs::snapshot();
    let (slow, _) = submit_one(&addr, &slow_manifest("hog"));
    wait_running(&addr, slow);
    let deadline = vec![("deadline_ms".to_string(), JsonValue::Number(1.0))];
    let (id, cache) = submit_one(&addr, &manifest_with("late", 43, 8, &[0.0], deadline));
    assert_eq!(cache, "miss");
    let r = result_wait(&addr, id);
    assert_eq!(str_field(&r, "status"), Some("failed"), "{r:?}");
    let error = str_field(&r, "error").unwrap();
    assert!(error.contains("/deadline]"), "{error}");
    assert_eq!(str_field(&result_wait(&addr, slow), "status"), Some("done"));
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(counter(&delta, "serve.computes"), 1, "only the slow job computes");
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}

/// Asserts that a job row's telemetry is the job's own: each stage has
/// exactly `stage` and `wall_ms`, and no window on the process-global
/// registry or allocator appears anywhere in the row.
fn assert_per_job_row(row: &JsonValue) {
    let text = row.to_string_compact();
    for key in ["\"metrics\"", "\"alloc_bytes\"", "\"peak_bytes\"", "\"peak_alloc_bytes\""] {
        assert!(!text.contains(key), "{key} in a job row: {text}");
    }
    let stages = row.get("telemetry").and_then(|t| t.get("stages")).and_then(|s| s.as_array());
    let stages = stages.unwrap_or_else(|| panic!("no telemetry stages in {text}"));
    assert!(!stages.is_empty());
    for s in stages {
        let JsonValue::Object(fields) = s else { panic!("stage is not an object: {text}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["stage", "wall_ms"], "{text}");
    }
}

/// A served row carries only what belongs to its job, so the two rows
/// of a small design stay within 2 KB of compact JSON.
#[test]
fn a_served_row_is_per_job() {
    let _guard = lock();
    let server = start(ServeConfig { workers: 2, ..Default::default() });
    let addr = server.endpoint();
    // a SMALL-class design: 16 inputs, 8 outputs, 24 terms
    let (id, _) = submit_one(&addr, &manifest("small", 19, 24, &[0.0, 1.0]));
    let r = result_wait(&addr, id);
    let rows = r.get("rows").unwrap();
    assert_eq!(rows.as_array().map(|a| a.len()), Some(2));
    rows.as_array().unwrap().iter().for_each(assert_per_job_row);
    let bytes = rows.to_string_compact().len();
    assert!(bytes <= 2048, "two rows take {bytes} B");
    request_json(&addr, "POST", "/shutdown", None).unwrap();
    server.wait().unwrap();
}
