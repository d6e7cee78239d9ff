//! The service's locked state and its one job state machine.
//!
//! [`State`] holds the job table beside the worker queue and the caches.
//! A job changes only through [`State::apply`], which does everything a
//! [`Transition`] brings: the record's fields, the event line, the
//! `casyn.wal.v1` record ([`Transition::record`], read back by
//! [`Transition::decode`]), the `serve.*` counter, the unfinished count
//! and the release of a job that finishes outside the retention window.
//! Recovery folds the journal through the same `apply` with journaling
//! off ([`State::replay`]); DESIGN.md tabulates what each transition
//! does, live and replayed.

use crate::cache::Lru;
use crate::server::{Durable, PrepSlot, Task};
use casyn_flow::ManifestJob;
use casyn_obs as obs;
use casyn_obs::json::JsonValue;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobStatus {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    pub(crate) fn terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled)
    }
}

/// How a job's result was (or will be) obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cache {
    Miss,
    /// From the memory LRU.
    Hit,
    /// From the disk cache (possibly spilled before a restart).
    Disk,
    /// A follower of the in-flight compute of the same content address.
    Dedup,
    /// A fault-plan job, which skips the cache.
    Bypass,
    /// A job that failed before it could be looked up.
    Uncached,
}

impl Cache {
    pub(crate) fn as_str(self) -> &'static str {
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
pub(crate) struct JobRecord {
    /// `name`, `design` and `request_id`, back to back. The id of the
    /// admitting request is stamped into every event line, journal record
    /// and span, so it correlates the access log, events and trace.
    ident: Box<str>,
    name_len: usize,
    design_len: usize,
    /// The job's content address (`None` for fault-plan jobs): where a
    /// released record's rows are looked up again.
    pub(crate) result_key: Option<u64>,
    pub(crate) error: Option<Box<str>>,
    pub(crate) wall_ms: f64,
    /// The sequence number of the job's last journal record (0: none); a
    /// response that reports the job waits until that record is durable.
    pub(crate) wal_seq: u64,
    /// `None` once the record is released.
    pub(crate) live: Option<Box<Live>>,
    /// Event lines ever pushed, including those a release dropped.
    pub(crate) event_count: u32,
    pub(crate) status: JobStatus,
    pub(crate) cache: Cache,
}

/// The part of a job record that only a live or recent job needs.
pub(crate) struct Live {
    pub(crate) rows: Option<Arc<JsonValue>>,
    pub(crate) events: Vec<String>,
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
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.ident[..self.name_len]
    }

    pub(crate) fn design(&self) -> &str {
        &self.ident[self.name_len..self.name_len + self.design_len]
    }

    pub(crate) fn request_id(&self) -> &str {
        &self.ident[self.name_len + self.design_len..]
    }

    /// Appends one event line, stamped with the time since submission
    /// and the request id; a released record only counts it.
    pub(crate) fn push_event(&mut self, mut fields: Vec<(String, JsonValue)>) {
        self.event_count += 1;
        let request_id = &self.ident[self.name_len + self.design_len..];
        let Some(live) = &mut self.live else { return };
        let t_ms = live.submitted.elapsed().as_secs_f64() * 1e3;
        fields.push(("t_ms".into(), JsonValue::Number(t_ms)));
        if !request_id.is_empty() {
            fields.push(("request_id".into(), JsonValue::Str(request_id.to_string())));
        }
        live.events.push(JsonValue::object(fields).to_string_compact());
    }

    /// Gives up the bulk of a finished record, its rows and event lines,
    /// and keeps the metadata `GET /jobs/<id>` reports; the rows stay
    /// reachable through the result caches by content address.
    fn release(&mut self) {
        debug_assert!(self.status.terminal(), "only finished jobs are released");
        self.live = None;
    }
}

/// An event line's leading field.
pub(crate) fn event(name: &str) -> Vec<(String, JsonValue)> {
    vec![("event".into(), JsonValue::Str(name.into()))]
}

/// What a job enters the table with.
pub(crate) struct Admission<'a> {
    pub(crate) name: &'a str,
    pub(crate) design: &'a str,
    pub(crate) request_id: &'a str,
    pub(crate) result_key: Option<u64>,
    pub(crate) manifest: Manifest<'a>,
}

/// The manifest entry an `admitted` record carries, so replay can re-run
/// the job: a submission's parsed entry, or a replayed record's document.
pub(crate) enum Manifest<'a> {
    Job(&'a ManifestJob),
    Doc(Option<&'a JsonValue>),
}

/// Everything that can happen to a job.
pub(crate) enum Transition<'a> {
    /// The job enters the table; its id is the table's length.
    Admitted(Admission<'a>),
    /// Failed at admission: its entry or design did not load.
    Rejected(String),
    /// Served from the result cache: the rows, and where they came from.
    CacheHit(Arc<JsonValue>, Cache),
    /// A follower of the in-flight compute of this content address.
    Deduped(u64),
    /// Handed to the workers (the caller queues its task).
    Queued,
    Started,
    /// `rows` is `None` only when decoded: the journal does not hold them.
    Done {
        rows: Option<Arc<JsonValue>>,
        wall_ms: f64,
    },
    Failed {
        error: String,
        wall_ms: f64,
    },
    /// The journal keeps no error for a cancelled job.
    Cancelled {
        error: Option<String>,
        wall_ms: f64,
    },
}

fn field(name: &str, v: JsonValue) -> (String, JsonValue) {
    (name.to_string(), v)
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_string())
}

impl<'a> Transition<'a> {
    /// The `casyn.wal.v1` record of this transition of job `id`, whose
    /// content address is `result_key`; `None` when the journal does not
    /// keep the transition.
    pub(crate) fn record(&self, id: usize, result_key: Option<u64>) -> Option<JsonValue> {
        use Transition as T;
        let key = || result_key.map(|k| field("result_key", JsonValue::Str(format!("{k:016x}"))));
        let done =
            |wall_ms| key().into_iter().chain([field("wall_ms", JsonValue::Number(wall_ms))]);
        let (t, fields): (&str, Vec<_>) = match self {
            T::Admitted(a) => {
                let manifest = match a.manifest {
                    Manifest::Job(m) => Some(m.to_json()),
                    Manifest::Doc(doc) => doc.cloned(),
                };
                let ident = [("name", a.name), ("design", a.design), ("request_id", a.request_id)];
                let ident = ident.map(|(k, v)| field(k, text(v)));
                let manifest = manifest.map(|m| field("manifest", m));
                ("admitted", ident.into_iter().chain(key()).chain(manifest).collect())
            }
            T::Rejected(e) | T::Failed { error: e, .. } => {
                ("failed", vec![field("error", text(e))])
            }
            T::CacheHit(..) => ("done", done(0.0).collect()),
            T::Done { wall_ms, .. } => ("done", done(*wall_ms).collect()),
            T::Started => ("started", Vec::new()),
            T::Cancelled { .. } => ("cancelled", Vec::new()),
            T::Deduped(_) | T::Queued => return None,
        };
        let mut f = vec![field("t", text(t)), field("job", JsonValue::Number(id as f64))];
        f.extend(fields);
        Some(JsonValue::object(f))
    }

    /// The job id and transition a journal record stands for; `None` for
    /// a record of no job or of an unknown type, which replay skips. A
    /// field the transition no longer has (the `degraded` flag older
    /// journals write into `done`) is ignored.
    pub(crate) fn decode(r: &'a JsonValue) -> Option<(usize, Transition<'a>)> {
        use Transition as T;
        let id = r.get("job").and_then(JsonValue::as_f64)? as usize;
        let str_at = |k: &str| r.get(k).and_then(JsonValue::as_str);
        let t = match str_at("t")? {
            "admitted" => T::Admitted(Admission {
                name: str_at("name").unwrap_or("?"),
                design: str_at("design").unwrap_or("?"),
                request_id: str_at("request_id").unwrap_or(""),
                result_key: str_at("result_key").and_then(|s| u64::from_str_radix(s, 16).ok()),
                manifest: Manifest::Doc(r.get("manifest")),
            }),
            "started" => T::Started,
            "done" => T::Done {
                rows: None,
                wall_ms: r.get("wall_ms").and_then(JsonValue::as_f64).unwrap_or(0.0),
            },
            "failed" => {
                T::Failed { error: str_at("error").unwrap_or("unknown").into(), wall_ms: 0.0 }
            }
            "cancelled" => T::Cancelled { error: None, wall_ms: 0.0 },
            _ => return None,
        };
        Some((id, t))
    }
}

/// Everything the server keeps under its state lock.
pub(crate) struct State {
    pub(crate) jobs: Vec<JobRecord>,
    /// Jobs not terminal yet (the `serve.inflight` gauge).
    pub(crate) unfinished: usize,
    /// Records below this id have left the retention window: the finished
    /// ones are released, the rest are released as they finish.
    swept: usize,
    /// Content address → the followers of its in-flight compute.
    pub(crate) inflight: HashMap<u64, Vec<usize>>,
    pub(crate) queue: VecDeque<Task>,
    pub(crate) results: Lru<Arc<JsonValue>>,
    pub(crate) prepared: Lru<PrepSlot>,
    pub(crate) draining: bool,
    /// Where transitions are journaled (`None` in memory and in replay).
    pub(crate) journal: Option<Arc<Durable>>,
    /// Set while recovery rebuilds the table.
    pub(crate) replaying: bool,
}

impl State {
    pub(crate) fn new(result_cache_cap: usize, prepare_cache_cap: usize) -> State {
        State {
            jobs: Vec::new(),
            unfinished: 0,
            swept: 0,
            inflight: HashMap::new(),
            queue: VecDeque::new(),
            results: Lru::new(result_cache_cap),
            prepared: Lru::new(prepare_cache_cap),
            draining: false,
            journal: None,
            replaying: false,
        }
    }

    /// Applies `t` to job `id`: the only place a job changes status.
    pub(crate) fn apply(&mut self, id: usize, t: Transition<'_>) {
        use JobStatus::*;
        use Transition as T;
        let live = !self.replaying;
        if let T::Admitted(a) = &t {
            let mut rec = JobRecord::new(a.name, a.design, a.request_id, a.result_key);
            rec.cache = if live { Cache::Miss } else { Cache::Uncached };
            self.jobs.push(rec);
            self.unfinished += 1;
        }
        let Some(rec) = self.jobs.get_mut(id) else { return };
        if matches!(t, T::Started) && rec.status != Queued {
            return;
        }
        if let Some(d) = &self.journal {
            if let Some(doc) = t.record(id, rec.result_key) {
                rec.wal_seq = d.append(&doc);
            }
        }
        let was_terminal = rec.status.terminal();
        // the status, the event and its error, the counter; a replayed
        // transition counts only what recovery itself decides
        let if_live = |s: &'static str| if live { s } else { "" };
        let mut shown = None;
        let (status, name, counter) = match t {
            T::Admitted(_) => {
                (Queued, if live { "submitted" } else { "recovered" }, if_live("serve.submitted"))
            }
            T::Rejected(e) => {
                (rec.cache, shown) = (Cache::Uncached, Some(e.clone()));
                rec.error = Some(e.into());
                (Failed, "failed", "serve.jobs_failed")
            }
            T::CacheHit(rows, tag) => {
                rec.cache = tag;
                if let Some(l) = &mut rec.live {
                    l.rows = Some(rows);
                }
                if live {
                    rec.push_event(event("cache_hit"));
                    obs::counter_add("serve.cache_hits", 1);
                }
                (Done, "done", if_live("serve.jobs_done"))
            }
            T::Deduped(key) => {
                rec.cache = Cache::Dedup;
                self.inflight.entry(key).or_default().push(id);
                (rec.status, "deduped", if_live("serve.deduped"))
            }
            T::Queued => {
                rec.cache = rec.result_key.map_or(Cache::Bypass, |key| {
                    self.inflight.insert(key, Vec::new());
                    Cache::Miss
                });
                (Queued, "queued", if live { "serve.queued" } else { "serve.recovered" })
            }
            T::Started => (Running, if_live("started"), ""),
            T::Done { rows, wall_ms } => {
                rec.wall_ms = wall_ms;
                if let (Some(l), Some(rows)) = (&mut rec.live, rows) {
                    l.rows = Some(rows);
                }
                if !live {
                    rec.cache = Cache::Disk;
                }
                (Done, "done", if_live("serve.jobs_done"))
            }
            T::Failed { error, wall_ms } => {
                shown = live.then(|| error.clone());
                (rec.error, rec.wall_ms) = (Some(error.into()), wall_ms);
                (Failed, "failed", if_live("serve.jobs_failed"))
            }
            T::Cancelled { error, wall_ms } => {
                shown = error.clone();
                (rec.error, rec.wall_ms) = (error.map(Box::from), wall_ms);
                (Cancelled, "cancelled", if_live("serve.jobs_cancelled"))
            }
        };
        rec.status = status;
        if !name.is_empty() {
            let mut ev = event(name);
            ev.extend(shown.map(|e| field("error", JsonValue::Str(e))));
            rec.push_event(ev);
        }
        if !counter.is_empty() {
            obs::counter_add(counter, 1);
        }
        if status.terminal() && !was_terminal {
            self.unfinished -= 1;
            // a job that finishes outside the retention window is
            // released at once
            if id < self.swept {
                rec.release();
            }
        }
    }

    /// Moves the retention window up to the newest `cap` admissions and
    /// releases every finished record that fell out of it.
    pub(crate) fn sweep(&mut self, cap: usize) {
        if cap == 0 {
            return; // no result cache to re-serve from: the table keeps everything
        }
        let horizon = self.jobs.len().saturating_sub(cap);
        if horizon > self.swept {
            for rec in &mut self.jobs[self.swept..horizon] {
                if rec.status.terminal() {
                    rec.release();
                }
            }
            self.swept = horizon;
        }
    }

    /// Folds journal records into the table through [`State::apply`] in
    /// replay mode; a job's last record wins. A `done` whose artifact
    /// `artifact` cannot produce is skipped, so the job stays unfinished.
    /// Returns each job's manifest document, in id order.
    pub(crate) fn replay<'r>(
        &mut self,
        records: &'r [JsonValue],
        mut artifact: impl FnMut(u64) -> Option<Arc<JsonValue>>,
    ) -> Result<Vec<Option<&'r JsonValue>>, String> {
        self.replaying = true;
        let mut manifests = Vec::new();
        for (id, mut t) in records.iter().filter_map(Transition::decode) {
            let len = self.jobs.len();
            match &mut t {
                Transition::Admitted(Admission { manifest: Manifest::Doc(doc), .. }) => {
                    if id != len {
                        let e = format!("admitted job {id} out of order (expected {len})");
                        return Err(format!("state-dir journal: {e}"));
                    }
                    manifests.push(*doc);
                }
                _ if id >= len => continue,
                Transition::Done { rows, .. } => {
                    let Some(found) = self.jobs[id].result_key.and_then(&mut artifact) else {
                        continue;
                    };
                    *rows = Some(found);
                }
                _ => {}
            }
            self.apply(id, t);
        }
        Ok(manifests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DiskCache;
    use casyn_flow::durable::Wal;
    use casyn_flow::{parse_manifest_value, ManifestDefaults};

    /// Two manifest entries: a path job and an inline fault-plan job.
    fn manifest_jobs() -> Vec<ManifestJob> {
        let doc = JsonValue::parse(
            r#"[{"name":"a","design":"examples/designs/ex_a.pla","ks":[0,0.5]},
                {"name":"f","design":"inline","source":".i 1\n.o 1\n1 1\n.e\n",
                 "fault_plan":"map:panic:1"}]"#,
        )
        .unwrap();
        parse_manifest_value(&doc, &ManifestDefaults::default()).unwrap()
    }

    fn admission<'a>(m: &'a ManifestJob, rid: &'a str, key: Option<u64>) -> Transition<'a> {
        let manifest = Manifest::Job(m);
        Transition::Admitted(Admission {
            name: &m.name,
            design: &m.design,
            request_id: rid,
            result_key: key,
            manifest,
        })
    }

    /// A sealed journal line, as `Wal::replay` hands it back: without its
    /// `sum` field.
    fn unseal(line: &str) -> JsonValue {
        let JsonValue::Object(mut fields) = JsonValue::parse(line).unwrap() else { panic!() };
        fields.retain(|(k, _)| k != "sum");
        JsonValue::Object(fields)
    }

    const KEY: u64 = 0x0123_4567_89ab_cdef;

    /// The line of every record kind, as the journal wrote it before the
    /// job state machine existed (but for `done`, below): field order, key
    /// and number formatting and checksum included.
    const LINES: [&str; 7] = [
        r#"{"t":"admitted","job":3,"name":"a","design":"examples/designs/ex_a.pla","request_id":"r000007","result_key":"0123456789abcdef","manifest":{"name":"a","design":"examples/designs/ex_a.pla","format":"pla","ks":[0,0.5],"util":0.611,"layers":3,"optimize":false},"sum":"8cfd609d69b1c33f"}"#,
        r#"{"t":"admitted","job":4,"name":"f","design":"inline","request_id":"req-x","manifest":{"name":"f","design":"inline","source":".i 1\n.o 1\n1 1\n.e\n","format":"pla","ks":[0,0.1,0.5,1,5],"util":0.611,"layers":3,"optimize":false,"fault_plan":"map:panic:1"},"sum":"0c7a5b5038c7734c"}"#,
        r#"{"t":"started","job":3,"sum":"faf3f025b1459038"}"#,
        r#"{"t":"done","job":3,"result_key":"0123456789abcdef","wall_ms":12.5,"sum":"aab6af085e880369"}"#,
        r#"{"t":"done","job":4,"wall_ms":0,"sum":"9976f5f42d088e0d"}"#,
        r#"{"t":"failed","job":4,"error":"design: cannot read \"x\"","sum":"d775a2645df386a6"}"#,
        r#"{"t":"cancelled","job":5,"sum":"97023d8dd55067d8"}"#,
    ];

    /// `LINES[3]` and `LINES[4]` as journals wrote them while `done`
    /// carried a `degraded` flag.
    const FLAGGED_DONE: [&str; 2] = [
        r#"{"t":"done","job":3,"result_key":"0123456789abcdef","degraded":false,"wall_ms":12.5,"sum":"af90509e1ede99cc"}"#,
        r#"{"t":"done","job":4,"degraded":true,"wall_ms":0,"sum":"3aacb048121682f9"}"#,
    ];

    #[test]
    fn each_record_kind_encodes_to_the_journal_line_and_decodes_back() {
        let jobs = manifest_jobs();
        let rows = Arc::new(JsonValue::Array(Vec::new()));
        let hit = rows.clone();
        let error = "design: cannot read \"x\"".to_string();
        // (line, job, content address, the transitions that write it)
        let cases: Vec<(usize, usize, Option<u64>, Vec<Transition>)> = vec![
            (0, 3, Some(KEY), vec![admission(&jobs[0], "r000007", Some(KEY))]),
            (1, 4, None, vec![admission(&jobs[1], "req-x", None)]),
            (2, 3, Some(KEY), vec![Transition::Started]),
            (3, 3, Some(KEY), vec![Transition::Done { rows: Some(rows.clone()), wall_ms: 12.5 }]),
            (
                4,
                4,
                None,
                vec![
                    Transition::Done { rows: None, wall_ms: 0.0 },
                    Transition::CacheHit(hit, Cache::Hit),
                ],
            ),
            (
                5,
                4,
                None,
                vec![
                    Transition::Rejected(error.clone()),
                    Transition::Failed { error: error.clone(), wall_ms: 7.0 },
                ],
            ),
            (
                6,
                5,
                None,
                vec![
                    Transition::Cancelled { error: Some("cancelled".into()), wall_ms: 1.0 },
                    Transition::Cancelled { error: None, wall_ms: 0.0 },
                ],
            ),
        ];
        for (line, id, key, transitions) in &cases {
            for t in transitions {
                let rec = t.record(*id, *key).unwrap();
                assert_eq!(Wal::seal(&rec).unwrap(), LINES[*line]);
            }
            // decoding gives the transition replay applies, which writes
            // the same line again
            let doc = unseal(LINES[*line]);
            let (decoded_id, t) = Transition::decode(&doc).unwrap();
            assert_eq!(decoded_id, *id);
            assert_eq!(Wal::seal(&t.record(*id, *key).unwrap()).unwrap(), LINES[*line]);
            match (line, &t) {
                (0 | 1, Transition::Admitted(a)) => {
                    let m = &jobs[*line];
                    assert_eq!((a.name, a.design), (m.name.as_str(), m.design.as_str()));
                    assert_eq!(a.result_key, *key);
                    assert!(matches!(a.manifest, Manifest::Doc(Some(d)) if *d == m.to_json()));
                }
                (2, Transition::Started) => {}
                (3, Transition::Done { rows: None, wall_ms }) => assert_eq!(*wall_ms, 12.5),
                (4, Transition::Done { rows: None, wall_ms }) => assert_eq!(*wall_ms, 0.0),
                (5, Transition::Failed { error: e, wall_ms }) => {
                    assert_eq!((e, *wall_ms), (&error, 0.0))
                }
                (6, Transition::Cancelled { error: None, wall_ms }) => assert_eq!(*wall_ms, 0.0),
                _ => panic!("line {line} decoded to the wrong transition"),
            }
        }
        // an older journal's `done` replays as the same transition: its
        // flag is ignored
        for (old, (line, id, key)) in FLAGGED_DONE.iter().zip([(3, 3, Some(KEY)), (4, 4, None)]) {
            let doc = unseal(old);
            let (decoded_id, t) = Transition::decode(&doc).unwrap();
            assert_eq!(decoded_id, id);
            assert_eq!(Wal::seal(&t.record(id, key).unwrap()).unwrap(), LINES[line]);
        }
        // transitions the journal does not keep
        assert!(Transition::Queued.record(0, Some(KEY)).is_none());
        assert!(Transition::Deduped(KEY).record(0, Some(KEY)).is_none());
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("casyn-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_table_rebuilt_from_its_journal_agrees_job_by_job() {
        let dir = tmpdir("replay");
        let wal_path = dir.join("casyn.wal.v1");
        let wal = Wal::open(&wal_path, None).unwrap();
        let durable =
            Arc::new(Durable::new(wal, DiskCache::open(&dir.join("cache"), None).unwrap()));
        let mut live = State::new(8, 0);
        live.journal = Some(durable.clone());
        let jobs = manifest_jobs();
        let (m, fault_job) = (&jobs[0], &jobs[1]);
        let (a, b, c, d, e) = (1, 2, 3, 4, 5);
        let rows = |n: f64| Arc::new(JsonValue::Array(vec![JsonValue::Number(n)]));
        let done = |n: f64| Transition::Done { rows: Some(rows(n)), wall_ms: n };
        // the artifacts a disk cache would hold: every key but `e`'s
        let mut artifacts = HashMap::new();
        for (key, n) in [(a, 1.0), (b, 2.0)] {
            artifacts.insert(key, rows(n));
        }
        // 0: a miss that runs; 1: a memory hit of it
        live.apply(0, admission(m, "r1", Some(a)));
        live.apply(0, Transition::Queued);
        live.apply(0, Transition::Started);
        live.apply(0, done(1.0));
        live.apply(1, admission(m, "r2", Some(a)));
        live.apply(1, Transition::CacheHit(artifacts[&a].clone(), Cache::Hit));
        // 2 runs, 3 follows it
        live.apply(2, admission(m, "r3", Some(b)));
        live.apply(2, Transition::Queued);
        live.apply(3, admission(m, "r3", Some(b)));
        live.apply(3, Transition::Deduped(b));
        live.apply(2, Transition::Started);
        let followers = live.inflight.remove(&b).unwrap();
        for id in std::iter::once(2).chain(followers) {
            live.apply(id, done(2.0));
        }
        // 4: a load failure; 5: a fault-plan job that fails; 6: cancelled
        live.apply(4, admission(m, "r4", Some(c)));
        live.apply(4, Transition::Rejected("design: no such file".into()));
        live.apply(5, admission(fault_job, "r4", None));
        live.apply(5, Transition::Queued);
        live.apply(5, Transition::Started);
        live.apply(5, Transition::Failed { error: "injected fault".into(), wall_ms: 3.0 });
        live.apply(6, admission(m, "r5", Some(d)));
        live.apply(6, Transition::Queued);
        live.apply(6, Transition::Cancelled { error: Some("cancelled".into()), wall_ms: 0.0 });
        // 7: done, but its artifact is lost
        live.apply(7, admission(m, "r6", Some(e)));
        live.apply(7, Transition::Queued);
        live.apply(7, Transition::Started);
        live.apply(7, done(7.0));
        assert_eq!(live.unfinished, 0);
        let cache: Vec<&str> = live.jobs.iter().map(|r| r.cache.as_str()).collect();
        assert_eq!(cache, ["miss", "hit", "miss", "dedup", "none", "bypass", "miss", "miss"]);

        durable.sync_all();
        let replay = Wal::replay(&wal_path).unwrap();
        let mut rebuilt = State::new(8, 0);
        let manifests = rebuilt.replay(&replay.records, |k| artifacts.get(&k).cloned()).unwrap();
        assert_eq!(manifests.len(), live.jobs.len());
        assert!(manifests.iter().all(Option::is_some), "every admitted record has its entry");
        for (id, (l, r)) in live.jobs.iter().zip(&rebuilt.jobs).enumerate() {
            assert_eq!(r.result_key, l.result_key, "job {id}");
            assert_eq!(
                (r.name(), r.design(), r.request_id()),
                (l.name(), l.design(), l.request_id())
            );
            match id {
                // the journal keeps no error for a cancelled job
                6 => assert!(r.error.is_none() && l.error.is_some()),
                _ => assert_eq!(r.error, l.error, "job {id}"),
            }
            match id {
                // a done job whose artifact is gone is left to recompute
                7 => assert_eq!(r.status, JobStatus::Running),
                _ => assert_eq!(r.status, l.status, "job {id}"),
            }
        }
        // replayed jobs report as recovered, and results come from disk
        let cache: Vec<&str> = rebuilt.jobs.iter().map(|r| r.cache.as_str()).collect();
        assert_eq!(cache, ["disk", "disk", "disk", "disk", "none", "none", "none", "none"]);
        assert!(rebuilt.jobs.iter().all(|r| r.wal_seq == 0), "replay journals nothing");
        assert_eq!(rebuilt.unfinished, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
