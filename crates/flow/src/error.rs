//! The typed error spine of the flow: every failure anywhere in the
//! pipeline surfaces as a [`FlowError`] tagged with the [`Stage`] that
//! caused it and a machine-readable [`FlowErrorKind`], so batch reports,
//! crash bundles and telemetry can attribute failures without parsing
//! prose.

use casyn_exec::JobError;
use casyn_obs::json::JsonValue;
use casyn_route::RouteError;
use std::fmt;

/// Where in the pipeline an error originated. The first nine variants are
/// the paper's methodology stages in order; `Seq`, `Sweep` and `Batch`
/// tag the sequential wrapper and the drivers above the per-K flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Technology-independent optimization (the "SIS" phase).
    Optimize,
    /// NAND2/INV subject-graph decomposition.
    Decompose,
    /// Floorplan derivation.
    Floorplan,
    /// Initial placement of the unbound netlist.
    Place,
    /// Tree partitioning of the subject graph.
    Partition,
    /// Technology mapping (tree covering).
    Map,
    /// Port assignment and row legalization.
    Legalize,
    /// Global routing.
    Route,
    /// Static timing analysis.
    Sta,
    /// Sequential wrapping (latch exposure, DFF insertion).
    Seq,
    /// The K-sweep / methodology driver above the per-K flows.
    Sweep,
    /// The batch runner above the jobs.
    Batch,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 12] = [
        Stage::Optimize,
        Stage::Decompose,
        Stage::Floorplan,
        Stage::Place,
        Stage::Partition,
        Stage::Map,
        Stage::Legalize,
        Stage::Route,
        Stage::Sta,
        Stage::Seq,
        Stage::Sweep,
        Stage::Batch,
    ];

    /// The stage's lowercase name — also the stage token fault plans and
    /// telemetry use.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Optimize => "optimize",
            Stage::Decompose => "decompose",
            Stage::Floorplan => "floorplan",
            Stage::Place => "place",
            Stage::Partition => "partition",
            Stage::Map => "map",
            Stage::Legalize => "legalize",
            Stage::Route => "route",
            Stage::Sta => "sta",
            Stage::Seq => "seq",
            Stage::Sweep => "sweep",
            Stage::Batch => "batch",
        }
    }

    /// Parses a stage name as produced by [`Stage::name`].
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The machine-readable failure class of a [`FlowError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowErrorKind {
    /// The stage's input was malformed (bad netlist, empty schedule, ...).
    BadInput,
    /// A stage-boundary invariant check failed — the stage produced
    /// corrupt state (see [`crate::check`]).
    Invariant,
    /// The library has no sequential master for a sequential design.
    MissingSeqMaster,
    /// Global routing could not complete (see
    /// [`casyn_route::RouteError`]).
    RouteFailed,
    /// The stage (or job) panicked; the payload message is preserved.
    Panicked,
    /// The job was cancelled before it ran.
    Cancelled,
    /// A deadline elapsed (job-level queuing deadline or an injected
    /// stage deadline).
    Deadline,
}

impl FlowErrorKind {
    /// The kind's snake_case name, as serialized into reports.
    pub fn name(self) -> &'static str {
        match self {
            FlowErrorKind::BadInput => "bad_input",
            FlowErrorKind::Invariant => "invariant",
            FlowErrorKind::MissingSeqMaster => "missing_seq_master",
            FlowErrorKind::RouteFailed => "route_failed",
            FlowErrorKind::Panicked => "panicked",
            FlowErrorKind::Cancelled => "cancelled",
            FlowErrorKind::Deadline => "deadline",
        }
    }
}

impl FlowErrorKind {
    /// Every kind, in declaration order.
    const ALL: [FlowErrorKind; 7] = [
        FlowErrorKind::BadInput,
        FlowErrorKind::Invariant,
        FlowErrorKind::MissingSeqMaster,
        FlowErrorKind::RouteFailed,
        FlowErrorKind::Panicked,
        FlowErrorKind::Cancelled,
        FlowErrorKind::Deadline,
    ];
}

impl fmt::Display for FlowErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured, stage-tagged flow failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    /// The pipeline stage that failed.
    pub stage: Stage,
    /// The failure class.
    pub kind: FlowErrorKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl FlowError {
    /// Builds an error from its parts. When tracing is on, every typed
    /// failure (invariant-check trips, injected faults surfacing as
    /// errors, route failures) also drops a `flow.error` instant on the
    /// current thread's track, so failures are visible in the timeline
    /// next to the span they interrupted.
    pub fn new(stage: Stage, kind: FlowErrorKind, detail: impl Into<String>) -> FlowError {
        let e = FlowError { stage, kind, detail: detail.into() };
        casyn_obs::trace::instant(
            "flow.error",
            &[
                ("stage", casyn_obs::trace::AttrValue::Str(e.stage.name().into())),
                ("kind", casyn_obs::trace::AttrValue::Str(e.kind.name().into())),
            ],
        );
        e
    }

    /// An invariant-check failure at `stage`.
    pub fn invariant(stage: Stage, detail: impl Into<String>) -> FlowError {
        FlowError::new(stage, FlowErrorKind::Invariant, detail)
    }

    /// A bad-input failure at `stage`.
    pub fn bad_input(stage: Stage, detail: impl Into<String>) -> FlowError {
        FlowError::new(stage, FlowErrorKind::BadInput, detail)
    }

    /// Serializes as `{"stage": ..., "kind": ..., "detail": ...}` — the
    /// `error` of a failed job's record.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("stage".into(), JsonValue::Str(self.stage.name().into())),
            ("kind".into(), JsonValue::Str(self.kind.name().into())),
            ("detail".into(), JsonValue::Str(self.detail.clone())),
        ])
    }

    /// Reads [`FlowError::to_json`]'s object back; `None` when a field is
    /// missing or names no stage or kind.
    pub fn from_json(v: &JsonValue) -> Option<FlowError> {
        let text = |k: &str| v.get(k).and_then(JsonValue::as_str);
        let kind = FlowErrorKind::ALL.into_iter().find(|k| Some(k.name()) == text("kind"))?;
        Some(FlowError {
            stage: Stage::parse(text("stage")?)?,
            kind,
            detail: text("detail")?.into(),
        })
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.stage, self.kind, self.detail)
    }
}

impl std::error::Error for FlowError {}

impl From<JobError> for FlowError {
    /// A panicked pool job is a batch-stage error: the flow never
    /// finished, so no pipeline stage can be blamed. Injected stage panics
    /// still carry their stage in the panic message.
    fn from(e: JobError) -> FlowError {
        match e {
            JobError::Panicked(msg) => FlowError::new(Stage::Batch, FlowErrorKind::Panicked, msg),
        }
    }
}

impl From<RouteError> for FlowError {
    fn from(e: RouteError) -> FlowError {
        FlowError::new(Stage::Route, FlowErrorKind::RouteFailed, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("detailed_route"), None);
    }

    #[test]
    fn display_is_stage_tagged() {
        let e = FlowError::invariant(Stage::Place, "vertex 3 at NaN");
        assert_eq!(e.to_string(), "[place/invariant] vertex 3 at NaN");
    }

    #[test]
    fn json_shape() {
        let e = FlowError::bad_input(Stage::Sweep, "empty schedule");
        let s = e.to_json().to_string_pretty();
        assert!(s.contains("\"stage\": \"sweep\""));
        assert!(s.contains("\"kind\": \"bad_input\""));
        assert!(s.contains("\"detail\": \"empty schedule\""));
        for kind in FlowErrorKind::ALL {
            let e = FlowError::new(Stage::Route, kind, "d");
            assert_eq!(FlowError::from_json(&e.to_json()), Some(e));
        }
        let no_stage = JsonValue::parse(r#"{"stage": "warp", "kind": "panicked", "detail": ""}"#);
        assert_eq!(FlowError::from_json(&no_stage.unwrap()), None);
    }

    #[test]
    fn job_errors_map_to_batch_stage() {
        let e = FlowError::from(JobError::Panicked("boom".into()));
        assert_eq!((e.stage, e.kind), (Stage::Batch, FlowErrorKind::Panicked));
        assert_eq!(e.detail, "boom");
    }

    #[test]
    fn route_errors_map_to_route_stage() {
        let e = FlowError::from(RouteError::BadPin { net: 2, pin: 0, x: f64::NAN, y: 1.0 });
        assert_eq!((e.stage, e.kind), (Stage::Route, FlowErrorKind::RouteFailed));
        assert!(e.detail.contains("net 2"));
    }
}
