//! End-to-end fault tolerance: deterministic fault injection drives the
//! typed error spine, the stage-boundary invariant checker catches
//! corrupted intermediates, and the batch runner recovers with retry and
//! K escalation. All through the public facade, the way an application
//! would wire it.

use casyn::exec::{FaultPlan, Pool};
use casyn::flow::batch::{run_batch, run_batch_job, BatchJob, BatchOptions};
use casyn::flow::{congestion_flow, FlowErrorKind, FlowOptions, Stage};
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::network::Network;

fn net(seed: u64) -> Network {
    random_pla(&PlaGenConfig {
        inputs: 9,
        outputs: 5,
        terms: 28,
        min_literals: 3,
        max_literals: 5,
        mean_outputs_per_term: 1.3,
        seed,
    })
    .to_network()
}

fn opts_with(plan: &str) -> FlowOptions {
    FlowOptions {
        validate: true,
        fault: Some(FaultPlan::parse(plan).unwrap()),
        ..Default::default()
    }
}

/// A corrupt fault at each supported stage is caught by that stage's
/// boundary invariant — never a panic, never a silently wrong result.
#[test]
fn corrupt_faults_are_caught_at_their_stage() {
    for (plan, stage) in [
        ("place:corrupt:1", Stage::Place),
        ("map:corrupt:1", Stage::Map),
        ("route:corrupt:1", Stage::Route),
    ] {
        let e = congestion_flow(&net(3), 0.1, &opts_with(plan)).unwrap_err();
        assert_eq!(e.stage, stage, "plan {plan}");
        assert_eq!(e.kind, FlowErrorKind::Invariant, "plan {plan}");
    }
}

/// Deadline faults surface as typed errors with the stage attached, and
/// the Display form carries stage, kind and detail for log lines.
#[test]
fn deadline_fault_is_typed_and_displayable() {
    let e = congestion_flow(&net(3), 0.1, &opts_with("sta:deadline:1")).unwrap_err();
    assert_eq!((e.stage, e.kind), (Stage::Sta, FlowErrorKind::Deadline));
    let shown = e.to_string();
    assert!(shown.contains("sta") && shown.contains("deadline"), "got: {shown}");
    // the spine is a real std error, so it boxes into anyhow-style call
    // sites without adapters
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(boxed.to_string().contains("injected fault"));
}

/// Fault injection is deterministic: the same plan produces the same
/// typed failure on every run.
#[test]
fn injected_failures_reproduce_exactly() {
    let a = congestion_flow(&net(4), 0.1, &opts_with("map:corrupt:1,seed=9")).unwrap_err();
    let b = congestion_flow(&net(4), 0.1, &opts_with("map:corrupt:1,seed=9")).unwrap_err();
    assert_eq!((a.stage, a.kind, a.detail.clone()), (b.stage, b.kind, b.detail));
}

/// An un-faulted flow with validation on still completes — the invariant
/// checker must pass healthy intermediates through untouched.
#[test]
fn validation_passes_healthy_flows() {
    let opts = FlowOptions { validate: true, ..Default::default() };
    let r = congestion_flow(&net(5), 0.1, &opts).unwrap();
    assert!(r.num_cells > 0);
}

/// Batch end to end: a transient panic fault clears on retry, a starved
/// router degrades through K escalation, and both jobs land ok while an
/// unrecoverable job fails alone with its typed error.
#[test]
fn batch_recovers_with_retry_and_escalation() {
    let mk = |seed: u64, name: &str| BatchJob {
        name: name.into(),
        network: net(seed),
        ks: vec![0.0, 0.1],
        opts: FlowOptions::default(),
        deadline: None,
    };
    let mut flaky = mk(3, "flaky");
    flaky.opts.fault = Some(FaultPlan::parse("map:panic:1").unwrap());
    let mut starved = mk(4, "starved");
    starved.opts.route.capacity_scale = 0.02;
    let mut doomed = mk(5, "doomed");
    doomed.opts.fault = Some(FaultPlan::parse("map:panic:1,map:panic:2").unwrap());
    let jobs = [flaky, starved, doomed];
    let bopts = BatchOptions { retries: 1, ..Default::default() };
    let report = run_batch(&jobs, &Pool::new(2), &bopts, run_batch_job, |_, _| {});
    // flaky: attempt 1 trips the nth=1 fault, attempt 2 runs clean
    let flaky = &report.jobs[0];
    assert!(flaky.outcome.is_ok(), "retry must clear the transient fault");
    assert_eq!(flaky.attempts, 2);
    // starved: whole sweep unroutable, so one escalated rung is appended
    let starved = report.jobs[1].outcome.as_ref().unwrap();
    assert!(starved.degraded);
    assert_eq!(starved.rows.last().unwrap().k, 0.2);
    // doomed: faults on both attempts; the last typed error is kept
    let doomed = &report.jobs[2];
    assert_eq!(doomed.attempts, 2);
    let e = doomed.outcome.as_ref().unwrap_err();
    assert_eq!(e.kind, FlowErrorKind::Panicked);
    assert!(e.detail.contains("injected fault"));
    assert_eq!(report.num_ok(), 2);
    assert_eq!(report.num_degraded(), 1);
    assert_eq!(report.num_failed(), 1);
}

/// The degraded rows a recovered batch reports are the same rows a direct
/// (serial, no-pool) run of the job produces — recovery must not change
/// results, only rescue them.
#[test]
fn degraded_results_match_direct_runs() {
    let mut job = BatchJob {
        name: "tight".into(),
        network: net(4),
        ks: vec![0.0, 0.1],
        opts: FlowOptions::default(),
        deadline: None,
    };
    job.opts.route.capacity_scale = 0.02;
    let bopts = BatchOptions::default();
    let direct = run_batch_job(&job).unwrap();
    let pooled =
        run_batch(std::slice::from_ref(&job), &Pool::new(2), &bopts, run_batch_job, |_, _| {});
    let pooled = pooled.jobs[0].outcome.as_ref().unwrap();
    assert_eq!(direct.degraded, pooled.degraded);
    assert_eq!(direct.rows.len(), pooled.rows.len());
    for (a, b) in direct.rows.iter().zip(&pooled.rows) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.result.cell_area, b.result.cell_area);
        assert_eq!(a.result.route.total_wirelength, b.result.route.total_wirelength);
    }
}
