//! End-to-end congestion-aware synthesis flows.
//!
//! This crate wires the whole stack into the experiments of the paper:
//! technology-independent optimization → NAND2/INV decomposition → initial
//! placement of the unbound netlist → (congestion-aware) technology
//! mapping → seeded legalization → global routing → static timing
//! analysis.
//!
//! * [`flows`] — the three synthesis flows compared in the paper
//!   (`sis_flow`, `dagon_flow`, `congestion_flow`), the shared
//!   [`flows::Prepared`] front end, and the two stages every flow runs
//!   after it: [`flows::map_at`] and [`flows::route_at`].
//! * [`sweep`] — the K sweep behind Tables 2 and 4, serial or fanned
//!   out across a `casyn-exec` pool with bit-identical results.
//! * [`batch`] — concurrent multi-design batch runner with per-job
//!   panic/cancellation/deadline isolation, retry and K-escalation
//!   degradation.
//! * [`error`] — the typed [`error::FlowError`] spine every entry point
//!   reports failures through.
//! * [`check`] — stage-boundary invariant checks (DAG shape, placement
//!   bounds, partition cover, netlist consistency, route completeness).
//! * [`methodology`] — the modified ASIC design flow of Fig. 3 (increase
//!   K until the congestion map is acceptable).
//! * [`seq`] — sequential designs: flip-flop pass-through around the
//!   combinational flow, with clocked STA.
//! * [`content_key`] — the shared stable-field FNV-1a canonicalizer
//!   behind ledger addresses and the serve artifact cache (timings
//!   never enter a key).
//! * [`durable`] — crash-safe file I/O: atomic write-then-fsync-then-
//!   rename, FNV-1a-checksummed payloads and the append-only
//!   `casyn.wal.v1` journal behind the serve state directory.
//! * [`ledger`] — the one job record ([`ledger::JobRecord`], one
//!   [`ledger::Row`] per K) behind batch reports, checkpoints, crash
//!   bundles, content-addressed `casyn.run.v1` ledger records and served
//!   results, and the cross-run diff behind `casyn diff`.
//! * [`manifest`] — batch-manifest parsing shared by `casyn batch` and
//!   the serve job API (inline design sources included).
//! * [`report`] — table formatting that mirrors the paper's layout.
//! * [`telemetry`] — per-stage wall-clock and metric attribution
//!   collected through `casyn-obs`, exportable as JSON.

pub mod batch;
pub mod check;
pub mod content_key;
pub mod durable;
pub mod error;
pub mod flows;
pub mod ledger;
pub mod manifest;
pub mod methodology;
pub mod report;
pub mod seq;
pub mod sweep;
pub mod telemetry;

pub use batch::{
    run_batch, run_batch_job, BatchJob, BatchJobReport, BatchOptions, BatchReport, JobSuccess,
};
pub use content_key::{fnv1a64, library_fingerprint, KeyBuilder};
pub use durable::{
    read_checksummed, write_atomic, write_atomic_faulted, write_checksummed, DurableError, Wal,
    WalReplay, WAL_SCHEMA,
};
pub use error::{FlowError, FlowErrorKind, Stage};
pub use flows::{
    congestion_flow, congestion_flow_prepared, dagon_flow, full_flow, map_at, prepare,
    prepare_pool, route_at, sis_flow, FlowOptions, FlowResult, Mapped, Prepared,
};
pub use ledger::{
    batch_json, diff_records, format_diff, read_batch, safe_stem, JobRecord, LedgerError, Row,
    RunDiff,
};
pub use manifest::{
    file_stem, load_design, parse_design, parse_fault_plan, parse_manifest, parse_manifest_value,
    DesignFormat, JobParam, ManifestDefaults, ManifestJob,
};
pub use methodology::{run_methodology, MethodologyResult, MethodologyStep};
pub use report::{
    format_audit_table, format_congestion_heatmap, format_convergence_sparkline,
    format_k_sweep_table, format_routing_table, format_sparkline, format_sta_table,
    format_telemetry_table,
};
pub use seq::{sequential_flow, simulate_mapped_seq, SeqFlowResult};
pub use sweep::{k_sweep_prepared, k_sweep_prepared_pool, KSweepEntry, PAPER_K_VALUES};
pub use telemetry::{FlowTelemetry, StageTelemetry};
