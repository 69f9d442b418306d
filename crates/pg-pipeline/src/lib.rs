#![warn(missing_docs)]
//! # pg-pipeline — the multi-stream video-inference pipeline
//!
//! The **evaluation substrate**: parse → gate → decode → infer → feedback,
//! over `m` concurrent streams, under a per-round decoding budget.
//!
//! Every round runs the same loop (the paper's formalization, §4.1: "we
//! divide one second into 25 rounds, so we receive 1000 packets at each
//! round"): candidates → the policy's `select` → budgeted decode of each
//! selected dependency closure → inference → feedback. One **round core**
//! (`roundcore`, crate-internal) owns that loop, its budget, accuracy and
//! fault accounting, and its epilogue (insight, trace, autopilot). Three
//! thin packet sources drive it:
//!
//! * [`round::RoundSimulator`] — live encoders, one packet per stream per
//!   round: the deterministic simulator behind every accuracy/concurrency
//!   experiment;
//! * [`replay::ReplaySimulator`] — recorded packets (e.g. `.pgv` files),
//!   gated without re-encoding;
//! * [`netround::NetworkedRoundSimulator`] — packets that survived a lossy,
//!   jittery link, so a round offers a subset of the streams.
//!
//! [`concurrent::ConcurrentPipeline`] is the threads-and-channels runtime
//! that moves real bytes through sharded parsers and a decoder pool, used
//! to measure wall-clock throughput and gate overheads. Its gate stage
//! owns the core's gate-side state — per-stream decoders, stream health,
//! fault ledger, budget — and runs the same offer rule and budgeted claim
//! walk, handing each claimed closure to the pool instead of decoding it
//! inline; it also shares the inference task check and round epilogue.
//! Given the same packets, a policy that ignores feedback (the runtime's
//! arrives asynchronously) therefore decides identically in every mode,
//! and a faulty stream is quarantined identically.
//!
//! Gating policies plug in through the [`gate::GatePolicy`] trait; the
//! `packetgame` crate provides PacketGame itself plus all baselines.

pub mod autopilot;
pub mod budget;
pub mod cluster;
pub mod concurrent;
pub mod export;
pub mod fault;
pub mod gate;
pub mod ingest;
pub mod insight;
pub mod metrics;
pub mod netround;
pub mod replay;
pub mod round;
mod roundcore;
pub mod search;
pub mod steal;
pub mod telemetry;
pub mod trace;

pub use autopilot::{Autopilot, AutopilotAction, AutopilotConfig, AutopilotSnapshot};
pub use budget::RoundBudget;
pub use cluster::{
    partition_fleet, BudgetDecision, ClusterConfig, ClusterPipeline, ClusterReport, ClusterSim,
    ClusterSimConfig, ClusterSimReport, MigrationPlan,
};
pub use concurrent::{
    ChunkSource, ClusterControl, ConcurrentPipeline, ConcurrentReport, DecodeWorkModel,
    IngestSink, WorkKind,
};
pub use export::{
    prometheus_exposition, prometheus_exposition_with_instance, validate_exposition,
    with_instance_label,
};
pub use fault::{
    ChunkFaultMode, FaultKind, FaultPlan, FaultRecord, HealthSummary, PipelineError,
    QuarantineConfig, StreamHealth,
};
pub use gate::{FeedbackEvent, GatePolicy, PacketContext};
pub use ingest::{
    ChurnEvent, ChurnPlan, FleetConfig, FleetReport, IngestControl, LoopbackFleet,
    NetIngestSource, StreamFeed,
};
pub use insight::{
    Insight, InsightConfig, InsightPulse, InsightSnapshot, Lemma1Snapshot, PacketOutcome,
    PageHinkley, RegretSnapshot, RoundOutcome, SelectionEntry,
};
pub use metrics::RoundSimReport;
pub use netround::{NetworkedRoundSimulator, NetworkedSimReport};
pub use replay::ReplaySimulator;
pub use round::{RegimeShift, RoundSimulator, SimConfig, StreamSpec};
pub use search::max_streams_at_accuracy;
pub use telemetry::{
    AuditReason, GateAuditEntry, IngestSnapshot, Stage, Telemetry, TelemetrySnapshot,
};
pub use trace::{
    RoundBreakdown, RoundPart, SpanId, SpanToken, Trace, TraceConfig, TraceSnapshot, TraceSpan,
    TraceStage, Track,
};
