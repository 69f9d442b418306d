//! One replay of the corpus through a fresh pipeline and a fresh gate,
//! with the correctness checks every pass must satisfy.

use std::sync::Mutex;
use std::time::Instant;

use packetgame::{ContextualPredictor, PacketGame, PacketGameConfig};
use pg_nn::serialize::WeightFile;
use pg_pipeline::concurrent::ConcurrentConfig;
use pg_pipeline::{ConcurrentPipeline, ConcurrentReport, Insight, Telemetry, Trace, TraceConfig};

use crate::corpus::Corpus;
use crate::gate::{GateLog, TimedGate};
use crate::metrics::{retime_knapsack, span_totals, summarize, PassSummary, SpanTotals};
use crate::probe;
use crate::source::{IngestLog, ReplaySource};
use crate::workload::{self, Workload};

/// What a pass measures besides its end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing more: the passes of an end-to-end run.
    Plain,
    /// The benchmark's own probes — counting allocator, thread CPU clocks,
    /// recorded knapsack inputs, timed `deliver` calls — with the runtime's
    /// `Trace` off: the baseline half of a traced run.
    Probed,
    /// The probes and the runtime's `Trace`: the traced half.
    Traced,
}

impl Mode {
    fn probed(self) -> bool {
        self != Mode::Plain
    }

    fn traced(self) -> bool {
        self == Mode::Traced
    }
}

/// Everything one pass produced.
pub struct PassOutcome {
    /// The runtime's own report (`None` if the pipeline panicked).
    pub report: Option<ConcurrentReport>,
    /// What the generator saw.
    pub ingest: IngestLog,
    /// What the gate wrapper saw.
    pub gate: GateLog,
    /// What only a traced pass records.
    pub traced: Option<TracedPass>,
    /// Wall time of `run_with_source`, ns.
    pub wall_ns: u64,
    /// Process CPU time during the run, without the RSS sampler's, ns.
    pub cpu_ns: u64,
    /// Allocations during the run (counted on probed passes only).
    pub allocs: u64,
    /// Correctness violations; any one fails the whole pass.
    pub violations: Vec<String>,
}

/// A traced pass's span totals and knapsack re-timing, reduced right after
/// the pass so raw spans never pile up across passes.
pub struct TracedPass {
    /// Runtime span totals.
    pub spans: SpanTotals,
    /// Optimizer-only time summed over rounds, ns.
    pub knapsack_ns: u64,
    /// Rounds whose re-timed selection differed from the recorded one.
    pub knapsack_mismatches: u64,
}

/// The gate under test: PacketGame with the trained weights.
pub fn packetgame(config: &PacketGameConfig, weights: &WeightFile) -> PacketGame {
    let mut predictor = ContextualPredictor::new(config.clone());
    predictor
        .load_weight_file(weights)
        .expect("weights come from a predictor with this configuration");
    PacketGame::new(config.clone(), predictor)
}

/// The runtime configuration of a workload over `corpus`.
pub fn pipeline_config(wl: &Workload, corpus: &Corpus) -> ConcurrentConfig {
    ConcurrentConfig {
        streams: corpus.streams,
        rounds: corpus.rounds,
        decode_workers: workload::DECODE_WORKERS,
        parser_shards: 0,
        budget_per_round: wl.budget(),
        task: wl.task,
        encoder: corpus.encoder,
        work: wl.work,
        ..ConcurrentConfig::default()
    }
}

/// Replay `corpus` once and reduce what the pass recorded.
pub fn run_pass(
    wl: &Workload,
    corpus: &Corpus,
    config: &PacketGameConfig,
    weights: &WeightFile,
    mode: Mode,
    sampler: &probe::RssSampler,
) -> PassSummary {
    let cfg = pipeline_config(wl, corpus);
    let m = corpus.streams;
    let (probed, traced) = (mode.probed(), mode.traced());
    let trace = if traced {
        // Room for every span of the pass: one parse span per packet, five
        // gate-thread spans per round, three per decode job.
        let capacity = (m as u64 * corpus.rounds * 4 + corpus.rounds * 8) as usize;
        Trace::with_config(TraceConfig {
            sample_every: 1,
            capacity,
        })
    } else {
        Trace::disabled()
    };
    let telemetry = if wl.observability {
        Telemetry::enabled().with_insight(Insight::enabled())
    } else {
        Telemetry::disabled()
    };
    let pipeline =
        ConcurrentPipeline::new(cfg.clone()).with_telemetry(telemetry.with_trace(trace.clone()));
    let mut violations = Vec::new();
    if corpus.task != cfg.task {
        violations.push(format!(
            "corpus task {} != pipeline task {}",
            corpus.task, cfg.task
        ));
    }

    let ingest = Mutex::new(IngestLog::default());
    let epoch = Instant::now();
    let mut gate = TimedGate::new(packetgame(config, weights), epoch, m, corpus.rounds, probed);
    let source = ReplaySource {
        corpus,
        epoch,
        interval: wl.interval,
        probed,
        log: &ingest,
    };
    probe::set_counting(probed);
    let copies0 = bytes::deep_copy_count();
    let allocs0 = probe::process_allocs();
    let cpu0 = probe::process_cpu_ns() - sampler.cpu_ns();
    let t0 = Instant::now();
    let result = pipeline.try_run_with_source(&mut gate, Box::new(source));
    let wall = t0.elapsed();
    let cpu_ns = (probe::process_cpu_ns() - sampler.cpu_ns()).saturating_sub(cpu0);
    let allocs = probe::process_allocs() - allocs0;
    probe::set_counting(false);
    let copies = bytes::deep_copy_count() - copies0;

    let mut gate = gate.into_log();
    let ingest = ingest.into_inner().expect("ingest log poisoned");
    let expected = corpus.stream_rounds();
    let report = match result {
        Ok(report) => Some(report),
        Err(panic) => {
            violations.push(format!("pipeline panicked: {panic}"));
            None
        }
    };
    if let Some(r) = &report {
        if r.packets_parsed != expected {
            violations.push(format!(
                "parsed {} packets, expected {expected}",
                r.packets_parsed
            ));
        }
        if let Some(f) = r.faults.first() {
            violations.push(format!("{} fault records, first: {f:?}", r.faults.len()));
        }
        if gate.dispatched_count != r.packets_decoded {
            violations.push(format!(
                "dispatch replayed from select: {} jobs, runtime decoded {}",
                gate.dispatched_count, r.packets_decoded
            ));
        }
    }
    if gate.foreign_feedback > 0 {
        violations.push(format!(
            "{} feedback events for stream-rounds never dispatched",
            gate.foreign_feedback
        ));
    }
    if copies > 0 {
        violations.push(format!("{copies} payload deep copies"));
    }
    if gate.decided_ns.len() as u64 != corpus.rounds || gate.out_of_order > 0 {
        violations.push(format!(
            "{} select calls ({} out of order) for {} rounds",
            gate.decided_ns.len(),
            gate.out_of_order,
            corpus.rounds
        ));
    }
    if ingest.refused > 0 || ingest.start_ns.len() as u64 != corpus.rounds {
        violations.push(format!(
            "generator handed over {} of {} rounds ({} chunks refused)",
            ingest.start_ns.len(),
            corpus.rounds,
            ingest.refused
        ));
    }
    let traced = traced.then(|| {
        let (knapsack_ns, knapsack_mismatches) =
            retime_knapsack(&std::mem::take(&mut gate.knapsack));
        TracedPass {
            spans: span_totals(corpus.rounds as usize, &trace.spans()),
            knapsack_ns,
            knapsack_mismatches,
        }
    });
    let outcome = PassOutcome {
        report,
        ingest,
        gate,
        traced,
        wall_ns: wall.as_nanos() as u64,
        cpu_ns,
        allocs,
        violations,
    };
    summarize(wl, corpus, outcome)
}
