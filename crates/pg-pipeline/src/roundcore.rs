//! The round core shared by every round-based execution mode.
//!
//! The paper models gating as rounds (§4.1). Each round is the same loop
//! no matter where packets come from: candidates → the policy's `select`
//! → budgeted decode of each selected dependency closure (the last item
//! may overshoot — Lemma 1) → inference → redundancy feedback → scoring.
//! [`RoundCore`] owns that loop and everything it needs; the live round
//! simulator, the replay simulator and the networked simulator are thin
//! packet sources that call [`RoundCore::observe`], [`RoundCore::ingest`]
//! and [`RoundCore::offer`] from their per-round feed.
//!
//! Budget accounting is exact: a decoded closure is charged the sum of its
//! frames' [`CostModel`](pg_codec::CostModel) costs, the same sum the
//! threaded runtime quotes when it builds a decode job. Given the same
//! packets every mode therefore reaches the same knapsack cut in every
//! round (DESIGN.md D14).
//!
//! Each round is scored on two accuracy metrics:
//!
//! * **inference accuracy** (primary; the paper's §4.1 objective): a
//!   packet is correct iff it was decoded or was redundant — skipping a
//!   *necessary* packet (per the paper's per-task rules: count change /
//!   event active) costs accuracy;
//! * **staleness accuracy** (secondary; reported for system insight): each
//!   stream's latest decoded result is what downstream applications see; a
//!   round is correct iff that *published* result still matches ground
//!   truth, so a missed change stays wrong until the next decode.
//!
//! [`note_fault`], [`infer`] and [`close_round`] are also used by the
//! threaded runtime's gate and inference stages, so fault accounting, task
//! checking and the round epilogue have one definition.

use pg_codec::{Codec, DecodedFrame, Decoder, Packet, PacketMeta};
use pg_inference::accuracy::OnlineAccuracy;
use pg_inference::redundancy::RedundancyJudge;
use pg_inference::tasks::{model_for, truth_result, InferenceModel, InferenceResult};
use pg_scene::{SceneState, TaskKind};

use crate::autopilot::Autopilot;
use crate::budget::RoundBudget;
use crate::fault::{
    push_fault, FaultPlan, FaultRecord, PipelineError, QuarantineConfig, StreamHealth,
};
use crate::gate::{FeedbackEvent, GatePolicy, PacketContext};
use crate::insight::{PacketOutcome, RoundOutcome};
use crate::metrics::RoundSimReport;
use crate::round::SimConfig;
use crate::telemetry::{AuditReason, GateAuditEntry, Stage, Telemetry};
use crate::trace::{ClosedSpan, RoundBreakdown, RoundPart, SpanId, SpanToken, TraceStage, Track};

/// Record a classified fault: telemetry ledger, bounded report log, and
/// (when `strike`) the stream's quarantine accounting.
pub(crate) fn note_fault(
    telemetry: &Telemetry,
    ledger: &mut Vec<FaultRecord>,
    health: &mut StreamHealth,
    error: &PipelineError,
    round: u64,
    strike: bool,
) {
    telemetry.fault(error.kind(), error.stream_idx());
    push_fault(ledger, error);
    if let (true, Some(i)) = (strike, error.stream_idx()) {
        if health.strike(i, round) {
            telemetry.stream_degraded(i);
        }
    }
}

/// Run stream `stream_idx`'s model on a decoded frame. A frame whose scene
/// belongs to another task is the stream's input fault, not the model's:
/// it comes back as a [`PipelineError::DecodeFail`] naming the stream.
pub(crate) fn infer(
    model: &mut dyn InferenceModel,
    frame: &DecodedFrame,
    stream_idx: usize,
    round: u64,
) -> Result<InferenceResult, PipelineError> {
    let task = frame.scene.state.task();
    if task != model.task() {
        return Err(PipelineError::DecodeFail {
            stream_idx,
            round,
            detail: format!("{task:?} frame for a {:?} model", model.task()),
        });
    }
    Ok(model.infer(frame))
}

/// Close round `outcome.round` in any mode: the decision-quality monitor
/// records it, the trace notes its stage breakdown, and the autopilot may
/// retune the budget. Returns the budget the next round runs with.
pub(crate) fn close_round(
    telemetry: &Telemetry,
    autopilot: &Autopilot,
    gate: &mut dyn GatePolicy,
    outcome: &RoundOutcome<'_>,
    round_span: Option<SpanToken>,
    parts: &[(TraceStage, u64)],
    round_us: Option<u64>,
) -> f64 {
    let insight = telemetry.insight();
    insight.record_round(outcome);
    let trace = telemetry.trace();
    if let Some(done) = trace.end(round_span, Track::Gate) {
        trace.note_round(RoundBreakdown {
            round: outcome.round,
            total_us: done.dur_us,
            parts: parts
                .iter()
                .map(|&(stage, us)| RoundPart {
                    stage: stage.name().to_string(),
                    us,
                })
                .collect(),
        });
    }
    autopilot.observe_round(
        outcome.round,
        gate,
        insight,
        outcome.spent,
        outcome.budget,
        round_us.map(|us| us as f64),
    )
}

fn dur_us(span: Option<ClosedSpan>) -> u64 {
    span.map_or(0, |d| d.dur_us)
}

struct CoreStream {
    decoder: Decoder,
    codec: Codec,
    model: Box<dyn InferenceModel>,
    judge: RedundancyJudge,
    /// The latest inference result — what downstream applications
    /// currently see for this stream (drives the staleness metric).
    published: Option<InferenceResult>,
    /// Previous scene state (drives the paper's static necessity labels).
    prev_state: Option<SceneState>,
}

/// Everything one gating round needs, for `m` streams. See module docs.
pub(crate) struct RoundCore {
    streams: Vec<CoreStream>,
    pub(crate) config: SimConfig,
    budget: RoundBudget,
    accuracy: OnlineAccuracy,
    staleness: OnlineAccuracy,
    pub(crate) health: StreamHealth,
    pub(crate) faults: Vec<FaultRecord>,
    /// In-process fault injectors (decoder stalls, dropped feedback).
    pub(crate) plan: FaultPlan,
    pub(crate) telemetry: Telemetry,
    pub(crate) autopilot: Autopilot,
    packets_decoded: u64,
    packets_backfilled: u64,
    necessary_total: u64,
    necessary_decoded: u64,
    /// Selected closures that failed to decode.
    pub(crate) undecodable: u64,
    // Per-round state, reused round to round.
    /// This round's candidates, in stream order (sources offer streams
    /// in ascending index, so a stream's candidate is found by bisection).
    pub(crate) contexts: Vec<PacketContext>,
    necessity: Vec<bool>,
    truths: Vec<Option<InferenceResult>>,
    /// Per stream: its candidate was decoded this round.
    pub(crate) decoded: Vec<bool>,
    /// Feedback from the last [`RoundCore::decode_selected`] call.
    pub(crate) events: Vec<FeedbackEvent>,
    /// Packets ingested this round (the parse stage's item count).
    ingested: u64,
}

impl RoundCore {
    /// A core over `streams`, each given as (decoder stream id, task,
    /// codec).
    pub(crate) fn new(config: SimConfig, streams: Vec<(u32, TaskKind, Codec)>) -> Self {
        let m = streams.len();
        RoundCore {
            streams: streams
                .into_iter()
                .map(|(id, task, codec)| CoreStream {
                    decoder: Decoder::new(id, config.cost_model),
                    codec,
                    model: model_for(task),
                    judge: RedundancyJudge::new(),
                    published: None,
                    prev_state: None,
                })
                .collect(),
            config,
            budget: RoundBudget::new(config.budget_per_round),
            accuracy: OnlineAccuracy::with_segments(config.segments),
            staleness: OnlineAccuracy::with_segments(config.segments),
            health: StreamHealth::new(m, QuarantineConfig::default()),
            faults: Vec::new(),
            plan: FaultPlan::default(),
            telemetry: Telemetry::disabled(),
            autopilot: Autopilot::disabled(),
            packets_decoded: 0,
            packets_backfilled: 0,
            necessary_total: 0,
            necessary_decoded: 0,
            undecodable: 0,
            contexts: Vec::with_capacity(m),
            necessity: vec![false; m],
            truths: vec![None; m],
            decoded: vec![false; m],
            events: Vec::new(),
            ingested: 0,
        }
    }

    /// Stream `i`'s ground-truth scene state this round.
    pub(crate) fn observe(&mut self, i: usize, state: SceneState) {
        let s = &mut self.streams[i];
        // Paper necessity: count change / event active (§5.1).
        self.necessity[i] = state.necessary_after(s.prev_state.as_ref());
        s.prev_state = Some(state);
        self.truths[i] = Some(truth_result(&state));
    }

    /// Hand an arrived packet to stream `i`'s decoder (arrival ≠ decode).
    pub(crate) fn ingest(&mut self, i: usize, round: u64, packet: Packet) {
        let meta = packet.meta;
        self.telemetry.insight().observe_packet(
            i,
            round,
            meta.frame_type.is_independent(),
            u64::from(meta.size),
        );
        self.streams[i].decoder.ingest(packet);
        self.ingested += 1;
    }

    /// Offer stream `i`'s packet `meta` to this round's gate. Quarantined
    /// streams offer nothing: their budget share goes to the healthy ones.
    /// When the closure is unavailable (references lost) the packet is
    /// quoted at `fallback` if given, else recorded as a dependency fault.
    pub(crate) fn offer(&mut self, i: usize, round: u64, meta: PacketMeta, fallback: Option<f64>) {
        debug_assert!(self.contexts.last().is_none_or(|c| c.stream_idx < i));
        if !self.health.is_active(i) {
            return;
        }
        let pending = self.streams[i].decoder.pending_cost(meta.seq);
        if pending.is_some() {
            self.health.clear_strikes(i);
        }
        let Some(pending_cost) = pending.or(fallback) else {
            let error = PipelineError::DependencyViolation {
                stream_idx: i,
                seq: meta.seq,
                detail: "pending cost unavailable (references lost)".to_string(),
            };
            self.note_fault(&error, round, true);
            return;
        };
        self.contexts.push(PacketContext {
            stream_idx: i,
            meta,
            pending_cost,
            codec: self.streams[i].codec,
            oracle_necessary: self.config.expose_oracle.then_some(self.necessity[i]),
        });
    }

    /// Record a classified fault against this core's ledger and health.
    pub(crate) fn note_fault(&mut self, error: &PipelineError, round: u64, strike: bool) {
        note_fault(
            &self.telemetry,
            &mut self.faults,
            &mut self.health,
            error,
            round,
            strike,
        );
    }

    /// Start round `round`: reset the per-round state and re-admit the
    /// streams whose quarantine cooldown expired.
    pub(crate) fn begin_round(&mut self, round: u64) {
        self.contexts.clear();
        self.decoded.fill(false);
        self.ingested = 0;
        for i in self.health.tick(round) {
            self.telemetry.stream_recovered(i);
        }
    }

    /// Run `rounds` rounds under `gate`. Each round, `feed` observes,
    /// ingests and offers every stream's packets for that round.
    pub(crate) fn run(
        &mut self,
        gate: &mut dyn GatePolicy,
        rounds: u64,
        mut feed: impl FnMut(&mut Self, u64),
    ) {
        gate.attach_telemetry(self.telemetry.clone());
        let trace = self.telemetry.trace().clone();
        let mut budget = self.budget;
        for round in 0..rounds {
            let round_span = trace.begin(TraceStage::Round, None, round, None);
            let round_id = round_span.as_ref().map(SpanToken::id);
            budget.begin_round();
            self.begin_round(round);

            let parse_timer = self.telemetry.timer();
            let parse_span = trace.begin(TraceStage::Parse, None, round, round_id);
            feed(self, round);
            let parse_us = dur_us(trace.end(parse_span, Track::Gate));
            self.telemetry
                .record(Stage::Parse, self.ingested, parse_timer);

            let gate_timer = self.telemetry.timer();
            let select_span = trace.begin(TraceStage::GateSelect, None, round, round_id);
            let selection = gate.select(round, &self.contexts, budget.per_round);
            let select_us = dur_us(trace.end(select_span, Track::Gate));
            self.telemetry
                .record(Stage::Gate, self.contexts.len() as u64, gate_timer);

            let (decode_us, infer_us) =
                self.decode_selected(&selection, round, round_id, &mut budget);
            gate.feedback(&self.events);
            self.score(round, rounds);

            // The outcome vector is only materialized for the monitor.
            let monitored = self.telemetry.insight().is_enabled();
            let outcomes: Vec<PacketOutcome> = self
                .contexts
                .iter()
                .filter(|_| monitored)
                .map(|c| PacketOutcome {
                    cost: c.pending_cost,
                    necessary: self.necessity[c.stream_idx],
                    decoded: self.decoded[c.stream_idx],
                })
                .collect();
            let outcome = RoundOutcome {
                round,
                budget: budget.per_round,
                spent: budget.spent_this_round(),
                offered: self.contexts.len(),
                decoded: self.decoded.iter().filter(|&&d| d).count(),
                quarantined: self.health.sidelined_count(),
                outcomes: &outcomes,
            };
            let parts = [
                (TraceStage::Parse, parse_us),
                (TraceStage::GateSelect, select_us),
                (TraceStage::Decode, decode_us),
                (TraceStage::Infer, infer_us),
            ];
            budget.per_round = close_round(
                &self.telemetry,
                &self.autopilot,
                gate,
                &outcome,
                round_span,
                &parts,
                None,
            );
        }
        self.budget = budget;
    }

    /// Decode the selected candidates in priority order until `budget`
    /// runs out, infer on each target frame and queue its feedback.
    /// Selection entries without a candidate this round (out of range,
    /// duplicate, or not offered) are skipped. Returns the decode and
    /// inference time spent, in µs.
    pub(crate) fn decode_selected(
        &mut self,
        selection: &[usize],
        round: u64,
        round_id: Option<SpanId>,
        budget: &mut RoundBudget,
    ) -> (u64, u64) {
        let trace = self.telemetry.trace().clone();
        let (mut decode_us, mut infer_us) = (0, 0);
        self.events.clear();
        for &idx in selection {
            let found = self.contexts.binary_search_by_key(&idx, |c| c.stream_idx);
            let Ok(k) = found else { continue };
            if self.decoded[idx] {
                continue;
            }
            if !budget.can_spend() {
                break;
            }
            let seq = self.contexts[k].meta.seq;
            let decode_timer = self.telemetry.timer();
            let decode_span = trace.begin(TraceStage::Decode, Some(idx), round, round_id);
            let frames = if self.plan.stalls_decoder(idx, round) {
                Err("decoder stalled (injected)".to_string())
            } else {
                self.streams[idx]
                    .decoder
                    .decode_closure(seq)
                    .map_err(|e| e.to_string())
            };
            let decode_done = trace.end(decode_span, Track::Gate);
            let frames = match frames {
                Ok(frames) => frames,
                Err(detail) => {
                    // References lost, or an injected stall: the closure is
                    // stranded until the next I-frame. Nothing is charged;
                    // the failure strikes the stream and is audited.
                    self.undecodable += 1;
                    let error = PipelineError::DecodeFail {
                        stream_idx: idx,
                        round,
                        detail,
                    };
                    self.note_fault(&error, round, true);
                    self.telemetry.audit(GateAuditEntry {
                        stream_idx: idx,
                        round,
                        confidence: 0.0,
                        cost: self.contexts[k].pending_cost,
                        kept: false,
                        reason: AuditReason::Undecodable,
                    });
                    continue;
                }
            };
            decode_us += dur_us(decode_done);
            self.telemetry
                .record(Stage::Decode, frames.len() as u64, decode_timer);
            let s = &mut self.streams[idx];
            // Charge the closure's frame costs summed in decode order: the
            // float sum the threaded runtime quotes for its decode job, so
            // every mode cuts the knapsack at the same point (D14).
            let costs = *s.decoder.costs();
            budget.charge(frames.iter().map(|f| costs.cost(f.frame_type)).sum());
            self.decoded[idx] = true;
            self.packets_decoded += 1;
            self.packets_backfilled += frames.len().saturating_sub(1) as u64;
            let Some(target) = frames.last() else {
                continue;
            };

            let infer_timer = self.telemetry.timer();
            let infer_span = trace.begin(
                TraceStage::Infer,
                Some(idx),
                round,
                decode_done.map(|d| d.id),
            );
            let result = infer(s.model.as_mut(), target, idx, round);
            infer_us += dur_us(trace.end(infer_span, Track::Gate));
            self.telemetry.record(Stage::Infer, 1, infer_timer);
            let result = match result {
                Ok(result) => result,
                Err(error) => {
                    self.note_fault(&error, round, true);
                    continue;
                }
            };
            s.published = Some(result);
            let necessary = s.judge.feedback(result);
            if self.plan.drops_feedback(idx, round) {
                // Injected feedback loss: reported, but no health strike —
                // the stream's data path is intact.
                let lost = PipelineError::FeedbackLost {
                    stream_idx: idx,
                    round,
                };
                self.note_fault(&lost, round, false);
                continue;
            }
            self.events.push(FeedbackEvent {
                stream_idx: idx,
                round,
                necessary,
            });
        }
        (decode_us, infer_us)
    }

    /// Score the round on both accuracy metrics.
    fn score(&mut self, round: u64, rounds: u64) {
        let segment = (round as usize * self.config.segments) / rounds.max(1) as usize;
        for (i, s) in self.streams.iter().enumerate() {
            let (decoded, necessary) = (self.decoded[i], self.necessity[i]);
            // Primary: the paper's per-packet correctness.
            self.accuracy.record(segment, decoded, necessary);
            // Secondary: published-result correctness.
            self.staleness
                .record(segment, s.published == self.truths[i], true);
            if necessary {
                self.necessary_total += 1;
                self.necessary_decoded += u64::from(decoded);
            }
        }
    }

    /// The run's report.
    pub(crate) fn report(self, gate: &dyn GatePolicy, rounds: u64) -> RoundSimReport {
        RoundSimReport {
            policy: gate.name().to_string(),
            streams: self.streams.len(),
            rounds,
            budget_per_round: self.config.budget_per_round,
            packets_total: rounds * self.streams.len() as u64,
            packets_decoded: self.packets_decoded,
            packets_backfilled: self.packets_backfilled,
            cost_spent: self.budget.total_spent(),
            accuracy: self.accuracy,
            staleness: self.staleness,
            necessary_total: self.necessary_total,
            necessary_decoded: self.necessary_decoded,
            faults: self.faults,
            health: self.health.summary(),
            telemetry: self.telemetry.snapshot(),
        }
    }
}
