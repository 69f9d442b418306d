//! The round core shared by every execution mode.
//!
//! The paper models gating as rounds (§4.1). Each round is the same loop
//! no matter where packets come from: candidates → the policy's `select`
//! → budgeted decode of each selected dependency closure (the last item
//! may overshoot — Lemma 1) → inference → redundancy feedback → scoring.
//!
//! [`GateCore`] is the gate-side half every mode owns, the threaded
//! runtime's gate stage included: the per-stream [`Decoder`]s, stream
//! health and the fault ledger, this round's candidates and decoded flags,
//! the [`RoundBudget`], and the rules that fill and spend them —
//! [`GateCore::ingest`], [`GateCore::offer`], and the budgeted walk over a
//! selection ([`GateCore::next_selected`] + [`GateCore::claim`]). A claim
//! is charged the sum of its frames' [`CostModel`] costs, so given the
//! same packets every mode reaches the same knapsack cut in every round
//! (DESIGN.md D14). Modes differ only in what happens to a claimed
//! closure: the simulators decode and infer inline, the runtime hands it
//! to its decode pool.
//!
//! [`RoundCore`] adds the simulator-only half — models, redundancy judges,
//! ground-truth necessity and scoring — and runs the loop; the live, replay
//! and networked simulators are thin packet sources that observe, ingest
//! and offer from their per-round feed. Each round is scored on two
//! accuracy metrics:
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
//! [`infer`] and [`close_round`] are shared with the runtime's inference
//! stage and round epilogue the same way.

use pg_codec::{Codec, CostModel, DecodedFrame, Decoder, Packet, PacketMeta};
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

/// The gate-side state every execution mode shares, for `m` streams. See
/// module docs.
pub(crate) struct GateCore {
    pub(crate) decoders: Vec<Decoder>,
    codecs: Vec<Codec>,
    pub(crate) health: StreamHealth,
    pub(crate) faults: Vec<FaultRecord>,
    pub(crate) telemetry: Telemetry,
    pub(crate) budget: RoundBudget,
    /// This round's candidates, in stream order (sources offer streams
    /// in ascending index, so a stream's candidate is found by bisection).
    pub(crate) contexts: Vec<PacketContext>,
    /// Per stream: its candidate's closure was claimed this round.
    pub(crate) decoded: Vec<bool>,
    /// Closures claimed (one per decoded target packet).
    pub(crate) packets_decoded: u64,
    /// Reference packets decoded along with a target.
    packets_backfilled: u64,
    /// Selected closures that could not be claimed.
    pub(crate) undecodable: u64,
    /// Packets ingested this round (the parse stage's item count).
    ingested: u64,
}

impl GateCore {
    /// Gate-side state over `streams`, each given as (decoder stream id,
    /// codec).
    pub(crate) fn new(
        streams: impl IntoIterator<Item = (u32, Codec)>,
        costs: CostModel,
        budget: RoundBudget,
        quarantine: QuarantineConfig,
    ) -> Self {
        let (decoders, codecs): (Vec<Decoder>, Vec<Codec>) = streams
            .into_iter()
            .map(|(id, codec)| (Decoder::new(id, costs), codec))
            .unzip();
        let m = decoders.len();
        GateCore {
            decoders,
            codecs,
            health: StreamHealth::new(m, quarantine),
            faults: Vec::new(),
            telemetry: Telemetry::disabled(),
            budget,
            contexts: Vec::with_capacity(m),
            decoded: vec![false; m],
            packets_decoded: 0,
            packets_backfilled: 0,
            undecodable: 0,
            ingested: 0,
        }
    }

    /// Start round `round`: reset the per-round state and re-admit the
    /// streams whose quarantine cooldown expired.
    pub(crate) fn begin_round(&mut self, round: u64) {
        self.budget.begin_round();
        self.contexts.clear();
        self.decoded.fill(false);
        self.ingested = 0;
        for i in self.health.tick(round) {
            self.telemetry.stream_recovered(i);
        }
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
        self.decoders[i].ingest(packet);
        self.ingested += 1;
    }

    /// Offer stream `i`'s packet `meta` to this round's gate. Quarantined
    /// streams offer nothing: their budget share goes to the healthy ones.
    /// A costed offer clears the stream's strikes, so a quarantine needs
    /// `strikes` consecutive faults. When the closure is unavailable
    /// (references lost) the packet is quoted at `fallback` if given, else
    /// recorded as a dependency fault.
    pub(crate) fn offer(
        &mut self,
        i: usize,
        round: u64,
        meta: PacketMeta,
        fallback: Option<f64>,
        oracle_necessary: Option<bool>,
    ) {
        debug_assert!(self.contexts.last().is_none_or(|c| c.stream_idx < i));
        if !self.health.is_active(i) {
            return;
        }
        let pending = self.decoders[i].pending_cost(meta.seq);
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
            codec: self.codecs[i],
            oracle_necessary,
        });
    }

    /// Record a classified fault: telemetry, the bounded ledger, and (when
    /// `strike`) the stream's quarantine accounting.
    pub(crate) fn note_fault(&mut self, error: &PipelineError, round: u64, strike: bool) {
        self.telemetry.fault(error.kind(), error.stream_idx());
        push_fault(&mut self.faults, error);
        if let (true, Some(i)) = (strike, error.stream_idx()) {
            if self.health.strike(i, round) {
                self.telemetry.stream_degraded(i);
            }
        }
    }

    fn candidate(&self, i: usize) -> Option<&PacketContext> {
        let k = self.contexts.binary_search_by_key(&i, |c| c.stream_idx);
        k.ok().map(|k| &self.contexts[k])
    }

    /// The next stream of `selection` to claim, in priority order. Entries
    /// without a candidate this round (out of range, not offered) and
    /// streams already claimed are skipped; the walk ends once the round
    /// budget is spent (the last claim may overshoot — Lemma 1).
    pub(crate) fn next_selected(
        &self,
        selection: &mut std::slice::Iter<'_, usize>,
    ) -> Option<usize> {
        let idx = selection.find(|&&i| self.candidate(i).is_some() && !self.decoded[i])?;
        self.budget.can_spend().then_some(*idx)
    }

    /// Claim stream `idx`'s candidate closure (`stalled`: an injected
    /// decoder stall refuses it) and charge the closure's frame costs,
    /// summed in decode order. A closure that cannot be claimed (references
    /// lost, or the stall) is stranded until the next I-frame: nothing is
    /// charged, the failure strikes the stream and is audited. Returns the
    /// closure's packets in decode order and the cost charged.
    pub(crate) fn claim(
        &mut self,
        idx: usize,
        round: u64,
        stalled: bool,
    ) -> Option<(Vec<Packet>, f64)> {
        let (seq, quoted) = self.candidate(idx).map(|c| (c.meta.seq, c.pending_cost))?;
        let claimed = if stalled {
            Err("decoder stalled (injected)".to_string())
        } else {
            self.decoders[idx]
                .claim_closure(seq)
                .map_err(|e| e.to_string())
        };
        let closure = match claimed {
            Ok(closure) => closure,
            Err(detail) => {
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
                    cost: quoted,
                    kept: false,
                    reason: AuditReason::Undecodable,
                });
                return None;
            }
        };
        let costs = self.decoders[idx].costs();
        let cost = closure.iter().map(|p| costs.cost(p.meta.frame_type)).sum();
        self.budget.charge(cost);
        self.decoded[idx] = true;
        self.packets_decoded += 1;
        self.packets_backfilled += closure.len().saturating_sub(1) as u64;
        Some((closure, cost))
    }
}

struct CoreStream {
    model: Box<dyn InferenceModel>,
    judge: RedundancyJudge,
    /// The latest inference result — what downstream applications
    /// currently see for this stream (drives the staleness metric).
    published: Option<InferenceResult>,
    /// Previous scene state (drives the paper's static necessity labels).
    prev_state: Option<SceneState>,
}

/// Everything one simulated gating round needs, for `m` streams: the
/// shared [`GateCore`] plus the simulator-only half — models, redundancy
/// judges, ground-truth necessity and scoring. See module docs.
pub(crate) struct RoundCore {
    pub(crate) gate: GateCore,
    streams: Vec<CoreStream>,
    pub(crate) config: SimConfig,
    accuracy: OnlineAccuracy,
    staleness: OnlineAccuracy,
    /// In-process fault injectors (decoder stalls, dropped feedback).
    pub(crate) plan: FaultPlan,
    pub(crate) autopilot: Autopilot,
    necessary_total: u64,
    necessary_decoded: u64,
    // Per-round state, reused round to round.
    necessity: Vec<bool>,
    truths: Vec<Option<InferenceResult>>,
    /// Feedback from the last [`RoundCore::decode_selected`] call.
    pub(crate) events: Vec<FeedbackEvent>,
}

impl RoundCore {
    /// A core over `streams`, each given as (decoder stream id, task,
    /// codec).
    pub(crate) fn new(config: SimConfig, streams: Vec<(u32, TaskKind, Codec)>) -> Self {
        let m = streams.len();
        let gate = GateCore::new(
            streams.iter().map(|&(id, _, codec)| (id, codec)),
            config.cost_model,
            RoundBudget::new(config.budget_per_round),
            QuarantineConfig::default(),
        );
        RoundCore {
            gate,
            streams: streams
                .into_iter()
                .map(|(_, task, _)| CoreStream {
                    model: model_for(task),
                    judge: RedundancyJudge::new(),
                    published: None,
                    prev_state: None,
                })
                .collect(),
            config,
            accuracy: OnlineAccuracy::with_segments(config.segments),
            staleness: OnlineAccuracy::with_segments(config.segments),
            plan: FaultPlan::default(),
            autopilot: Autopilot::disabled(),
            necessary_total: 0,
            necessary_decoded: 0,
            necessity: vec![false; m],
            truths: vec![None; m],
            events: Vec::new(),
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

    /// [`GateCore::offer`], exposing the ground-truth necessity to the
    /// gate when the config asks for the oracle.
    pub(crate) fn offer(&mut self, i: usize, round: u64, meta: PacketMeta, fallback: Option<f64>) {
        let oracle = self.config.expose_oracle.then_some(self.necessity[i]);
        self.gate.offer(i, round, meta, fallback, oracle);
    }

    /// Run `rounds` rounds under `gate`. Each round, `feed` observes,
    /// ingests and offers every stream's packets for that round.
    pub(crate) fn run(
        &mut self,
        gate: &mut dyn GatePolicy,
        rounds: u64,
        mut feed: impl FnMut(&mut Self, u64),
    ) {
        let telemetry = self.gate.telemetry.clone();
        gate.attach_telemetry(telemetry.clone());
        let trace = telemetry.trace().clone();
        for round in 0..rounds {
            let round_span = trace.begin(TraceStage::Round, None, round, None);
            let round_id = round_span.as_ref().map(SpanToken::id);
            self.gate.begin_round(round);

            let parse_timer = telemetry.timer();
            let parse_span = trace.begin(TraceStage::Parse, None, round, round_id);
            feed(self, round);
            let parse_us = dur_us(trace.end(parse_span, Track::Gate));
            telemetry.record(Stage::Parse, self.gate.ingested, parse_timer);

            let gate_timer = telemetry.timer();
            let select_span = trace.begin(TraceStage::GateSelect, None, round, round_id);
            let selection = gate.select(round, &self.gate.contexts, self.gate.budget.per_round);
            let select_us = dur_us(trace.end(select_span, Track::Gate));
            telemetry.record(Stage::Gate, self.gate.contexts.len() as u64, gate_timer);

            let (decode_us, infer_us) = self.decode_selected(&selection, round, round_id);
            gate.feedback(&self.events);
            self.score(round, rounds);

            // The outcome vector is only materialized for the monitor.
            let monitored = telemetry.insight().is_enabled();
            let outcomes: Vec<PacketOutcome> = self
                .gate
                .contexts
                .iter()
                .filter(|_| monitored)
                .map(|c| PacketOutcome {
                    cost: c.pending_cost,
                    necessary: self.necessity[c.stream_idx],
                    decoded: self.gate.decoded[c.stream_idx],
                })
                .collect();
            let outcome = RoundOutcome {
                round,
                budget: self.gate.budget.per_round,
                spent: self.gate.budget.spent_this_round(),
                offered: self.gate.contexts.len(),
                decoded: self.gate.decoded.iter().filter(|&&d| d).count(),
                quarantined: self.gate.health.sidelined_count(),
                outcomes: &outcomes,
            };
            let parts = [
                (TraceStage::Parse, parse_us),
                (TraceStage::GateSelect, select_us),
                (TraceStage::Decode, decode_us),
                (TraceStage::Infer, infer_us),
            ];
            self.gate.budget.per_round = close_round(
                &telemetry,
                &self.autopilot,
                gate,
                &outcome,
                round_span,
                &parts,
                None,
            );
        }
    }

    /// Claim the selected candidates' closures in priority order until the
    /// round budget runs out, infer on each target frame and queue its
    /// feedback. Returns the decode and inference time spent, in µs.
    pub(crate) fn decode_selected(
        &mut self,
        selection: &[usize],
        round: u64,
        round_id: Option<SpanId>,
    ) -> (u64, u64) {
        let telemetry = self.gate.telemetry.clone();
        let trace = telemetry.trace();
        let (mut decode_us, mut infer_us) = (0, 0);
        self.events.clear();
        let mut picks = selection.iter();
        while let Some(idx) = self.gate.next_selected(&mut picks) {
            let decode_timer = telemetry.timer();
            let decode_span = trace.begin(TraceStage::Decode, Some(idx), round, round_id);
            let claimed = self
                .gate
                .claim(idx, round, self.plan.stalls_decoder(idx, round));
            let decode_done = trace.end(decode_span, Track::Gate);
            let Some((closure, _)) = claimed else {
                continue;
            };
            decode_us += dur_us(decode_done);
            telemetry.record(Stage::Decode, closure.len() as u64, decode_timer);
            let Some(target) = closure.last() else {
                continue;
            };

            let s = &mut self.streams[idx];
            let infer_timer = telemetry.timer();
            let infer_span = trace.begin(
                TraceStage::Infer,
                Some(idx),
                round,
                decode_done.map(|d| d.id),
            );
            let result = infer(s.model.as_mut(), &DecodedFrame::from(target), idx, round);
            infer_us += dur_us(trace.end(infer_span, Track::Gate));
            telemetry.record(Stage::Infer, 1, infer_timer);
            let result = match result {
                Ok(result) => result,
                Err(error) => {
                    self.gate.note_fault(&error, round, true);
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
                self.gate.note_fault(&lost, round, false);
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
            let (decoded, necessary) = (self.gate.decoded[i], self.necessity[i]);
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
            packets_decoded: self.gate.packets_decoded,
            packets_backfilled: self.gate.packets_backfilled,
            cost_spent: self.gate.budget.total_spent(),
            accuracy: self.accuracy,
            staleness: self.staleness,
            necessary_total: self.necessary_total,
            necessary_decoded: self.necessary_decoded,
            health: self.gate.health.summary(),
            telemetry: self.gate.telemetry.snapshot(),
            faults: self.gate.faults,
        }
    }
}
