//! The deterministic round-based multi-stream simulator.
//!
//! One round = one packet arriving from each of `m` streams (the paper's
//! formalization, §4.1). Per round the simulator generates each stream's
//! next scene frame, encodes it, and hands the packet to the round core
//! shared by every round-based mode, which ingests it (arrival ≠ decode!),
//! gates, decodes, infers, feeds back and scores the round on both
//! accuracy metrics.

use pg_codec::{
    serialize_stream_chunks, CostModel, Encoder, EncoderConfig, Packet, PacketMeta, PacketParser,
};
use pg_scene::{generator_for, SceneGenerator, TaskKind};

use crate::autopilot::Autopilot;
use crate::fault::{FaultPlan, PipelineError, QuarantineConfig, StreamHealth};
use crate::gate::GatePolicy;
use crate::metrics::RoundSimReport;
use crate::roundcore::RoundCore;
use crate::telemetry::Telemetry;

/// Specification of one stream for the simulator.
pub struct StreamSpec {
    /// Scene content source.
    pub generator: Box<dyn SceneGenerator + Send>,
    /// Encoder configuration.
    pub encoder_config: EncoderConfig,
    /// Seed for the encoder's size noise.
    pub seed: u64,
}

impl StreamSpec {
    /// Standard stream: default generator for `task`, given encoder config.
    pub fn new(task: TaskKind, seed: u64, encoder_config: EncoderConfig) -> Self {
        let generator = generator_for(task, seed, encoder_config.fps);
        Self::with_generator(generator, seed, encoder_config)
    }

    /// Stream with a custom generator.
    pub fn with_generator(
        generator: Box<dyn SceneGenerator + Send>,
        seed: u64,
        encoder_config: EncoderConfig,
    ) -> Self {
        StreamSpec {
            generator,
            encoder_config,
            seed,
        }
    }
}

/// A bitrate regime change injected at a round boundary: each selected
/// stream's encoder is re-targeted to `bitrate_factor ×` its current
/// bitrate at the start of round `at_round`. This is the drift-recovery
/// experiment's ground truth — the simulator knows exactly when the shift
/// happened, so recovery time is measurable in rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeShift {
    /// Round at whose start the shift applies.
    pub at_round: u64,
    /// Multiplier on each encoder's configured bitrate (e.g. `1.6` for the
    /// +60% ABR ladder step used by the drift acceptance scenario).
    pub bitrate_factor: f64,
    /// Bitmask of streams the shift applies to (bit *i* selects stream
    /// *i*); `u64::MAX` shifts everyone. A partial shift is the harsher
    /// scenario: a uniform shift rescales every stream's packets together
    /// so relative rankings survive, but when only some streams move, a
    /// stale predictor misranks them *against* the healthy ones and the
    /// knapsack misallocates budget across streams.
    pub stream_mask: u64,
}

impl RegimeShift {
    /// Shift every stream at `at_round`.
    pub fn all(at_round: u64, bitrate_factor: f64) -> Self {
        RegimeShift {
            at_round,
            bitrate_factor,
            stream_mask: u64::MAX,
        }
    }

    /// Restrict the shift to the masked streams.
    pub fn with_stream_mask(mut self, mask: u64) -> Self {
        self.stream_mask = mask;
        self
    }

    /// Whether stream `i` is shifted (streams past the mask width are not).
    pub fn applies_to(&self, stream_idx: usize) -> bool {
        u32::try_from(stream_idx)
            .ok()
            .filter(|&i| i < 64)
            .is_some_and(|i| self.stream_mask & (1u64 << i) != 0)
    }
}

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Per-round decoding budget in cost units.
    pub budget_per_round: f64,
    /// Decode cost model.
    pub cost_model: CostModel,
    /// Number of time segments for accuracy reporting (paper Fig. 10 uses 24).
    pub segments: usize,
    /// Expose ground-truth necessity in [`PacketContext`] (Oracle baseline
    /// only).
    pub expose_oracle: bool,
    /// Optional mid-run bitrate regime change (drift injection).
    pub regime_shift: Option<RegimeShift>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            budget_per_round: 32.0, // the paper's running example
            cost_model: CostModel::default(),
            segments: 24,
            expose_oracle: false,
            regime_shift: None,
        }
    }
}

/// A live camera: scene generator and encoder.
pub(crate) struct LiveStream {
    pub(crate) generator: Box<dyn SceneGenerator + Send>,
    pub(crate) encoder: Encoder,
}

/// The round-based simulator: live encoders feeding the round core. See
/// module docs.
pub struct RoundSimulator {
    core: RoundCore,
    streams: Vec<LiveStream>,
}

impl RoundSimulator {
    /// Build a simulator from stream specifications.
    pub fn new(specs: Vec<StreamSpec>, config: SimConfig) -> Self {
        let (core_streams, streams) = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let core = (i as u32, spec.generator.task(), spec.encoder_config.codec);
                let encoder = Encoder::for_stream(spec.encoder_config, spec.seed, i as u32);
                let live = LiveStream {
                    generator: spec.generator,
                    encoder,
                };
                (core, live)
            })
            .unzip();
        RoundSimulator {
            core: RoundCore::new(config, core_streams),
            streams,
        }
    }

    /// Attach a drift autopilot: each round it consumes the insight pulse,
    /// drives the gate's recovery hooks, and returns the (possibly
    /// re-tuned) budget the next round runs with. A disabled handle (the
    /// default) leaves every round bit-identical to a run without one.
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.core.autopilot = autopilot;
        self
    }

    /// Inject deterministic faults: with a non-empty plan, every packet is
    /// routed through the real serializer/parser byte path so corruption
    /// exercises resynchronization exactly as in the concurrent pipeline.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.core.plan = faults;
        self
    }

    /// Override the quarantine thresholds for failing streams.
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.core.gate.health = StreamHealth::new(self.streams.len(), quarantine);
        self
    }

    /// Attach a telemetry handle: per-stage latencies/counters are recorded
    /// for every round and a snapshot rides along on the final report. The
    /// same handle is passed to the gate so telemetry-aware policies can
    /// feed the audit ring.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core.gate.telemetry = telemetry;
        self
    }

    /// Convenience: `m` homogeneous streams of `task`.
    pub fn uniform(task: TaskKind, m: usize, seed: u64, config: SimConfig) -> Self {
        let enc = EncoderConfig::new(pg_codec::Codec::H264);
        let specs = (0..m)
            .map(|i| StreamSpec::new(task, pg_scene::rng::mix(seed, i as u64), enc))
            .collect();
        Self::new(specs, config)
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Run `rounds` rounds under `gate` and report.
    pub fn run(self, gate: &mut dyn GatePolicy, rounds: u64) -> RoundSimReport {
        let RoundSimulator {
            mut core,
            mut streams,
        } = self;
        let regime_shift = core.config.regime_shift;
        // With fault injection active, packets travel the real
        // serializer → parser byte path so corruption exercises
        // resynchronization exactly as in the concurrent pipeline; a clean
        // run keeps the direct in-memory hand-off.
        let mut parsers: Option<Vec<PacketParser>> = (!core.plan.is_empty()).then(|| {
            streams
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut header =
                        serialize_stream_chunks::header_bytes(i as u32, s.encoder.config());
                    core.plan.corrupt_header(i, &mut header);
                    let mut parser = PacketParser::new();
                    parser.push_shared(bytes::Bytes::from(header));
                    parser
                })
                .collect()
        });

        core.run(gate, rounds, |core, round| {
            for (i, s) in streams.iter_mut().enumerate() {
                // Injected drift: re-target the selected encoders.
                let shift = regime_shift.filter(|r| r.at_round == round && r.applies_to(i));
                if let Some(shift) = shift {
                    let bitrate = f64::from(s.encoder.config().bitrate) * shift.bitrate_factor;
                    s.encoder.set_bitrate(bitrate as u32);
                }
                let frame = s.generator.next_frame();
                core.observe(i, frame.state);
                let packet = s.encoder.encode(&frame);
                let arrived = match &mut parsers {
                    None => {
                        let meta = packet.meta;
                        core.gate.ingest(i, round, packet);
                        Some(meta)
                    }
                    // Unrecoverable stream (destroyed header): its bytes
                    // can never be framed.
                    Some(_) if core.gate.health.is_dead(i) => None,
                    Some(ps) => parse_chunk(core, &mut ps[i], i, round, &packet),
                };
                if let Some(meta) = arrived {
                    core.offer(i, round, meta, None);
                }
            }
        });
        core.report(gate, rounds)
    }
}

/// Push `packet`'s (possibly corrupted) bytes through stream `i`'s parser
/// and ingest whatever frames out. Returns the round's packet header when
/// it survived.
fn parse_chunk(
    core: &mut RoundCore,
    parser: &mut PacketParser,
    i: usize,
    round: u64,
    packet: &Packet,
) -> Option<PacketMeta> {
    let mut bytes = serialize_stream_chunks::packet_bytes(packet);
    core.plan.corrupt_chunk(i, round, &mut bytes);
    // Freeze the corrupted chunk and hand it over zero-copy; parsed
    // payloads slice this allocation.
    parser.push_shared(bytes::Bytes::from(bytes));
    let mut this_round = None;
    loop {
        match parser.next_packet() {
            Ok(Some(p)) => {
                if p.meta.seq == packet.meta.seq {
                    this_round = Some(p.meta);
                }
                core.gate.ingest(i, round, p);
            }
            Ok(None) => return this_round,
            Err(e) => {
                let error = PipelineError::ParseCorrupt {
                    stream_idx: i,
                    offset: e.offset(),
                    reason: e.to_string(),
                };
                // A destroyed header is fatal: the stream can never be
                // identified.
                if parser.header().is_none() {
                    core.gate.note_fault(&error, round, false);
                    core.gate.health.kill(i);
                    core.gate.telemetry.stream_degraded(i);
                    return this_round;
                }
                core.gate.note_fault(&error, round, true);
                parser.resync();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::DecodeAll;
    use crate::gate::{FeedbackEvent, PacketContext};

    fn sim(m: usize, budget: f64) -> RoundSimulator {
        let config = SimConfig {
            budget_per_round: budget,
            segments: 4,
            ..SimConfig::default()
        };
        RoundSimulator::uniform(TaskKind::PersonCounting, m, 42, config)
    }

    #[test]
    fn unlimited_budget_decodes_everything() {
        let report = sim(4, 1e9).run(&mut DecodeAll, 100);
        assert_eq!(report.packets_total, 400);
        assert_eq!(report.packets_decoded, 400);
        assert_eq!(
            report.packets_backfilled, 0,
            "in-order decode needs no backfill"
        );
        assert!((report.accuracy_overall() - 1.0).abs() < 1e-9);
        assert_eq!(report.filtering_rate(), 0.0);
    }

    #[test]
    fn zero_budget_decodes_nothing() {
        let report = sim(4, 0.0).run(&mut DecodeAll, 50);
        assert_eq!(report.packets_decoded, 0);
        assert!(report.accuracy_overall() < 1.0);
        assert_eq!(report.filtering_rate(), 1.0);
    }

    #[test]
    fn budget_is_enforced_within_one_overshoot() {
        let budget = 3.0;
        let report = sim(10, budget).run(&mut DecodeAll, 200);
        let max_cost = CostModel::default().max_cost();
        // Worst-case closure at arrival time: one packet (in-order arrivals
        // have at most their own cost pending... unless skipped GOPs build
        // up closures). Allow a generous closure bound.
        let per_round = report.cost_spent / report.rounds as f64;
        assert!(
            per_round <= budget + max_cost * 4.0,
            "mean spend {per_round} far exceeds budget {budget}"
        );
        assert!(report.packets_decoded < report.packets_total);
    }

    #[test]
    fn accuracy_degrades_gracefully_with_budget() {
        let tight = sim(10, 2.0).run(&mut DecodeAll, 300);
        let loose = sim(10, 20.0).run(&mut DecodeAll, 300);
        assert!(loose.accuracy_overall() >= tight.accuracy_overall());
        assert!(loose.filtering_rate() <= tight.filtering_rate());
    }

    #[test]
    fn oracle_flag_controls_exposure() {
        struct Probe {
            saw_oracle: bool,
        }
        impl GatePolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn select(&mut self, _r: u64, c: &[PacketContext], _b: f64) -> Vec<usize> {
                self.saw_oracle |= c.iter().any(|x| x.oracle_necessary.is_some());
                vec![]
            }
            fn feedback(&mut self, _e: &[FeedbackEvent]) {}
        }

        let mut probe = Probe { saw_oracle: false };
        sim(2, 1.0).run(&mut probe, 5);
        assert!(!probe.saw_oracle);

        let mut probe = Probe { saw_oracle: false };
        let config = SimConfig {
            expose_oracle: true,
            ..SimConfig::default()
        };
        RoundSimulator::uniform(TaskKind::FireDetection, 2, 1, config).run(&mut probe, 5);
        assert!(probe.saw_oracle);
    }

    #[test]
    fn duplicate_and_out_of_range_selections_are_ignored() {
        struct Weird;
        impl GatePolicy for Weird {
            fn name(&self) -> &'static str {
                "weird"
            }
            fn select(&mut self, _r: u64, _c: &[PacketContext], _b: f64) -> Vec<usize> {
                vec![0, 0, 999, 1]
            }
            fn feedback(&mut self, _e: &[FeedbackEvent]) {}
        }
        let report = sim(3, 100.0).run(&mut Weird, 10);
        assert_eq!(report.packets_decoded, 20); // streams 0 and 1, 10 rounds
    }

    #[test]
    fn feedback_events_reach_the_gate() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct Counting(Arc<AtomicU64>);
        impl GatePolicy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn select(&mut self, _r: u64, c: &[PacketContext], _b: f64) -> Vec<usize> {
                (0..c.len()).collect()
            }
            fn feedback(&mut self, e: &[FeedbackEvent]) {
                self.0.fetch_add(e.len() as u64, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(AtomicU64::new(0));
        let mut gate = Counting(counter.clone());
        sim(3, 1e9).run(&mut gate, 20);
        assert_eq!(counter.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim(5, 8.0).run(&mut DecodeAll, 100);
        let b = sim(5, 8.0).run(&mut DecodeAll, 100);
        assert_eq!(a.packets_decoded, b.packets_decoded);
        assert!((a.accuracy_overall() - b.accuracy_overall()).abs() < 1e-12);
        assert!((a.cost_spent - b.cost_spent).abs() < 1e-9);
    }

    #[test]
    fn benign_fault_plan_reproduces_the_clean_run() {
        // A plan with no reachable corruption still activates the byte
        // path; the serializer → parser round-trip must not change any
        // aggregate vs the direct in-memory hand-off.
        let clean = sim(5, 8.0).run(&mut DecodeAll, 100);
        let plan = crate::fault::FaultPlan::new(1).with_dropped_feedback(0, 100_000);
        let routed = sim(5, 8.0).with_faults(plan).run(&mut DecodeAll, 100);
        assert_eq!(clean.packets_decoded, routed.packets_decoded);
        assert!((clean.accuracy_overall() - routed.accuracy_overall()).abs() < 1e-12);
        assert!(routed.faults.is_empty());
        assert_eq!(routed.health.degraded_events, 0);
    }

    #[test]
    fn corrupt_round_quarantines_and_recovers() {
        use crate::fault::{ChunkFaultMode, FaultPlan, QuarantineConfig};
        let plan = FaultPlan::new(9).with_corrupt(2, 10, ChunkFaultMode::Truncate);
        let report = sim(6, 1e9)
            .with_faults(plan)
            .with_quarantine(QuarantineConfig::new(8, 1))
            .run(&mut DecodeAll, 120);
        assert!(!report.faults.is_empty(), "damage must be reported");
        assert_eq!(report.health.streams_ever_quarantined, 1);
        assert!(report.health.recovered_events >= 1, "cooldown must expire");
        assert_eq!(report.health.dead_streams, 0);
        assert!(report.packets_decoded < report.packets_total);
        assert!(report.faults.iter().all(|f| f.stream_idx == Some(2)));
    }

    #[test]
    fn destroyed_header_kills_one_stream_only() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::new(4).with_corrupt_header(1);
        let report = sim(4, 1e9).with_faults(plan).run(&mut DecodeAll, 50);
        assert_eq!(report.health.dead_streams, 1);
        // The other three streams decode every round.
        assert_eq!(report.packets_decoded, 150);
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "parse_corrupt" && f.stream_idx == Some(1)));
    }

    #[test]
    fn injected_stall_and_feedback_loss_are_classified() {
        use crate::fault::{FaultPlan, QuarantineConfig};
        let plan = FaultPlan::new(2)
            .with_decoder_stall(0, 5)
            .with_dropped_feedback(1, 7);
        let report = sim(3, 1e9)
            .with_faults(plan)
            .with_quarantine(QuarantineConfig::new(4, 1))
            .run(&mut DecodeAll, 40);
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "decode_fail" && f.stream_idx == Some(0)));
        assert!(report
            .faults
            .iter()
            .any(|f| f.kind == "feedback_lost" && f.stream_idx == Some(1)));
        // Feedback loss must not quarantine.
        assert_eq!(report.health.streams_ever_quarantined, 1);
    }

    #[test]
    fn mixed_tasks_simulate() {
        let enc = EncoderConfig::new(pg_codec::Codec::H265);
        let specs: Vec<StreamSpec> = TaskKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &t)| StreamSpec::new(t, i as u64, enc))
            .collect();
        let report = RoundSimulator::new(specs, SimConfig::default()).run(&mut DecodeAll, 50);
        assert_eq!(report.streams, 4);
        assert_eq!(report.packets_total, 200);
    }
}
