//! Gating pre-encoded (offline) streams — the paper's design goal 3.
//!
//! "Offline stored videos have been encoded with a certain video codec. An
//! ideal packet gating solution should be codec-agnostic and require no
//! additional transcoding overhead" (§2.4). This simulator replays
//! already-encoded packet sequences (e.g. parsed from `.pgv` files by
//! [`pg_codec::parse_stream`]) through the same gate → decode → infer →
//! feedback loop as the live round simulator. No re-encoding happens; the
//! gate sees exactly the stored packets.

use pg_codec::Packet;

use crate::autopilot::Autopilot;
use crate::gate::GatePolicy;
use crate::metrics::RoundSimReport;
use crate::round::SimConfig;
use crate::roundcore::RoundCore;
use crate::telemetry::Telemetry;

/// Replays pre-encoded packet sequences under a gate. See module docs.
pub struct ReplaySimulator {
    core: RoundCore,
    /// Each stream's packets, in decode order.
    packets: Vec<Vec<Packet>>,
}

impl ReplaySimulator {
    /// Build from per-stream packet sequences (one `Vec<Packet>` per
    /// stream, in decode order) and the codec each was encoded with. Each
    /// stream's model serves the task of its first packet; a later packet
    /// of another task is that stream's fault, not the run's.
    ///
    /// Panics if any stream is empty.
    pub fn new(streams: Vec<(pg_codec::Codec, Vec<Packet>)>, config: SimConfig) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        let (core_streams, packets) = streams
            .into_iter()
            .enumerate()
            .map(|(i, (codec, packets))| {
                assert!(!packets.is_empty(), "stream {i} is empty");
                ((i as u32, packets[0].scene.state.task(), codec), packets)
            })
            .unzip();
        ReplaySimulator {
            core: RoundCore::new(config, core_streams),
            packets,
        }
    }

    /// Attach a telemetry handle (see
    /// [`RoundSimulator::with_telemetry`](crate::round::RoundSimulator::with_telemetry)).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core.gate.telemetry = telemetry;
        self
    }

    /// Attach an autopilot handle (see
    /// [`RoundSimulator::with_autopilot`](crate::round::RoundSimulator::with_autopilot)).
    /// Replays gate stored packets, so regime shifts live in the recording;
    /// the autopilot still recovers the gate when it detects them.
    pub fn with_autopilot(mut self, autopilot: Autopilot) -> Self {
        self.core.autopilot = autopilot;
        self
    }

    /// Rounds available: the shortest stream's length.
    pub fn rounds_available(&self) -> u64 {
        self.packets
            .iter()
            .map(|p| p.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Replay up to `max_rounds` rounds (clamped to the shortest stream).
    pub fn run(mut self, gate: &mut dyn GatePolicy, max_rounds: u64) -> RoundSimReport {
        let rounds = self.rounds_available().min(max_rounds);
        let packets = &self.packets;
        self.core.run(gate, rounds, |core, round| {
            for (i, stream) in packets.iter().enumerate() {
                // Re-stamp the stream id so multi-file replays don't clash.
                let mut packet = stream[round as usize].clone();
                packet.meta.stream_id = i as u32;
                core.observe(i, packet.scene.state);
                let meta = packet.meta;
                core.gate.ingest(i, round, packet);
                // A damaged file can repeat or reorder sequence numbers;
                // such packets are stranded (a dependency fault), not fatal.
                core.offer(i, round, meta, None);
            }
        });
        self.core.report(gate, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::DecodeAll;
    use crate::round::{RoundSimulator, StreamSpec};
    use pg_codec::{Codec, CostModel, Encoder, EncoderConfig};
    use pg_scene::{generator_for, TaskKind};

    fn recorded_streams(m: usize, frames: usize) -> Vec<(Codec, Vec<Packet>)> {
        (0..m)
            .map(|i| {
                let enc = EncoderConfig::new(Codec::H264);
                let mut gen = generator_for(TaskKind::FireDetection, i as u64, enc.fps);
                let mut encoder = Encoder::for_stream(enc, i as u64, i as u32);
                let packets = (0..frames)
                    .map(|_| encoder.encode(&gen.next_frame()))
                    .collect();
                (Codec::H264, packets)
            })
            .collect()
    }

    #[test]
    fn replay_matches_live_simulation_exactly() {
        // Replaying the exact packets the live simulator would generate
        // (same seeds) must produce identical reports.
        let config = SimConfig {
            budget_per_round: 3.0,
            segments: 4,
            ..SimConfig::default()
        };
        let m = 6;
        let rounds = 200u64;

        let live_specs: Vec<StreamSpec> = (0..m)
            .map(|i| {
                StreamSpec::new(
                    TaskKind::FireDetection,
                    i as u64,
                    EncoderConfig::new(Codec::H264),
                )
            })
            .collect();
        // StreamSpec seeds the generator directly with i (not mixed), and
        // the encoder with (seed, stream_id) — replicate exactly.
        let recorded: Vec<(Codec, Vec<Packet>)> = (0..m)
            .map(|i| {
                let enc = EncoderConfig::new(Codec::H264);
                let mut gen = generator_for(TaskKind::FireDetection, i as u64, enc.fps);
                let mut encoder = Encoder::for_stream(enc, i as u64, i as u32);
                let packets = (0..rounds)
                    .map(|_| encoder.encode(&gen.next_frame()))
                    .collect();
                (Codec::H264, packets)
            })
            .collect();

        let live = RoundSimulator::new(live_specs, config).run(&mut DecodeAll, rounds);
        let replay = ReplaySimulator::new(recorded, config).run(&mut DecodeAll, rounds);
        assert_eq!(live.packets_decoded, replay.packets_decoded);
        assert!((live.cost_spent - replay.cost_spent).abs() < 1e-9);
        assert!((live.accuracy_overall() - replay.accuracy_overall()).abs() < 1e-12);
    }

    #[test]
    fn replay_clamps_to_shortest_stream() {
        let mut streams = recorded_streams(3, 100);
        streams[1].1.truncate(40);
        let sim = ReplaySimulator::new(streams, SimConfig::default());
        assert_eq!(sim.rounds_available(), 40);
        let report = sim.run(&mut DecodeAll, 1000);
        assert_eq!(report.rounds, 40);
    }

    #[test]
    fn replay_respects_budget() {
        let report = ReplaySimulator::new(
            recorded_streams(8, 150),
            SimConfig {
                budget_per_round: 2.0,
                segments: 4,
                ..SimConfig::default()
            },
        )
        .run(&mut DecodeAll, 150);
        assert!(report.filtering_rate() > 0.5);
        assert!(report.mean_cost_per_round() < 2.0 + CostModel::default().max_cost() * 4.0);
    }

    #[test]
    fn a_recording_that_switches_task_faults_only_its_stream() {
        // Stream 1 opens with a fire frame, so its model detects fire; the
        // person-counting frames after it are the stream's fault, never a
        // panic of the run.
        let mut streams = recorded_streams(3, 60);
        let enc = EncoderConfig::new(Codec::H264);
        let mut gen = generator_for(TaskKind::PersonCounting, 1, enc.fps);
        let mut encoder = Encoder::for_stream(enc, 1, 1);
        let mut packets: Vec<Packet> = (0..60).map(|_| encoder.encode(&gen.next_frame())).collect();
        packets[0].scene.state = pg_scene::SceneState::Fire(false);
        streams[1].1 = packets;
        let config = SimConfig {
            budget_per_round: 1e9,
            ..SimConfig::default()
        };
        let report = ReplaySimulator::new(streams, config).run(&mut DecodeAll, 60);
        assert!(!report.faults.is_empty(), "the mismatch must be reported");
        assert!(report
            .faults
            .iter()
            .all(|f| f.kind == "decode_fail" && f.stream_idx == Some(1)));
        assert_eq!(report.health.streams_ever_quarantined, 1);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_input_panics() {
        let _ = ReplaySimulator::new(vec![], SimConfig::default());
    }
}
