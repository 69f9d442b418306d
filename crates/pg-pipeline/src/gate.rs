//! The packet-gate plug-in interface.
//!
//! PacketGame "serves as a plug-in between the packet parser and decoder in
//! the video inference pipeline" (paper Fig. 5). A [`GatePolicy`] sees, for
//! every stream at every round, the parsed packet *metadata* plus the
//! pending decode cost implied by GOP dependencies, and must choose which
//! streams' packets to decode under the round budget. Redundancy feedback
//! for decoded packets is delivered after inference.

use pg_codec::{Codec, PacketMeta};

use crate::autopilot::Decision;
use crate::telemetry::Telemetry;

/// Gate-visible information about one stream's packet at the current round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketContext {
    /// Index of the stream within this round's candidate list (stable
    /// across rounds: candidates are always ordered by stream).
    pub stream_idx: usize,
    /// Parsed packet metadata (size, picture type, ...).
    pub meta: PacketMeta,
    /// Cost of decoding this packet *including* its undecoded dependency
    /// closure (paper Fig. 6), in [`pg_codec::CostModel`] units.
    pub pending_cost: f64,
    /// Codec of this stream (from the stream header).
    pub codec: Codec,
    /// Ground-truth necessity of this packet. **Only the Oracle baseline
    /// may read this**; it is `None` unless the simulator was built with
    /// oracle exposure enabled. Real policies must ignore it.
    pub oracle_necessary: Option<bool>,
}

/// Redundancy feedback for one decoded packet (paper §4.1: the Bernoulli
/// reward `r_{t,i}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackEvent {
    /// Stream the feedback belongs to.
    pub stream_idx: usize,
    /// Round whose packet was decoded.
    pub round: u64,
    /// `true` = the inference was necessary (reward 1).
    pub necessary: bool,
}

/// A multi-stream packet gating policy.
pub trait GatePolicy: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Choose which candidate packets to decode this round.
    ///
    /// `candidates` holds at most one entry per stream, ordered by stream.
    /// With a lossy transport or quarantined streams it is a **subset** of
    /// streams, so returned values are the candidates' `stream_idx` fields
    /// (not positions in the slice). They are processed **in order** until
    /// `budget` cost units are exhausted — order is the policy's priority.
    /// The simulator allows the final selection to overshoot the budget by
    /// at most one packet closure (the paper's approximately-fractional
    /// assumption, Lemma 1).
    fn select(&mut self, round: u64, candidates: &[PacketContext], budget: f64) -> Vec<usize>;

    /// Receive redundancy feedback for packets decoded earlier. Called once
    /// per round, after inference, with one event per decoded stream.
    fn feedback(&mut self, events: &[FeedbackEvent]);

    /// Hand the policy a [`Telemetry`] handle so it can record per-packet
    /// gate decisions in the audit ring. Simulators call this once before
    /// the first round. The default is a no-op: policies that do not score
    /// candidates simply leave the audit ring to the pipeline's counters.
    fn attach_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Carry out one step of the drift autopilot's recovery ladder for a
    /// stream (see [`Decision`]). Returns `true` if the policy honoured
    /// it. Default: the policy has no predictor to bypass, no estimator to
    /// reset and nothing to retrain, so nothing happens.
    fn autopilot_command(&mut self, _command: Decision) -> bool {
        false
    }

    /// Cluster migration: serialize stream `stream_idx`'s per-stream
    /// policy state into an opaque blob a peer instance of the same policy
    /// can import. The blob travels in a pg-net MIGRATE frame; this layer
    /// never interprets it. `None` means the policy keeps no per-stream
    /// state (e.g. [`DecodeAll`]) and the stream can be handed off with no
    /// payload at all.
    fn export_stream_state(&self, _stream_idx: usize) -> Option<Vec<u8>> {
        None
    }

    /// Cluster migration: import a peer's exported stream state, replacing
    /// whatever this instance holds for that stream. Returns `true` if the
    /// blob was understood and applied. Default: stateless policy, nothing
    /// to restore — the handoff still succeeds, there is just no state.
    fn import_stream_state(&mut self, _state: &[u8]) -> bool {
        false
    }
}

/// A trivial gate that selects every stream (the "Original" workload:
/// decode everything). Useful as a no-gating reference and in tests.
#[derive(Debug, Default, Clone)]
pub struct DecodeAll;

impl GatePolicy for DecodeAll {
    fn name(&self) -> &'static str {
        "DecodeAll"
    }

    fn select(&mut self, _round: u64, candidates: &[PacketContext], _budget: f64) -> Vec<usize> {
        candidates.iter().map(|c| c.stream_idx).collect()
    }

    fn feedback(&mut self, _events: &[FeedbackEvent]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_codec::FrameType;

    fn ctx(stream_idx: usize) -> PacketContext {
        PacketContext {
            stream_idx,
            meta: PacketMeta {
                stream_id: stream_idx as u32,
                seq: 0,
                pts: 0,
                frame_type: FrameType::I,
                size: 1000,
                gop_id: 0,
            },
            pending_cost: 1.0,
            codec: Codec::H264,
            oracle_necessary: None,
        }
    }

    #[test]
    fn decode_all_selects_everything() {
        let mut gate = DecodeAll;
        let candidates: Vec<PacketContext> = (0..5).map(ctx).collect();
        assert_eq!(gate.select(0, &candidates, 10.0), vec![0, 1, 2, 3, 4]);
        gate.feedback(&[]); // must not panic
        assert_eq!(gate.name(), "DecodeAll");
    }

    #[test]
    fn autopilot_hooks_default_to_unhonoured_noops() {
        let mut gate = DecodeAll;
        assert!(!gate.autopilot_command(Decision::Fallback(0)));
        assert!(!gate.autopilot_command(Decision::ResetEstimator(0)));
        assert!(!gate.autopilot_command(Decision::Retrain(0)));
    }

    #[test]
    fn decode_all_returns_stream_indices_on_sparse_candidates() {
        // With quarantined/lossy streams the candidate list is a subset;
        // selections must name streams, not slice positions.
        let mut gate = DecodeAll;
        let candidates = vec![ctx(1), ctx(4)];
        assert_eq!(gate.select(0, &candidates, 10.0), vec![1, 4]);
    }
}
