//! Reference-tracking, cost-accounting video decoder.
//!
//! The decoder enforces the GOP invariant that makes packet gating
//! meaningful: a predicted packet **cannot** be decoded unless its
//! references are decoded. Skipped packets are retained (cheaply) so a
//! later decision can still decode them as part of a dependency closure —
//! the "decode maximal packets that the prioritized packet refers to" step
//! of the paper's Algorithm 1 (line 13).

use std::collections::BTreeMap;

use pg_scene::SceneFrame;

use crate::cost::CostModel;
use crate::deps::DependencyTracker;
use crate::error::CodecError;
use crate::frame::FrameType;
use crate::packet::{Packet, PacketMeta};

/// A decoded RGB frame (represented by the scene ground truth the packet
/// carried): what [`Decoder::decode`] returns, or what a packet of a
/// closure claimed with [`Decoder::claim_closure`] decodes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedFrame {
    /// Stream the frame belongs to.
    pub stream_id: u32,
    /// Decode-order sequence number.
    pub seq: u64,
    /// Presentation timestamp.
    pub pts: u64,
    /// Picture type the frame was encoded as.
    pub frame_type: FrameType,
    /// The frame content.
    pub scene: SceneFrame,
}

impl From<&Packet> for DecodedFrame {
    /// The frame a packet decodes to. Only sound once the packet's
    /// references are decoded, which [`Decoder`] enforces.
    fn from(packet: &Packet) -> Self {
        DecodedFrame {
            stream_id: packet.meta.stream_id,
            seq: packet.meta.seq,
            pts: packet.meta.pts,
            frame_type: packet.meta.frame_type,
            scene: packet.scene,
        }
    }
}

/// Cumulative decoder statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecoderStats {
    /// Frames decoded, by picture type (I, P, B).
    pub decoded_i: u64,
    /// Count of decoded P frames.
    pub decoded_p: u64,
    /// Count of decoded B frames.
    pub decoded_b: u64,
    /// Total decode cost spent, in [`CostModel`] units.
    pub cost_spent: f64,
    /// Packets ingested (arrived), decoded or not.
    pub ingested: u64,
}

impl DecoderStats {
    /// Total frames decoded.
    pub fn decoded_total(&self) -> u64 {
        self.decoded_i + self.decoded_p + self.decoded_b
    }
}

/// Per-stream stateful decoder. See module docs.
#[derive(Debug, Clone)]
pub struct Decoder {
    stream_id: u32,
    costs: CostModel,
    tracker: DependencyTracker,
    /// Arrived packets that may still be needed (pruned with the tracker's
    /// GOP horizon).
    store: BTreeMap<u64, Packet>,
    stats: DecoderStats,
}

impl Decoder {
    /// Decoder for one stream with the given cost model.
    pub fn new(stream_id: u32, costs: CostModel) -> Self {
        Decoder {
            stream_id,
            costs,
            tracker: DependencyTracker::new(),
            store: BTreeMap::new(),
            stats: DecoderStats::default(),
        }
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Access the dependency tracker (read-only), e.g. for cost queries.
    pub fn tracker(&self) -> &DependencyTracker {
        &self.tracker
    }

    /// Register an arrived packet without decoding it. Must be called for
    /// every packet of the stream, in decode order, whether or not it will
    /// be decoded — this is the parser→gate hand-off. The packet's own
    /// `stream_id` is wire data and is not checked against the decoder's.
    pub fn ingest(&mut self, packet: Packet) {
        self.tracker.note_arrival(&packet);
        self.stats.ingested += 1;
        let gop = packet.meta.gop_id;
        let new_gop = self
            .store
            .values()
            .next_back()
            .map(|p| p.meta.gop_id < gop)
            .unwrap_or(false);
        self.store.insert(packet.meta.seq, packet);
        if new_gop {
            // Prune the store in lock-step with the tracker: keep the
            // current and previous GOP only.
            let horizon = gop.saturating_sub(1);
            self.store.retain(|_, p| p.meta.gop_id >= horizon);
        }
    }

    /// Metadata of the stored packet `seq`, if it arrived and is still
    /// retained.
    pub fn meta(&self, seq: u64) -> Option<PacketMeta> {
        self.store.get(&seq).map(|p| p.meta)
    }

    /// The *pending cost* of decoding packet `seq` right now, i.e. the cost
    /// of its undecoded dependency closure including itself (Fig. 6).
    pub fn pending_cost(&self, seq: u64) -> Option<f64> {
        self.tracker.pending_cost(seq, &self.costs)
    }

    /// Decode exactly one packet. Fails with
    /// [`CodecError::MissingReference`] if any direct reference is not yet
    /// decoded, and [`CodecError::UnknownPacket`] if the packet was never
    /// ingested. Decoding an already-decoded packet is idempotent and free.
    pub fn decode(&mut self, seq: u64) -> Result<DecodedFrame, CodecError> {
        let packet = self.store.get(&seq).ok_or(CodecError::UnknownPacket {
            stream_id: self.stream_id,
            seq,
        })?;
        if !self.tracker.is_decoded(seq) {
            if let Some(&missing) = packet.refs.iter().find(|&&r| !self.tracker.is_decoded(r)) {
                return Err(CodecError::MissingReference {
                    stream_id: self.stream_id,
                    seq,
                    missing,
                });
            }
        }
        let frame = DecodedFrame::from(packet);
        let meta = packet.meta;
        self.mark_decoded(&meta);
        Ok(frame)
    }

    /// Claim `seq`'s pending dependency closure: mark every packet of it
    /// decoded, charge the newly decoded ones to the stats, and return the
    /// packets in decode order (references first, `seq` last). This one
    /// closure walk serves both inline decoding
    /// ([`Decoder::decode_closure`]) and handing the closure to a decode
    /// worker. Nothing is marked when any packet of the closure is
    /// unavailable ([`CodecError::UnknownPacket`]).
    pub fn claim_closure(&mut self, seq: u64) -> Result<Vec<Packet>, CodecError> {
        let stream_id = self.stream_id;
        let unknown = |seq| CodecError::UnknownPacket { stream_id, seq };
        let closure = self.tracker.pending_closure(seq).ok_or(unknown(seq))?;
        let packets = closure
            .iter()
            .map(|s| self.store.get(s).cloned().ok_or(unknown(*s)))
            .collect::<Result<Vec<Packet>, CodecError>>()?;
        for p in &packets {
            self.mark_decoded(&p.meta);
        }
        Ok(packets)
    }

    /// Decode `seq` together with its whole undecoded dependency closure,
    /// in decode order. Returns the decoded frames (references first) and
    /// charges the full closure cost. This is Algorithm 1's reference
    /// completion step.
    pub fn decode_closure(&mut self, seq: u64) -> Result<Vec<DecodedFrame>, CodecError> {
        let packets = self.claim_closure(seq)?;
        Ok(packets.iter().map(DecodedFrame::from).collect())
    }

    /// Mark a packet decoded and charge it, unless it already was.
    fn mark_decoded(&mut self, meta: &PacketMeta) {
        if self.tracker.is_decoded(meta.seq) {
            return;
        }
        self.tracker.mark_decoded(meta.seq);
        self.stats.cost_spent += self.costs.cost(meta.frame_type);
        match meta.frame_type {
            FrameType::I => self.stats.decoded_i += 1,
            FrameType::P => self.stats.decoded_p += 1,
            FrameType::B => self.stats.decoded_b += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Codec, EncoderConfig};
    use crate::encoder::Encoder;
    use pg_scene::{PersonSceneGen, SceneGenerator};

    fn stream(gop: u32, b: u32, n: usize) -> (Decoder, Vec<Packet>) {
        let config = EncoderConfig::new(Codec::H264)
            .with_gop(gop)
            .with_b_frames(b);
        let mut enc = Encoder::new(config, 13);
        let mut scene = PersonSceneGen::new(13, 25.0);
        let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
        let mut dec = Decoder::new(0, CostModel::default());
        for p in &packets {
            dec.ingest(p.clone());
        }
        (dec, packets)
    }

    #[test]
    fn decode_in_order_succeeds() {
        let (mut dec, packets) = stream(9, 2, 9);
        for p in &packets {
            let f = dec.decode(p.meta.seq).expect("in-order decode");
            assert_eq!(f.seq, p.meta.seq);
            assert_eq!(f.scene, p.scene);
        }
        assert_eq!(dec.stats().decoded_total(), 9);
    }

    #[test]
    fn decode_b_without_refs_fails() {
        let (mut dec, _) = stream(9, 2, 9);
        // seq 2 is a B referencing I0 and P1.
        let err = dec.decode(2).unwrap_err();
        assert!(matches!(
            err,
            CodecError::MissingReference { missing: 0, .. }
        ));
    }

    #[test]
    fn decode_closure_charges_full_cost() {
        let (mut dec, _) = stream(9, 2, 9);
        let frames = dec.decode_closure(2).expect("closure decode");
        assert_eq!(frames.len(), 3); // I0, P1, B2
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[2].seq, 2);
        let costs = CostModel::default();
        let expected = costs.c_i + costs.c_p + costs.c_b;
        assert!((dec.stats().cost_spent - expected).abs() < 1e-9);
    }

    #[test]
    fn redecoding_is_free() {
        let (mut dec, _) = stream(9, 2, 9);
        dec.decode(0).unwrap();
        let cost1 = dec.stats().cost_spent;
        dec.decode(0).unwrap();
        assert_eq!(dec.stats().cost_spent, cost1);
        assert_eq!(dec.stats().decoded_i, 1);
    }

    #[test]
    fn pending_cost_shrinks_after_decoding_refs() {
        let (mut dec, _) = stream(9, 2, 9);
        let before = dec.pending_cost(2).unwrap();
        dec.decode(0).unwrap();
        dec.decode(1).unwrap();
        let after = dec.pending_cost(2).unwrap();
        assert!(after < before);
        assert!((after - 1.0).abs() < 1e-9); // just the B itself
    }

    #[test]
    fn unknown_packet_is_an_error() {
        let (mut dec, _) = stream(9, 2, 9);
        assert!(matches!(
            dec.decode(1000),
            Err(CodecError::UnknownPacket { seq: 1000, .. })
        ));
        assert!(dec.decode_closure(1000).is_err());
    }

    #[test]
    fn skipping_gops_then_decoding_new_i_works() {
        let (mut dec, packets) = stream(5, 0, 20);
        // Skip GOPs 0-2 entirely; decode GOP 3's I (seq 15).
        let seq = packets[15].meta.seq;
        assert_eq!(packets[15].meta.frame_type, FrameType::I);
        let frames = dec.decode_closure(seq).unwrap();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn store_is_pruned() {
        let (dec, _) = stream(10, 2, 1000);
        assert!(dec.tracker().tracked() <= 20);
    }

    #[test]
    fn stats_count_by_type() {
        let (mut dec, packets) = stream(9, 2, 9);
        for p in &packets {
            dec.decode(p.meta.seq).unwrap();
        }
        let s = dec.stats();
        assert_eq!(s.decoded_i, 1);
        assert_eq!(s.decoded_p, 4); // P1 P4 P7 P8
        assert_eq!(s.decoded_b, 4); // B2 B3 B5 B6
        assert_eq!(s.ingested, 9);
    }
}
