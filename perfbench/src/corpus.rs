//! The pre-encoded chunk corpus a workload replays, with its ground truth.
//!
//! Each stream is generated exactly as the runtime's in-process producer
//! would generate it (scene generator → encoder → chunk serialization), so
//! the replayed bytes are the producer's traffic; the corpus additionally
//! keeps every frame's scene state, from which the paper's per-packet
//! necessity labels follow.
//!
//! The scene generators' virtual day starts at midnight, so a stream's
//! first hundred frames are night traffic. A corpus may therefore start
//! later in the day: each stream's scene first runs `scene_offset` frames
//! that are never encoded, and the stream then starts there — header,
//! I-frame at sequence 0 — as a camera that connects at that hour would.

use bytes::Bytes;
use pg_codec::{serialize_stream_chunks, Encoder, EncoderConfig};
use pg_inference::redundancy::necessity_labels_for;
use pg_scene::anomaly::AnomalySceneConfig;
use pg_scene::diurnal::DiurnalProfile;
use pg_scene::person::PersonSceneConfig;
use pg_scene::{generator_for, TaskKind};

/// Every chunk of one workload, ready to replay, plus its ground truth.
pub struct Corpus {
    /// Task the scenes were generated for.
    pub task: TaskKind,
    /// Encoder configuration shared by all streams.
    pub encoder: EncoderConfig,
    /// Number of streams.
    pub streams: usize,
    /// Scene frames each stream ran before its first packet.
    pub scene_offset: u64,
    /// Packets per stream.
    pub rounds: u64,
    /// Header chunk of each stream.
    pub headers: Vec<Bytes>,
    /// `chunks[round][stream]`: one packet record per stream per round.
    pub chunks: Vec<Vec<Bytes>>,
    /// `necessary[stream][round]`: whether inference on that packet
    /// changes the result (paper §4.1 reward).
    pub necessary: Vec<Vec<bool>>,
    /// Total bytes held (headers and records).
    pub bytes: u64,
}

impl Corpus {
    /// Generate `streams × rounds` chunks for `task` from `seed`, each
    /// stream starting `scene_offset` frames into its scene.
    pub fn generate(
        task: TaskKind,
        encoder: EncoderConfig,
        seed: u64,
        streams: usize,
        scene_offset: u64,
        rounds: u64,
    ) -> Corpus {
        let mut headers = Vec::with_capacity(streams);
        let mut chunks: Vec<Vec<Bytes>> =
            (0..rounds).map(|_| Vec::with_capacity(streams)).collect();
        let mut necessary = Vec::with_capacity(streams);
        let mut bytes = 0u64;
        let mut states = Vec::with_capacity(rounds as usize);
        for i in 0..streams {
            let mut scenes = generator_for(task, pg_scene::rng::mix(seed, i as u64), encoder.fps);
            for _ in 0..scene_offset {
                scenes.next_frame();
            }
            let mut enc = Encoder::for_stream(encoder, seed, i as u32);
            let header = serialize_stream_chunks::header_bytes(i as u32, &encoder);
            bytes += header.len() as u64;
            headers.push(Bytes::from(header));
            states.clear();
            for round_chunks in chunks.iter_mut() {
                let frame = scenes.next_frame();
                let chunk = serialize_stream_chunks::packet_bytes(&enc.encode(&frame));
                bytes += chunk.len() as u64;
                round_chunks.push(Bytes::from(chunk));
                states.push(frame.state);
            }
            necessary.push(necessity_labels_for(task, &states));
        }
        Corpus {
            task,
            encoder,
            streams,
            scene_offset,
            rounds,
            headers,
            chunks,
            necessary,
            bytes,
        }
    }

    /// Stream-rounds in one replay of the corpus.
    pub fn stream_rounds(&self) -> u64 {
        self.streams as u64 * self.rounds
    }

    /// Share of stream-rounds whose inference is necessary by ground truth.
    /// A gate that decodes nothing scores `1 -` this as accuracy.
    pub fn necessary_share(&self) -> f64 {
        let necessary = self.necessary.iter().flatten().filter(|&&n| n).count();
        necessary as f64 / self.stream_rounds() as f64
    }

    /// The virtual hours of day the corpus spans and the mean diurnal
    /// activity (peak = 1) over them, for the tasks whose scenes follow the
    /// default campus profile.
    pub fn daytime(&self) -> Option<(f64, f64, f64)> {
        let (profile, speedup, start_hour) = match self.task {
            TaskKind::AnomalyDetection => {
                let c = AnomalySceneConfig::default();
                (c.profile, c.speedup, c.start_hour)
            }
            TaskKind::PersonCounting => {
                let c = PersonSceneConfig::default();
                (c.profile, c.speedup, c.start_hour)
            }
            _ => return None,
        };
        let hour = |frame: u64| {
            (start_hour + DiurnalProfile::hour_of_frame(frame, self.encoder.fps, speedup))
                .rem_euclid(24.0)
        };
        let frames = self.scene_offset..self.scene_offset + self.rounds;
        let activity = frames
            .clone()
            .map(|f| profile.activity(hour(f)))
            .sum::<f64>()
            / self.rounds as f64;
        Some((hour(frames.start), hour(frames.end), activity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_codec::Codec;
    use pg_pipeline::{FaultPlan, StreamFeed};

    fn assert_matches_producer(task: TaskKind, encoder: EncoderConfig, seed: u64) {
        let corpus = Corpus::generate(task, encoder, seed, 3, 0, 60);
        let clean = FaultPlan::default();
        for i in 0..corpus.streams {
            let mut feed = StreamFeed::new(task, encoder, seed, i);
            assert_eq!(&corpus.headers[i][..], &feed.header_chunk(&clean)[..]);
            for round in 0..corpus.rounds {
                let expected = feed.next_chunk(round, &clean);
                assert_eq!(
                    &corpus.chunks[round as usize][i][..],
                    &expected[..],
                    "stream {i} round {round}"
                );
            }
            assert_eq!(corpus.necessary[i].len(), corpus.rounds as usize);
        }
    }

    #[test]
    fn corpus_is_the_in_process_producers_traffic() {
        let hd = EncoderConfig::new(Codec::H264)
            .with_resolution(1280, 720)
            .with_bitrate(1_000_000);
        assert_matches_producer(TaskKind::AnomalyDetection, hd, 7);
        assert_matches_producer(TaskKind::PersonCounting, EncoderConfig::new(Codec::H264), 7);
        assert_matches_producer(TaskKind::SuperResolution, hd, 11);
    }

    #[test]
    fn another_seed_gives_other_bytes() {
        let enc = EncoderConfig::new(Codec::H264);
        let a = Corpus::generate(TaskKind::PersonCounting, enc, 1, 2, 525, 40);
        let b = Corpus::generate(TaskKind::PersonCounting, enc, 2, 2, 525, 40);
        let same = a
            .chunks
            .iter()
            .flatten()
            .zip(b.chunks.iter().flatten())
            .all(|(x, y)| x == y);
        assert!(!same, "seeds 1 and 2 produced identical records");
        let again = Corpus::generate(TaskKind::PersonCounting, enc, 1, 2, 525, 40);
        assert!(a.chunks == again.chunks && a.necessary == again.necessary);
    }

    #[test]
    fn a_later_start_replays_the_producers_scenes_from_there() {
        let enc = EncoderConfig::new(Codec::H264);
        let (task, seed, offset) = (TaskKind::AnomalyDetection, 5, 500);
        let corpus = Corpus::generate(task, enc, seed, 2, offset, 30);
        let from_midnight = Corpus::generate(task, enc, seed, 2, 0, 30);
        for i in 0..corpus.streams {
            let mut scenes = generator_for(task, pg_scene::rng::mix(seed, i as u64), enc.fps);
            let states: Vec<_> = (0..offset + 30)
                .map(|_| scenes.next_frame().state)
                .skip(offset as usize)
                .collect();
            assert_eq!(corpus.necessary[i], necessity_labels_for(task, &states));
            // The stream itself starts over: the same header, then packets
            // from sequence 0 and an I-frame, carrying the later scenes.
            assert_eq!(corpus.headers[i], from_midnight.headers[i]);
            let mut parser = pg_codec::PacketParser::new();
            parser.push(&corpus.headers[i]);
            for round in &corpus.chunks {
                parser.push(&round[i]);
            }
            let packets = parser.drain_packets().expect("the corpus parses");
            assert_eq!(packets.len(), states.len());
            assert_eq!(packets[0].meta.frame_type, pg_codec::FrameType::I);
            for (r, p) in packets.iter().enumerate() {
                assert_eq!((p.meta.seq, p.scene.state), (r as u64, states[r]));
            }
        }
        assert_ne!(corpus.chunks, from_midnight.chunks);
        let (start, end, activity) = corpus.daytime().expect("AD follows the campus profile");
        assert!((start - 8.0).abs() < 1e-9 && (end - 8.48).abs() < 1e-9);
        assert!(activity > 0.5, "08:00 should be busy, got {activity}");
        assert!(corpus.necessary_share() > from_midnight.necessary_share());
    }
}
