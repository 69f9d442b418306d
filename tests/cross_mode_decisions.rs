//! The three round-based execution modes must decide identically.
//!
//! The live round simulator, a replay of the very packets it encodes, and
//! the threaded runtime with one parser shard all gate the same seeded
//! streams. Under a binding budget the knapsack's cut depends on exactly
//! how much each decoded closure is charged, so any drift in budget
//! accounting shows up as a different candidate list a few rounds later
//! (a stream decoded in one mode is still pending — and costs more — in
//! another). The gate here records every candidate it is offered; the
//! lists must match bit for bit, round by round, and so must the number
//! of packets decoded.

use std::sync::{Arc, Mutex};

use pg_codec::{Codec, Encoder, EncoderConfig, Packet};
use pg_pipeline::concurrent::ConcurrentConfig;
use pg_pipeline::gate::DecodeAll;
use pg_pipeline::{
    ChunkFaultMode, ConcurrentPipeline, DecodeWorkModel, FaultPlan, FaultRecord, FeedbackEvent,
    GatePolicy, PacketContext, QuarantineConfig, ReplaySimulator, RoundSimulator, SimConfig,
    StreamSpec,
};
use pg_scene::rng::mix;
use pg_scene::{generator_for, TaskKind};

const STREAMS: usize = 12;
const ROUNDS: u64 = 150;
const BUDGET: f64 = 4.0;
const SEED: u64 = 33;
const TASK: TaskKind = TaskKind::PersonCounting;

/// One offered candidate: stream, sequence number, packet size, and the
/// bits of its pending closure cost.
type Candidate = (usize, u64, u32, u64);

/// `DecodeAll` that logs every round's candidate list.
struct Recording {
    inner: DecodeAll,
    log: Arc<Mutex<Vec<Vec<Candidate>>>>,
}

impl Recording {
    fn new() -> (Self, Arc<Mutex<Vec<Vec<Candidate>>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            Recording {
                inner: DecodeAll,
                log: log.clone(),
            },
            log,
        )
    }
}

impl GatePolicy for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn select(&mut self, round: u64, candidates: &[PacketContext], budget: f64) -> Vec<usize> {
        let offered = candidates
            .iter()
            .map(|c| {
                (
                    c.stream_idx,
                    c.meta.seq,
                    c.meta.size,
                    c.pending_cost.to_bits(),
                )
            })
            .collect();
        self.log.lock().expect("log lock").push(offered);
        self.inner.select(round, candidates, budget)
    }

    fn feedback(&mut self, events: &[FeedbackEvent]) {
        self.inner.feedback(events);
    }
}

fn encoder() -> EncoderConfig {
    EncoderConfig::new(Codec::H264)
}

/// Stream `i` exactly as the threaded runtime's producer derives it.
fn spec(i: usize) -> StreamSpec {
    let enc = encoder();
    StreamSpec::with_generator(generator_for(TASK, mix(SEED, i as u64), enc.fps), SEED, enc)
}

fn recorded(i: usize) -> Vec<Packet> {
    let enc = encoder();
    let mut generator = generator_for(TASK, mix(SEED, i as u64), enc.fps);
    let mut encoder = Encoder::for_stream(enc, SEED, i as u32);
    (0..ROUNDS)
        .map(|_| encoder.encode(&generator.next_frame()))
        .collect()
}

fn sim_config() -> SimConfig {
    SimConfig {
        budget_per_round: BUDGET,
        ..SimConfig::default()
    }
}

fn first_divergence(a: &[Vec<Candidate>], b: &[Vec<Candidate>]) -> Option<(usize, usize)> {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    let first = a.iter().zip(b).position(|(x, y)| x != y)?;
    Some((first, differing))
}

#[test]
fn round_replay_and_runtime_offer_identical_candidates() {
    let (mut gate, live_log) = Recording::new();
    let specs = (0..STREAMS).map(spec).collect();
    let live = RoundSimulator::new(specs, sim_config()).run(&mut gate, ROUNDS);

    let (mut gate, replay_log) = Recording::new();
    let streams = (0..STREAMS).map(|i| (Codec::H264, recorded(i))).collect();
    let replay = ReplaySimulator::new(streams, sim_config()).run(&mut gate, ROUNDS);

    let (mut gate, runtime_log) = Recording::new();
    let cfg = ConcurrentConfig {
        streams: STREAMS,
        rounds: ROUNDS,
        decode_workers: 1,
        parser_shards: 1,
        budget_per_round: BUDGET,
        task: TASK,
        encoder: encoder(),
        work: DecodeWorkModel::spin(0),
        seed: SEED,
        ..ConcurrentConfig::default()
    };
    let runtime = ConcurrentPipeline::new(cfg).run(&mut gate);

    let live_log = live_log.lock().expect("log lock");
    let replay_log = replay_log.lock().expect("log lock");
    let runtime_log = runtime_log.lock().expect("log lock");
    assert_eq!(live_log.len(), ROUNDS as usize);
    assert_eq!(replay_log.len(), ROUNDS as usize);
    assert_eq!(runtime_log.len(), ROUNDS as usize);
    assert!(
        live_log.iter().all(|round| round.len() == STREAMS),
        "every stream offers a candidate every round"
    );

    if let Some((first, differing)) = first_divergence(&live_log, &replay_log) {
        panic!("replay diverges from the live simulator in {differing} rounds (first: {first})");
    }
    if let Some((first, differing)) = first_divergence(&live_log, &runtime_log) {
        panic!("runtime diverges from the live simulator in {differing} rounds (first: {first})");
    }
    assert_eq!(live.packets_decoded, replay.packets_decoded);
    assert_eq!(live.packets_decoded, runtime.packets_decoded);
    assert!(
        live.packets_decoded < live.packets_total,
        "the budget must bind for the comparison to mean anything"
    );
}

/// Fault ledger entries as (kind, stream, detail).
fn ledger(faults: &[FaultRecord]) -> Vec<(String, Option<usize>, String)> {
    faults
        .iter()
        .map(|f| (f.kind.clone(), f.stream_idx, f.detail.clone()))
        .collect()
}

/// The same chunk damage must be accounted identically in both modes:
/// the same ledger, the same quarantine history (a costed offer clears a
/// stream's strikes everywhere, so `strikes = 2` means two *consecutive*
/// faults in every mode) and the same decode count.
#[test]
fn round_sim_and_runtime_account_chunk_faults_identically() {
    let plan = FaultPlan::new(7)
        .with_corrupt(3, 20, ChunkFaultMode::Truncate)
        .with_corrupt(3, 23, ChunkFaultMode::Truncate)
        .with_corrupt(3, 60, ChunkFaultMode::Truncate);
    let quarantine = QuarantineConfig::new(8, 2);

    let specs = (0..STREAMS).map(spec).collect();
    let live = RoundSimulator::new(specs, sim_config())
        .with_faults(plan.clone())
        .with_quarantine(quarantine)
        .run(&mut DecodeAll, ROUNDS);

    let cfg = ConcurrentConfig {
        streams: STREAMS,
        rounds: ROUNDS,
        decode_workers: 1,
        parser_shards: 1,
        budget_per_round: BUDGET,
        task: TASK,
        encoder: encoder(),
        work: DecodeWorkModel::spin(0),
        seed: SEED,
        quarantine,
        faults: plan,
        ..ConcurrentConfig::default()
    };
    let runtime = ConcurrentPipeline::new(cfg).run(&mut DecodeAll);

    assert!(!live.faults.is_empty(), "the damage must be reported");
    assert_eq!(ledger(&live.faults), ledger(&runtime.faults));
    assert_eq!(live.health, runtime.health);
    assert_eq!(live.packets_decoded, runtime.packets_decoded);
}
