//! The load generator: one thread replaying the corpus into the runtime's
//! [`IngestSink`], closed loop (as fast as the sink accepts) or open loop
//! (one round per fixed interval, whatever the runtime does).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pg_pipeline::{ChunkSource, IngestSink};

use crate::corpus::Corpus;

/// What the generator saw during one pass. Times are ns from the pass epoch.
#[derive(Debug, Default)]
pub struct IngestLog {
    /// Per round: when the round was due — its scheduled time in an open
    /// loop, the moment the previous round was handed over in a closed one.
    pub due_ns: Vec<u64>,
    /// Per round: when the generator began handing the round over.
    pub start_ns: Vec<u64>,
    /// Per round: time spent blocked inside `IngestSink::deliver` (probed
    /// passes only; empty otherwise).
    pub block_ns: Vec<u64>,
    /// Chunks the sink refused.
    pub refused: u64,
}

impl IngestLog {
    /// When round `r` counts as sent: its due time in an open loop (so a
    /// stall is charged to every round it delays), its start otherwise.
    pub fn sent_ns(&self, round: usize, open_loop: bool) -> u64 {
        if open_loop {
            self.due_ns[round]
        } else {
            self.start_ns[round]
        }
    }
}

/// Replays a [`Corpus`] on the runtime's producer thread.
pub struct ReplaySource<'a> {
    /// Chunks to replay.
    pub corpus: &'a Corpus,
    /// Pass epoch shared with the gate wrapper.
    pub epoch: Instant,
    /// `Some(interval)` = open loop at one round per interval.
    pub interval: Option<Duration>,
    /// Time every `deliver` call.
    pub probed: bool,
    /// Where the log lands when the source finishes.
    pub log: &'a Mutex<IngestLog>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

impl ChunkSource for ReplaySource<'_> {
    fn run(self: Box<Self>, sink: IngestSink) {
        let corpus = self.corpus;
        let rounds = corpus.rounds.min(sink.rounds()) as usize;
        let mut log = IngestLog {
            due_ns: Vec::with_capacity(rounds),
            start_ns: Vec::with_capacity(rounds),
            block_ns: Vec::with_capacity(if self.probed { rounds } else { 0 }),
            refused: 0,
        };
        let mut handed_over = self.epoch;
        'rounds: for (round, chunks) in corpus.chunks.iter().take(rounds).enumerate() {
            let due = match self.interval {
                Some(interval) => {
                    // Round 0 is due one interval after the epoch, so the
                    // runtime's threads are up before the first camera
                    // frame arrives.
                    let due = self.epoch + interval * (round as u32 + 1);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                None => handed_over,
            };
            let start = Instant::now();
            log.due_ns.push(ns_since(self.epoch, due));
            log.start_ns.push(ns_since(self.epoch, start));
            // Headers ride with round 0, as the in-process producer sends
            // them.
            let headers = if round == 0 { &corpus.headers[..] } else { &[] };
            let items = headers.iter().enumerate().chain(chunks.iter().enumerate());
            let mut blocked = Duration::ZERO;
            for (stream, chunk) in items {
                let t0 = self.probed.then(Instant::now);
                let ok = sink.deliver(stream, round as u64, chunk.clone());
                if let Some(t0) = t0 {
                    blocked += t0.elapsed();
                }
                if !ok {
                    log.refused += 1;
                    break 'rounds;
                }
            }
            if self.probed {
                log.block_ns.push(blocked.as_nanos() as u64);
            }
            handed_over = Instant::now();
        }
        *self.log.lock().expect("ingest log poisoned") = log;
    }
}
