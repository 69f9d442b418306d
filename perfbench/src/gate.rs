//! A [`GatePolicy`] wrapper around [`PacketGame`] that times `select` and
//! `feedback` from outside and replays the runtime's dispatch rule on each
//! selection, so the benchmark knows exactly which stream-rounds were
//! decoded without instrumenting the program.

use std::time::Instant;

use packetgame::PacketGame;
use pg_pipeline::{FeedbackEvent, GatePolicy, PacketContext, Telemetry};

use crate::probe;

/// One round's knapsack input, kept on probed passes so the optimizer can
/// be re-timed on its own afterwards.
#[derive(Debug, Clone)]
pub struct KnapsackRound {
    /// Budget the round ran with.
    pub budget: f64,
    /// `(stream, pending_cost)` of every candidate, by stream.
    pub candidates: Vec<(usize, f64)>,
    /// Streams `select` returned, in priority order.
    pub selected: Vec<usize>,
}

/// One feedback event as the gate received it.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Round of the decoded packet.
    pub packet_round: u64,
    /// Round whose assembly handed the event to the gate.
    pub at_round: u64,
    /// When `feedback` was called, ns from the pass epoch.
    pub at_ns: u64,
}

/// What the wrapper recorded over one pass.
#[derive(Debug, Default)]
pub struct GateLog {
    /// Streams in the pass.
    pub m: usize,
    /// Per round: when `select` returned, ns from the pass epoch.
    pub decided_ns: Vec<u64>,
    /// Per round: wall time inside `PacketGame::select`, ns.
    pub select_ns: Vec<u64>,
    /// Per round: gate-thread CPU time inside `select`, ns (probed).
    pub select_cpu_ns: Vec<u64>,
    /// Per round: gate-thread allocations inside `select` (probed).
    pub select_allocs: Vec<u64>,
    /// Per round: wall time inside `PacketGame::feedback`, ns.
    pub feedback_ns: Vec<u64>,
    /// Knapsack inputs per round (probed).
    pub knapsack: Vec<KnapsackRound>,
    /// `dispatched[round * m + stream]`: a decode job went out.
    pub dispatched: Vec<bool>,
    /// Decode jobs dispatched.
    pub dispatched_count: u64,
    /// Candidates offered to the gate.
    pub offered: u64,
    /// Budget summed over rounds.
    pub budget_total: f64,
    /// Cost dispatched summed over rounds.
    pub spent_total: f64,
    /// Every feedback event received.
    pub delivered: Vec<Delivered>,
    /// Feedback events for a stream-round that was never dispatched.
    pub foreign_feedback: u64,
    /// `select` calls whose round was not the next one expected.
    pub out_of_order: u64,
}

/// The timing wrapper.
pub struct TimedGate {
    inner: PacketGame,
    epoch: Instant,
    probed: bool,
    /// Pending cost of each stream's candidate this round (NaN = none).
    cost_of: Vec<f64>,
    sent: Vec<bool>,
    log: GateLog,
}

impl TimedGate {
    /// Wrap `inner` for a pass of `m` streams × `rounds` rounds.
    pub fn new(inner: PacketGame, epoch: Instant, m: usize, rounds: u64, probed: bool) -> Self {
        let rounds = rounds as usize;
        TimedGate {
            inner,
            epoch,
            probed,
            cost_of: vec![f64::NAN; m],
            sent: vec![false; m],
            log: GateLog {
                m,
                decided_ns: Vec::with_capacity(rounds),
                select_ns: Vec::with_capacity(rounds),
                feedback_ns: vec![0; rounds],
                dispatched: vec![false; m * rounds],
                ..GateLog::default()
            },
        }
    }

    /// The log, once the pass is over.
    pub fn into_log(self) -> GateLog {
        self.log
    }

    /// Walk the selection exactly as the runtime's dispatch loop does:
    /// skip unknown, repeated and candidate-less streams, stop once the
    /// budget is spent; the last job may overshoot it.
    fn replay_dispatch(
        &mut self,
        round: usize,
        candidates: &[PacketContext],
        budget: f64,
        sel: &[usize],
    ) {
        let m = self.log.m;
        self.cost_of.fill(f64::NAN);
        self.sent.fill(false);
        for c in candidates {
            if let Some(slot) = self.cost_of.get_mut(c.stream_idx) {
                *slot = c.pending_cost;
            }
        }
        let mut spent = 0.0f64;
        for &idx in sel {
            if idx >= m || self.sent[idx] || self.cost_of[idx].is_nan() {
                continue;
            }
            if spent >= budget {
                break;
            }
            spent += self.cost_of[idx];
            self.sent[idx] = true;
            if let Some(slot) = self.log.dispatched.get_mut(round * m + idx) {
                *slot = true;
            }
            self.log.dispatched_count += 1;
        }
        self.log.offered += candidates.len() as u64;
        self.log.budget_total += budget;
        self.log.spent_total += spent;
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

impl GatePolicy for TimedGate {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, round: u64, candidates: &[PacketContext], budget: f64) -> Vec<usize> {
        let before = self
            .probed
            .then(|| (probe::thread_cpu_ns(), probe::thread_allocs()));
        let t0 = Instant::now();
        let sel = self.inner.select(round, candidates, budget);
        let t1 = Instant::now();
        if let Some((cpu0, allocs0)) = before {
            self.log.select_cpu_ns.push(probe::thread_cpu_ns() - cpu0);
            self.log
                .select_allocs
                .push(probe::thread_allocs() - allocs0);
            self.log.knapsack.push(KnapsackRound {
                budget,
                candidates: candidates
                    .iter()
                    .map(|c| (c.stream_idx, c.pending_cost))
                    .collect(),
                selected: sel.clone(),
            });
        }
        self.log.select_ns.push(ns(t1 - t0));
        self.log
            .decided_ns
            .push(ns(t1.saturating_duration_since(self.epoch)));
        if round as usize != self.log.decided_ns.len() - 1 {
            self.log.out_of_order += 1;
        }
        self.replay_dispatch(round as usize, candidates, budget, &sel);
        sel
    }

    fn feedback(&mut self, events: &[FeedbackEvent]) {
        let t0 = Instant::now();
        self.inner.feedback(events);
        let dur = t0.elapsed();
        // `feedback` runs during the assembly of the round about to be
        // selected.
        let at_round = self.log.decided_ns.len();
        if let Some(slot) = self.log.feedback_ns.get_mut(at_round) {
            *slot += ns(dur);
        }
        let at_ns = ns(t0.saturating_duration_since(self.epoch));
        let m = self.log.m;
        for e in events {
            let known = e.stream_idx < m
                && self
                    .log
                    .dispatched
                    .get(e.round as usize * m + e.stream_idx)
                    .copied()
                    .unwrap_or(false);
            if !known {
                self.log.foreign_feedback += 1;
            }
            self.log.delivered.push(Delivered {
                packet_round: e.round,
                at_round: at_round as u64,
                at_ns,
            });
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}
