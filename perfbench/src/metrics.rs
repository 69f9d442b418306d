//! Reducing each pass to a small summary the moment it ends, and the
//! summaries to the benchmark's metrics. Nothing per-round outlives its
//! pass, so the harness's own memory does not grow with the run and
//! `run_rss_mb` sees only the program.

use std::time::Instant;

use packetgame::{CombinatorialOptimizer, Item, SelectScratch};
use pg_pipeline::{TraceSpan, TraceStage, Track};

use crate::corpus::Corpus;
use crate::gate::KnapsackRound;
use crate::pass::PassOutcome;
use crate::workload::Workload;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank percentile (`p` in (0, 1]) of unsorted samples; 0 if none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

fn mean(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;
const BYTES_PER_MB: f64 = 1024.0 * 1024.0;

/// Ground-truth decision quality of stream-rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Quality {
    stream_rounds: u64,
    correct: u64,
    necessary: u64,
    necessary_decoded: u64,
    decoded: u64,
}

impl Quality {
    fn add(&mut self, o: &Quality) {
        self.stream_rounds += o.stream_rounds;
        self.correct += o.correct;
        self.necessary += o.necessary;
        self.necessary_decoded += o.necessary_decoded;
        self.decoded += o.decoded;
    }
}

/// Per-round durations of the gate thread's stages, from the runtime spans.
#[derive(Debug, Default)]
struct GateRounds {
    round: Vec<u64>,
    ingest_wait: Vec<u64>,
    assemble: Vec<u64>,
    select: Vec<u64>,
    dispatch: Vec<u64>,
}

impl GateRounds {
    fn stage_mut(&mut self, stage: TraceStage) -> Option<&mut Vec<u64>> {
        match stage {
            TraceStage::Round => Some(&mut self.round),
            TraceStage::IngestWait => Some(&mut self.ingest_wait),
            TraceStage::Assemble => Some(&mut self.assemble),
            TraceStage::GateSelect => Some(&mut self.select),
            TraceStage::Dispatch => Some(&mut self.dispatch),
            _ => None,
        }
    }
}

/// Runtime span totals of one traced pass.
#[derive(Debug, Default)]
pub struct SpanTotals {
    gate: GateRounds,
    parse_ns: u64,
    queue_wait_ns: Vec<f64>,
    decode_ns: u64,
    infer_ns: u64,
    infers: u64,
}

/// Reduce a pass's raw spans (`rounds` rounds) to per-stage totals.
pub fn span_totals(rounds: usize, spans: &[TraceSpan]) -> SpanTotals {
    let mut t = SpanTotals {
        gate: GateRounds {
            round: vec![0; rounds],
            ingest_wait: vec![0; rounds],
            assemble: vec![0; rounds],
            select: vec![0; rounds],
            dispatch: vec![0; rounds],
        },
        ..SpanTotals::default()
    };
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.begin_ns);
        if s.track == Track::Gate {
            if let Some(v) = t.gate.stage_mut(s.stage) {
                if let Some(slot) = v.get_mut(s.round as usize) {
                    *slot += dur;
                }
                continue;
            }
        }
        match s.stage {
            TraceStage::Parse => t.parse_ns += dur,
            TraceStage::QueueWait => t.queue_wait_ns.push(dur as f64),
            TraceStage::Decode => t.decode_ns += dur,
            TraceStage::Infer => {
                t.infer_ns += dur;
                t.infers += 1;
            }
            _ => {}
        }
    }
    t
}

/// Re-time the optimizer alone on each recorded round. Confidences are
/// synthesized to reproduce the recorded priority order: selected streams
/// rank in selection order above every unselected one. Returns the total
/// time (ns) and how many rounds did not reproduce the selection.
pub fn retime_knapsack(rounds: &[KnapsackRound]) -> (u64, u64) {
    let optimizer = CombinatorialOptimizer;
    let mut scratch = SelectScratch::new();
    let mut items: Vec<Item> = Vec::new();
    let mut total_ns = 0u64;
    let mut mismatches = 0u64;
    for k in rounds {
        let n = k.selected.len();
        items.clear();
        items.extend(k.candidates.iter().map(|&(idx, cost)| {
            let cost = cost.max(f64::MIN_POSITIVE);
            let ratio = match k.selected.iter().position(|&s| s == idx) {
                Some(rank) => 2.0 + (n - rank) as f64,
                None => 1.0 / (2.0 + idx as f64),
            };
            Item {
                idx,
                confidence: ratio * cost,
                cost,
            }
        }));
        let t0 = Instant::now();
        optimizer.select_with(std::hint::black_box(&items), k.budget, &mut scratch);
        total_ns += t0.elapsed().as_nanos() as u64;
        if scratch.selected() != &k.selected[..] {
            mismatches += 1;
        }
    }
    (total_ns, mismatches)
}

/// Share by which the gate-thread stage parts may miss their round.
const TILING_TOLERANCE: f64 = 0.10;

/// Share of rounds allowed to miss [`TILING_TOLERANCE`]: gaps between the
/// runtime's spans (preemption, the trace's own buffer hand-off under its
/// store lock) are not attributed to any stage.
const UNTILED_ALLOWANCE: f64 = 0.02;

/// Per-layer sums of one traced pass.
#[derive(Debug, Default)]
struct LayerSums {
    rounds: u64,
    parse_ns: u64,
    packets: u64,
    queue_wait_ns: Vec<f64>,
    decode_ns: u64,
    frames: u64,
    jobs: u64,
    infer_ns: u64,
    infers: u64,
    ingest_wait_ns: u64,
    assemble_self_ns: u64,
    dispatch_ns: u64,
    parts_ns: u64,
    round_ns: u64,
    untiled: u64,
    round_us: Vec<f64>,
    select_ns: u64,
    select_cpu_ns: u64,
    select_allocs: u64,
    knapsack_ns: u64,
    knapsack_mismatches: u64,
    feedback_ns: u64,
    lag_rounds: u64,
    delivered: u64,
    block_ns: u64,
    gen_lag_p99_ms: f64,
    allocs: u64,
    budget_total: f64,
    spent_total: f64,
    offered: u64,
    dispatched: u64,
}

/// What remains of a pass once it is reduced.
pub struct PassSummary {
    /// Stream-rounds the pass replayed.
    pub stream_rounds: u64,
    /// Wall time of `run_with_source`, ns.
    pub wall_ns: u64,
    /// Process CPU time during the run, ns.
    pub cpu_ns: u64,
    /// Peak RSS during the pass, bytes.
    pub peak_rss: u64,
    /// Stream-rounds that count as failed: all of them when a check was
    /// violated, otherwise those that got no gate decision.
    pub failed: u64,
    /// Correctness violations.
    pub violations: Vec<String>,
    quality: Quality,
    decision_p50_ms: f64,
    decision_p99_ms: f64,
    result_p50_ms: f64,
    result_p99_ms: f64,
    layers: Option<LayerSums>,
}

/// Reduce one pass.
pub fn summarize(wl: &Workload, corpus: &Corpus, p: PassOutcome) -> PassSummary {
    let m = corpus.streams;
    let open = wl.interval.is_some();
    let gate = &p.gate;
    let mut quality = Quality::default();
    for (i, labels) in corpus.necessary.iter().enumerate() {
        for (r, &necessary) in labels.iter().enumerate() {
            let decoded = gate.dispatched[r * m + i];
            quality.stream_rounds += 1;
            quality.correct += u64::from(decoded || !necessary);
            quality.necessary += u64::from(necessary);
            quality.necessary_decoded += u64::from(necessary && decoded);
            quality.decoded += u64::from(decoded);
        }
    }
    // Round r's send → decision, and send → feedback of each result.
    let decision: Vec<f64> = gate
        .decided_ns
        .iter()
        .enumerate()
        .map(|(r, &at)| at.saturating_sub(p.ingest.sent_ns(r, open)) as f64 / NS_PER_MS)
        .collect();
    let result: Vec<f64> = gate
        .delivered
        .iter()
        .map(|d| {
            let sent = p.ingest.sent_ns(d.packet_round as usize, open);
            d.at_ns.saturating_sub(sent) as f64 / NS_PER_MS
        })
        .collect();

    let layers = p.traced.map(|tp| {
        let t = tp.spans;
        let g = &t.gate;
        let rounds = corpus.rounds as usize;
        let mut l = LayerSums {
            rounds: rounds as u64,
            parse_ns: t.parse_ns,
            queue_wait_ns: t.queue_wait_ns,
            decode_ns: t.decode_ns,
            infer_ns: t.infer_ns,
            infers: t.infers,
            knapsack_ns: tp.knapsack_ns,
            knapsack_mismatches: tp.knapsack_mismatches,
            select_ns: gate.select_ns.iter().sum(),
            select_cpu_ns: gate.select_cpu_ns.iter().sum(),
            select_allocs: gate.select_allocs.iter().sum(),
            feedback_ns: gate.feedback_ns.iter().sum(),
            block_ns: p.ingest.block_ns.iter().sum(),
            allocs: p.allocs,
            budget_total: gate.budget_total,
            spent_total: gate.spent_total,
            offered: gate.offered,
            dispatched: gate.dispatched_count,
            ..LayerSums::default()
        };
        for r in 0..rounds {
            let parts = g.ingest_wait[r] + g.assemble[r] + g.select[r] + g.dispatch[r];
            l.parts_ns += parts;
            l.round_ns += g.round[r];
            let gap = (parts as f64 - g.round[r] as f64).abs();
            l.untiled += u64::from(gap > TILING_TOLERANCE * g.round[r] as f64);
            l.ingest_wait_ns += g.ingest_wait[r];
            // `feedback` runs inside the runtime's assemble span.
            l.assemble_self_ns += g.assemble[r].saturating_sub(gate.feedback_ns[r]);
            l.dispatch_ns += g.dispatch[r];
        }
        if let Some(rep) = &p.report {
            l.packets = rep.packets_parsed;
            l.frames = rep.frames_decoded;
            l.jobs = rep.packets_decoded;
            l.round_us = rep.round_latency_us.iter().map(|&u| u as f64).collect();
        }
        for d in &gate.delivered {
            l.lag_rounds += d.at_round.saturating_sub(d.packet_round);
            l.delivered += 1;
        }
        let lag_ms: Vec<f64> = (p.ingest.start_ns.iter().zip(&p.ingest.due_ns))
            .map(|(s, d)| s.saturating_sub(*d) as f64 / NS_PER_MS)
            .collect();
        l.gen_lag_p99_ms = percentile(&lag_ms, 0.99);
        l
    });

    PassSummary {
        stream_rounds: corpus.stream_rounds(),
        wall_ns: p.wall_ns,
        cpu_ns: p.cpu_ns,
        peak_rss: 0,
        failed: if p.violations.is_empty() {
            corpus.stream_rounds() - gate.offered
        } else {
            corpus.stream_rounds()
        },
        violations: p.violations,
        quality,
        decision_p50_ms: percentile(&decision, 0.50),
        decision_p99_ms: percentile(&decision, 0.99),
        result_p50_ms: percentile(&result, 0.50),
        result_p99_ms: percentile(&result, 0.99),
        layers,
    }
}

/// Median over passes of a per-pass figure.
fn per_pass(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn cpu_us_per_stream_round(passes: &[PassSummary]) -> f64 {
    per_pass(passes, |p| {
        p.cpu_ns as f64 / NS_PER_US / p.stream_rounds as f64
    })
}

fn quality<'a>(passes: impl IntoIterator<Item = &'a PassSummary>) -> Quality {
    let mut q = Quality::default();
    for p in passes {
        q.add(&p.quality);
    }
    q
}

/// Share of stream-rounds the gate had decoded, over `passes`.
pub fn decoded_share<'a>(passes: impl IntoIterator<Item = &'a PassSummary>) -> f64 {
    let q = quality(passes);
    mean(q.decoded as f64, q.stream_rounds as f64)
}

/// The end-to-end metrics of untraced passes. Rates, CPU, latencies and
/// memory are medians over passes.
pub fn end_to_end(passes: &[PassSummary], setup_s: f64, rss_after_setup: u64) -> Vec<Metric> {
    let q = quality(passes);
    vec![
        metric("setup_s", "s", setup_s),
        metric(
            "stream_rounds_per_s",
            "1/s",
            per_pass(passes, |p| {
                p.stream_rounds as f64 / (p.wall_ns as f64 / 1e9)
            }),
        ),
        metric(
            "cpu_us_per_stream_round",
            "us",
            cpu_us_per_stream_round(passes),
        ),
        metric(
            "accuracy",
            "ratio",
            mean(q.correct as f64, q.stream_rounds as f64),
        ),
        metric(
            "decision_p50_ms",
            "ms",
            per_pass(passes, |p| p.decision_p50_ms),
        ),
        metric("result_p50_ms", "ms", per_pass(passes, |p| p.result_p50_ms)),
        metric(
            "run_rss_mb",
            "MB",
            per_pass(passes, |p| {
                p.peak_rss.saturating_sub(rss_after_setup) as f64 / BYTES_PER_MB
            }),
        ),
    ]
}

/// The per-layer metrics of traced passes, with the probed passes of the
/// same run that have the runtime's trace off as the overhead baseline and
/// the source of the tail latencies (tracing perturbs them), and the traced
/// run's self-check failures. Both halves carry the benchmark's own probes,
/// so `trace.overhead` isolates the runtime's `Trace`.
pub fn per_layer(traced: &[PassSummary], untraced: &[PassSummary]) -> (Vec<Metric>, Vec<String>) {
    let mut s = LayerSums::default();
    for l in traced.iter().filter_map(|p| p.layers.as_ref()) {
        s.rounds += l.rounds;
        s.parse_ns += l.parse_ns;
        s.packets += l.packets;
        s.queue_wait_ns.extend_from_slice(&l.queue_wait_ns);
        s.decode_ns += l.decode_ns;
        s.frames += l.frames;
        s.jobs += l.jobs;
        s.infer_ns += l.infer_ns;
        s.infers += l.infers;
        s.ingest_wait_ns += l.ingest_wait_ns;
        s.assemble_self_ns += l.assemble_self_ns;
        s.dispatch_ns += l.dispatch_ns;
        s.parts_ns += l.parts_ns;
        s.round_ns += l.round_ns;
        s.untiled += l.untiled;
        s.round_us.extend_from_slice(&l.round_us);
        s.select_ns += l.select_ns;
        s.select_cpu_ns += l.select_cpu_ns;
        s.select_allocs += l.select_allocs;
        s.knapsack_ns += l.knapsack_ns;
        s.knapsack_mismatches += l.knapsack_mismatches;
        s.feedback_ns += l.feedback_ns;
        s.lag_rounds += l.lag_rounds;
        s.delivered += l.delivered;
        s.block_ns += l.block_ns;
        s.allocs += l.allocs;
        s.budget_total += l.budget_total;
        s.spent_total += l.spent_total;
        s.offered += l.offered;
        s.dispatched += l.dispatched;
    }
    let rounds = s.rounds as f64;
    let stream_rounds = traced.iter().map(|p| p.stream_rounds).sum::<u64>() as f64;
    let mut failures = Vec::new();
    if s.untiled as f64 > UNTILED_ALLOWANCE * rounds {
        failures.push(format!(
            "{} of {} rounds not tiled by their stage parts within {}%",
            s.untiled,
            s.rounds,
            TILING_TOLERANCE * 100.0
        ));
    }
    if s.knapsack_mismatches > 0 {
        failures.push(format!(
            "knapsack re-timing did not reproduce the selection on {} rounds",
            s.knapsack_mismatches
        ));
    }
    let q = quality(traced);
    let per_round_us = |ns: u64| mean(ns as f64, rounds) / NS_PER_US;
    let select_us = per_round_us(s.select_ns);
    let knapsack_us = per_round_us(s.knapsack_ns);
    let metrics = vec![
        metric(
            "ingest.deliver_block_us_per_round",
            "us",
            per_round_us(s.block_ns),
        ),
        metric(
            "ingest.generator_lag_p99_ms",
            "ms",
            per_pass(traced, |p| {
                p.layers.as_ref().map_or(0.0, |l| l.gen_lag_p99_ms)
            }),
        ),
        metric(
            "parse.us_per_packet",
            "us",
            mean(s.parse_ns as f64, s.packets as f64) / NS_PER_US,
        ),
        metric(
            "ingest_wait.us_per_round",
            "us",
            per_round_us(s.ingest_wait_ns),
        ),
        metric(
            "assemble.us_per_round",
            "us",
            per_round_us(s.assemble_self_ns),
        ),
        metric("gate.select_us_per_round", "us", select_us),
        metric(
            "gate.select_cpu_us_per_round",
            "us",
            per_round_us(s.select_cpu_ns),
        ),
        metric("gate.predict_us_per_round", "us", select_us - knapsack_us),
        metric("gate.knapsack_us_per_round", "us", knapsack_us),
        metric(
            "gate.allocs_per_select",
            "count",
            mean(s.select_allocs as f64, rounds),
        ),
        metric(
            "gate.keep_rate",
            "ratio",
            mean(s.dispatched as f64, s.offered as f64),
        ),
        metric(
            "gate.budget_utilisation",
            "ratio",
            mean(s.spent_total, s.budget_total),
        ),
        metric(
            "gate.recall",
            "ratio",
            mean(q.necessary_decoded as f64, q.necessary as f64),
        ),
        metric(
            "gate.precision",
            "ratio",
            mean(q.necessary_decoded as f64, q.decoded as f64),
        ),
        metric("dispatch.us_per_round", "us", per_round_us(s.dispatch_ns)),
        metric(
            "decode.queue_wait_p50_us",
            "us",
            percentile(&s.queue_wait_ns, 0.50) / NS_PER_US,
        ),
        metric(
            "decode.queue_wait_p99_us",
            "us",
            percentile(&s.queue_wait_ns, 0.99) / NS_PER_US,
        ),
        metric(
            "decode.exec_us_per_frame",
            "us",
            mean(s.decode_ns as f64, s.frames as f64) / NS_PER_US,
        ),
        metric(
            "decode.frames_per_packet",
            "ratio",
            mean(s.frames as f64, s.jobs as f64),
        ),
        metric(
            "infer.us_per_item",
            "us",
            mean(s.infer_ns as f64, s.infers as f64) / NS_PER_US,
        ),
        metric("feedback.us_per_round", "us", per_round_us(s.feedback_ns)),
        metric(
            "feedback.lag_rounds_mean",
            "rounds",
            mean(s.lag_rounds as f64, s.delivered as f64),
        ),
        metric("round.p50_us", "us", percentile(&s.round_us, 0.50)),
        metric("round.p99_us", "us", percentile(&s.round_us, 0.99)),
        metric(
            "tail.decision_p99_ms",
            "ms",
            per_pass(untraced, |p| p.decision_p99_ms),
        ),
        metric(
            "tail.result_p99_ms",
            "ms",
            per_pass(untraced, |p| p.result_p99_ms),
        ),
        metric(
            "process.allocs_per_stream_round",
            "count",
            mean(s.allocs as f64, stream_rounds),
        ),
        metric(
            "trace.coverage",
            "ratio",
            mean(s.parts_ns as f64, s.round_ns as f64),
        ),
        metric(
            "trace.overhead",
            "ratio",
            mean(
                cpu_us_per_stream_round(traced),
                cpu_us_per_stream_round(untraced),
            ),
        ),
    ];
    (metrics, failures)
}
