//! The drift autopilot: closes the loop from the decision-quality monitor
//! ([`crate::insight`]) back into the gate.
//!
//! PR 4's observatory deliberately *observed and never acted* (the old
//! DESIGN.md D7 note): a bitrate regime change would flag a stream stale
//! and then leave the stale predictor gating traffic forever. This module
//! turns those gauges into two bounded controllers (DESIGN.md D11):
//!
//! * **Per-stream recovery ladder.** A stream whose Page–Hinkley flag stays
//!   up for `hysteresis_rounds` consecutive rounds walks a fixed ladder:
//!   temporal-only **fallback** (the suspected-stale contextual predictor
//!   stops scoring the stream) → **estimator reset** (the sliding-window
//!   UCB forgets the pre-shift regime) → **retrain** (the predictor re-fits
//!   from retained post-shift feedback) → **restore** after a probation
//!   period, which also re-warms the stream's drift detectors. Hysteresis
//!   at entry and a per-stream cooldown at exit keep a single noisy alarm
//!   from thrashing the ladder.
//! * **SLO budget controller.** The round budget `B` is nudged by bounded
//!   multiplicative steps: shrink when the observed round p99 breaches the
//!   latency SLO or when the Lemma-1 utilisation gauge shows persistently
//!   fat slack (the whole window under `slack_fat` — budget nobody
//!   spends), grow under regret pressure while the budget is actually
//!   saturated. Steps are clamped to `[min, max] × B₀` and separated by a
//!   cooldown, so the per-round knapsack (paper §5.3) optimizes against a
//!   slowly-moving constraint rather than a jittering one.
//!
//! Everything the autopilot does lands in a bounded **actions ledger** and
//! a set of counters that ride the telemetry snapshot (`pg_autopilot_*`
//! Prometheus families, `--telemetry-json`, dashboard rows). A disabled
//! autopilot is a no-op handle: `observe_round` returns the budget
//! unchanged and touches neither the gate nor the insight state, so runs
//! without it are bit-identical to runs before it existed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::gate::GatePolicy;
use crate::insight::Insight;

/// Tuning knobs for both autopilot controllers. The defaults engage after
/// three consecutive stale rounds, hold fallback for a two-window
/// probation, and move the budget by at most 10% every 16 rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutopilotConfig {
    /// Consecutive stale rounds before the recovery ladder engages.
    pub hysteresis_rounds: u64,
    /// Rounds from ladder engagement until the stream is restored to the
    /// contextual predictor (must exceed the reset/retrain offsets below).
    pub probation_rounds: u64,
    /// Per-stream quiet period after a restore before the ladder may
    /// re-engage, so one recovery cannot immediately chain into another.
    pub cooldown_rounds: u64,
    /// Latency SLO on the observed per-round p99, in microseconds. `None`
    /// disables the latency trigger (the slack/regret triggers remain).
    pub slo_p99_us: Option<f64>,
    /// Multiplicative budget step per move (0.10 = ±10%).
    pub budget_step: f64,
    /// Lower clamp on the tuned budget, as a fraction of the initial B.
    pub budget_min_factor: f64,
    /// Upper clamp on the tuned budget, as a fraction of the initial B.
    pub budget_max_factor: f64,
    /// Minimum rounds between budget moves.
    pub budget_cooldown: u64,
    /// Rounds before the regret-driven grow trigger may act. The super-√T
    /// exponent fit is noisy while the temporal estimators cold-start, so
    /// early "regret pressure" is usually warm-up, not under-provisioning.
    /// The measurement-driven shrink triggers (SLO p99, fat slack) are not
    /// gated: they read direct windows, trustworthy from the first fill.
    pub budget_warmup_rounds: u64,
    /// Utilisation (spent/B) below which a round counts as fat slack.
    pub slack_fat: f64,
    /// Rounds of utilisation history consulted; a shrink requires the
    /// *entire* window under [`slack_fat`](Self::slack_fat).
    pub slack_window: usize,
    /// Rounds of latency history the p99 is computed over.
    pub latency_window: usize,
    /// Bound on the retained actions ledger (oldest entries drop first).
    pub ledger_capacity: usize,
}

impl Default for AutopilotConfig {
    fn default() -> Self {
        AutopilotConfig {
            hysteresis_rounds: 3,
            probation_rounds: 24,
            cooldown_rounds: 32,
            slo_p99_us: None,
            budget_step: 0.10,
            budget_min_factor: 0.5,
            budget_max_factor: 2.0,
            budget_cooldown: 16,
            budget_warmup_rounds: 128,
            slack_fat: 0.70,
            slack_window: 16,
            latency_window: 64,
            ledger_capacity: 256,
        }
    }
}

impl AutopilotConfig {
    /// Set the round-latency SLO (p99, microseconds).
    pub fn with_slo_p99_us(mut self, slo: f64) -> Self {
        self.slo_p99_us = (slo > 0.0).then_some(slo);
        self
    }
}

/// One recorded autopilot intervention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutopilotAction {
    /// Round the action fired in.
    pub round: u64,
    /// Stream acted on; `None` for fleet-wide (budget) actions.
    pub stream: Option<u64>,
    /// Action name: `fallback`, `estimator_reset`, `retrain`, `restore`,
    /// `budget_shrink`, or `budget_grow`.
    pub action: String,
    /// Whether the gate honoured the request (budget actions are always
    /// honoured — the pipeline applies the returned budget directly).
    pub honoured: bool,
    /// Human-readable cause.
    pub detail: String,
}

/// Aggregated autopilot state for reports and exposition. Rides the
/// telemetry snapshot next to the insight and ingest sections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AutopilotSnapshot {
    /// Total interventions (every ladder rung and budget move).
    pub actions_total: u64,
    /// Fallback engagements (ladder rung 1).
    pub fallbacks: u64,
    /// Estimator resets (ladder rung 2).
    pub estimator_resets: u64,
    /// Predictor retrains (ladder rung 3).
    pub retrains: u64,
    /// Restores (probation complete, predictor back in charge).
    pub restores: u64,
    /// Budget grow moves.
    pub budget_grows: u64,
    /// Budget shrink moves.
    pub budget_shrinks: u64,
    /// Streams currently inside the recovery ladder.
    pub streams_on_fallback: u64,
    /// Initial round budget B₀ (summed across merged instances: the merge
    /// of two pipelines reports their combined budget capacity).
    pub budget_initial: f64,
    /// Current tuned round budget (summed across merged instances).
    pub budget_current: f64,
    /// Bounded, oldest-first ledger of interventions.
    pub ledger: Vec<AutopilotAction>,
}

impl AutopilotSnapshot {
    /// Fold another instance's autopilot state into this one: counters
    /// add, budgets add (fleet capacity), ledgers interleave by round.
    pub fn merge(&mut self, other: &AutopilotSnapshot) {
        self.actions_total += other.actions_total;
        self.fallbacks += other.fallbacks;
        self.estimator_resets += other.estimator_resets;
        self.retrains += other.retrains;
        self.restores += other.restores;
        self.budget_grows += other.budget_grows;
        self.budget_shrinks += other.budget_shrinks;
        self.streams_on_fallback += other.streams_on_fallback;
        self.budget_initial += other.budget_initial;
        self.budget_current += other.budget_current;
        self.ledger.extend(other.ledger.iter().cloned());
        self.ledger.sort_by_key(|a| a.round);
    }
}

/// Where a stream sits on the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Not engaged; `streak` counts consecutive stale rounds.
    Idle,
    /// Temporal-only fallback active; estimator reset pending.
    Fallback,
    /// Estimator reset done; retrain pending.
    Reset,
    /// Retrain done; serving probation until restore.
    Retrain,
}

/// Per-stream ladder state.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    streak: u64,
    rung: Rung,
    /// Round the ladder engaged (rung offsets are measured from here).
    engaged_at: u64,
    /// No re-engagement before this round.
    cooldown_until: u64,
}

impl Default for Ladder {
    fn default() -> Self {
        Ladder {
            streak: 0,
            rung: Rung::Idle,
            engaged_at: 0,
            cooldown_until: 0,
        }
    }
}

/// Rounds after engagement at which the reset and retrain rungs fire. The
/// stagger gives each rung a couple of rounds of effect before the next.
const RESET_OFFSET: u64 = 2;
const RETRAIN_OFFSET: u64 = 4;

struct BudgetCtl {
    initial: f64,
    current: f64,
    util: VecDeque<f64>,
    lat: VecDeque<f64>,
    last_move: u64,
}

struct AutopilotState {
    config: AutopilotConfig,
    ladders: BTreeMap<usize, Ladder>,
    /// Lazily initialised from the first observed budget.
    budget: Option<BudgetCtl>,
    actions_total: u64,
    fallbacks: u64,
    estimator_resets: u64,
    retrains: u64,
    restores: u64,
    budget_grows: u64,
    budget_shrinks: u64,
    ledger: VecDeque<AutopilotAction>,
}

/// A recovery-ladder step for one stream, handed to the gate through
/// [`GatePolicy::autopilot_command`]. The ladder collects its decisions
/// first, then applies them, so ledger writes don't alias its iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Rung 1: score the stream from its redundancy estimator alone,
    /// ignoring the (suspected-stale) contextual predictor.
    Fallback(usize),
    /// Rung 2: drop the stream's redundancy-estimator history (sliding
    /// window + aging state) so post-shift feedback is not averaged
    /// against the stale regime.
    ResetEstimator(usize),
    /// Rung 3: re-fit the contextual predictor for the stream from the
    /// recent feedback the policy retained.
    Retrain(usize),
    /// Probation over: take the stream off fallback.
    Restore(usize),
}

/// Handle to the autopilot. Cheap to clone; a disabled handle is a no-op
/// on every call (one branch), so the hot path pays nothing when the
/// autopilot is off and behaviour is bit-identical to not having one.
#[derive(Clone)]
pub struct Autopilot {
    inner: Option<Arc<Mutex<AutopilotState>>>,
}

impl std::fmt::Debug for Autopilot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autopilot")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Default for Autopilot {
    fn default() -> Self {
        Autopilot::disabled()
    }
}

impl Autopilot {
    /// A no-op handle: every call returns immediately.
    pub fn disabled() -> Self {
        Autopilot { inner: None }
    }

    /// An active autopilot with the given knobs.
    pub fn enabled(config: AutopilotConfig) -> Self {
        Autopilot {
            inner: Some(Arc::new(Mutex::new(AutopilotState {
                config,
                ladders: BTreeMap::new(),
                budget: None,
                actions_total: 0,
                fallbacks: 0,
                estimator_resets: 0,
                retrains: 0,
                restores: 0,
                budget_grows: 0,
                budget_shrinks: 0,
                ledger: VecDeque::new(),
            }))),
        }
    }

    /// Whether this handle does anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Close one round: run the recovery ladder against the insight pulse
    /// and the SLO controller against this round's spend/latency, then
    /// return the budget the **next** round should run with.
    ///
    /// * `round_spent` — cost units actually charged this round.
    /// * `budget` — the budget this round ran with (the first call fixes
    ///   B₀; pass the returned value back in on subsequent rounds).
    /// * `round_us` — wall-clock round latency, when the caller measures
    ///   one (the concurrent pipeline does; the deterministic simulators
    ///   pass `None` and rely on the slack/regret triggers).
    ///
    /// Disabled handles return `budget` unchanged without touching the
    /// gate or the insight state.
    pub fn observe_round(
        &self,
        round: u64,
        gate: &mut dyn GatePolicy,
        insight: &Insight,
        round_spent: f64,
        budget: f64,
        round_us: Option<f64>,
    ) -> f64 {
        let Some(inner) = &self.inner else {
            return budget;
        };
        let mut state = inner.lock();
        let cfg = state.config;

        // ---- recovery ladder -------------------------------------------
        let pulse = insight.pulse();
        let mut decisions: Vec<Decision> = Vec::new();
        if let Some(pulse) = &pulse {
            for &id in &pulse.stale {
                let ladder = state.ladders.entry(id).or_default();
                if ladder.rung == Rung::Idle && round >= ladder.cooldown_until {
                    ladder.streak += 1;
                }
            }
            for (&id, ladder) in state.ladders.iter_mut() {
                match ladder.rung {
                    Rung::Idle => {
                        if !pulse.stale.contains(&id) {
                            ladder.streak = 0;
                        } else if ladder.streak >= cfg.hysteresis_rounds {
                            ladder.rung = Rung::Fallback;
                            ladder.engaged_at = round;
                            decisions.push(Decision::Fallback(id));
                        }
                    }
                    Rung::Fallback if round >= ladder.engaged_at + RESET_OFFSET => {
                        ladder.rung = Rung::Reset;
                        decisions.push(Decision::ResetEstimator(id));
                    }
                    Rung::Reset if round >= ladder.engaged_at + RETRAIN_OFFSET => {
                        ladder.rung = Rung::Retrain;
                        decisions.push(Decision::Retrain(id));
                    }
                    Rung::Retrain if round >= ladder.engaged_at + cfg.probation_rounds => {
                        ladder.rung = Rung::Idle;
                        ladder.streak = 0;
                        ladder.cooldown_until = round + cfg.cooldown_rounds;
                        decisions.push(Decision::Restore(id));
                    }
                    _ => {}
                }
            }
        }
        for d in decisions {
            let honoured = gate.autopilot_command(d);
            let (stream, action, detail) = match d {
                Decision::Fallback(i) => {
                    state.fallbacks += 1;
                    let detail = format!(
                        "drift flag held {} rounds; temporal-only scoring engaged",
                        cfg.hysteresis_rounds
                    );
                    (i, "fallback", detail)
                }
                Decision::ResetEstimator(i) => {
                    state.estimator_resets += 1;
                    let detail = "window + aging state dropped to forget the stale regime";
                    (i, "estimator_reset", detail.to_string())
                }
                Decision::Retrain(i) => {
                    state.retrains += 1;
                    let detail = "predictor re-fit from retained feedback samples";
                    (i, "retrain", detail.to_string())
                }
                Decision::Restore(i) => {
                    state.restores += 1;
                    insight.clear_stale(i);
                    let detail = format!(
                        "probation complete after {} rounds; drift detectors re-warmed",
                        cfg.probation_rounds
                    );
                    (i, "restore", detail)
                }
            };
            record(&mut state, round, Some(stream as u64), action, honoured, detail);
        }

        // ---- SLO budget controller -------------------------------------
        let ctl = state.budget.get_or_insert_with(|| BudgetCtl {
            initial: budget,
            current: budget,
            util: VecDeque::new(),
            lat: VecDeque::new(),
            last_move: 0,
        });
        if ctl.current > 0.0 {
            if ctl.util.len() == cfg.slack_window.max(1) {
                ctl.util.pop_front();
            }
            ctl.util.push_back(round_spent / ctl.current);
        }
        if let Some(us) = round_us {
            if ctl.lat.len() == cfg.latency_window.max(1) {
                ctl.lat.pop_front();
            }
            ctl.lat.push_back(us);
        }
        let cooled = round >= ctl.last_move + cfg.budget_cooldown;
        let mut moved: Option<(&'static str, f64, String)> = None;
        if cooled && ctl.initial > 0.0 {
            let p99 = percentile(&ctl.lat, 0.99);
            let util_full = ctl.util.len() >= cfg.slack_window.max(1);
            let util_max = ctl.util.iter().cloned().fold(0.0_f64, f64::max);
            let util_mean = if ctl.util.is_empty() {
                0.0
            } else {
                ctl.util.iter().sum::<f64>() / ctl.util.len() as f64
            };
            let floor = ctl.initial * cfg.budget_min_factor;
            let ceil = ctl.initial * cfg.budget_max_factor;
            if let (Some(slo), Some(p99)) = (cfg.slo_p99_us, p99) {
                if p99 > slo && ctl.lat.len() >= cfg.latency_window.max(1) / 2 {
                    let next = (ctl.current * (1.0 - cfg.budget_step)).max(floor);
                    if next < ctl.current {
                        moved = Some((
                            "budget_shrink",
                            next,
                            format!("round p99 {p99:.0}us breaches SLO {slo:.0}us"),
                        ));
                    }
                }
            }
            if moved.is_none()
                && round >= cfg.budget_warmup_rounds
                && pulse.as_ref().is_some_and(|p| p.regret_flagged)
                && util_full
                && util_mean >= cfg.slack_fat
            {
                let next = (ctl.current * (1.0 + cfg.budget_step)).min(ceil);
                if next > ctl.current {
                    moved = Some((
                        "budget_grow",
                        next,
                        format!(
                            "regret growth super-sqrt with budget saturated \
                             (mean utilisation {util_mean:.2})"
                        ),
                    ));
                }
            }
            if moved.is_none() && util_full && util_max < cfg.slack_fat {
                let next = (ctl.current * (1.0 - cfg.budget_step)).max(floor);
                if next < ctl.current {
                    moved = Some((
                        "budget_shrink",
                        next,
                        format!(
                            "slack persistently fat: peak utilisation {util_max:.2} \
                             under {:.2} for {} rounds",
                            cfg.slack_fat,
                            ctl.util.len()
                        ),
                    ));
                }
            }
        }
        if let Some((action, next, detail)) = moved {
            let ctl = state.budget.as_mut().expect("initialised above");
            ctl.current = next;
            ctl.last_move = round;
            ctl.util.clear();
            ctl.lat.clear();
            if action == "budget_grow" {
                state.budget_grows += 1;
            } else {
                state.budget_shrinks += 1;
            }
            record(&mut state, round, None, action, true, detail);
            next
        } else {
            state.budget.as_ref().map(|c| c.current).unwrap_or(budget)
        }
    }

    /// Aggregate everything recorded so far; `None` when disabled.
    pub fn snapshot(&self) -> Option<AutopilotSnapshot> {
        let inner = self.inner.as_ref()?;
        let state = inner.lock();
        Some(AutopilotSnapshot {
            actions_total: state.actions_total,
            fallbacks: state.fallbacks,
            estimator_resets: state.estimator_resets,
            retrains: state.retrains,
            restores: state.restores,
            budget_grows: state.budget_grows,
            budget_shrinks: state.budget_shrinks,
            streams_on_fallback: state
                .ladders
                .values()
                .filter(|l| l.rung != Rung::Idle)
                .count() as u64,
            budget_initial: state.budget.as_ref().map(|c| c.initial).unwrap_or(0.0),
            budget_current: state.budget.as_ref().map(|c| c.current).unwrap_or(0.0),
            ledger: state.ledger.iter().cloned().collect(),
        })
    }
}

fn record(
    state: &mut AutopilotState,
    round: u64,
    stream: Option<u64>,
    action: &'static str,
    honoured: bool,
    detail: String,
) {
    state.actions_total += 1;
    if state.ledger.len() >= state.config.ledger_capacity.max(1) {
        state.ledger.pop_front();
    }
    state.ledger.push_back(AutopilotAction {
        round,
        stream,
        action: action.to_string(),
        honoured,
        detail,
    });
}

/// Nearest-rank percentile over a window; `None` on an empty window.
fn percentile(window: &VecDeque<f64>, pct: f64) -> Option<f64> {
    if window.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = window.iter().cloned().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((sorted.len() as f64 - 1.0) * pct).ceil() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{DecodeAll, FeedbackEvent, PacketContext};

    /// Gate double that logs which hooks fired.
    #[derive(Default)]
    struct Spy {
        calls: Vec<String>,
    }
    impl GatePolicy for Spy {
        fn name(&self) -> &'static str {
            "spy"
        }
        fn select(&mut self, _r: u64, c: &[PacketContext], _b: f64) -> Vec<usize> {
            c.iter().map(|x| x.stream_idx).collect()
        }
        fn feedback(&mut self, _e: &[FeedbackEvent]) {}
        fn autopilot_command(&mut self, command: Decision) -> bool {
            self.calls.push(match command {
                Decision::Fallback(i) => format!("fallback({i},true)"),
                Decision::Restore(i) => format!("fallback({i},false)"),
                Decision::ResetEstimator(i) => format!("reset({i})"),
                Decision::Retrain(i) => format!("retrain({i})"),
            });
            true
        }
    }

    /// Insight with stream 1 driven stale by a persistent 3x size shift.
    fn stale_insight() -> Insight {
        let ins = Insight::enabled();
        for round in 0..160u64 {
            let size = if round >= 100 { 3000 } else { 1000 };
            ins.observe_packet(1, round, false, size);
        }
        assert_eq!(ins.pulse().expect("enabled").stale, vec![1]);
        ins
    }

    #[test]
    fn disabled_handle_changes_nothing() {
        let ap = Autopilot::disabled();
        let mut gate = Spy::default();
        let ins = stale_insight();
        for round in 0..200 {
            assert_eq!(ap.observe_round(round, &mut gate, &ins, 1.0, 8.0, None), 8.0);
        }
        assert!(gate.calls.is_empty());
        assert!(ap.snapshot().is_none());
        assert_eq!(ins.pulse().expect("enabled").stale, vec![1], "flag kept");
    }

    #[test]
    fn ladder_walks_fallback_reset_retrain_restore_with_hysteresis() {
        let cfg = AutopilotConfig {
            hysteresis_rounds: 3,
            probation_rounds: 10,
            cooldown_rounds: 20,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = Spy::default();
        let ins = stale_insight();
        for round in 0..40 {
            ap.observe_round(round, &mut gate, &ins, 6.0, 8.0, None);
        }
        // Engage at round 2 (streak reaches 3), rungs at +2/+4, restore at
        // +10 — and nothing before the hysteresis threshold.
        assert_eq!(
            gate.calls,
            vec![
                "fallback(1,true)",
                "reset(1)",
                "retrain(1)",
                "fallback(1,false)",
            ]
        );
        let snap = ap.snapshot().expect("enabled");
        assert_eq!(snap.fallbacks, 1);
        assert_eq!(snap.estimator_resets, 1);
        assert_eq!(snap.retrains, 1);
        assert_eq!(snap.restores, 1);
        assert_eq!(snap.actions_total, 4);
        assert_eq!(snap.streams_on_fallback, 0, "restored");
        // Restore re-warmed the detectors: the flag is down and stays down
        // on the (now-normal) post-shift level, so nothing re-engages
        // even after the cooldown expires.
        assert!(ins.pulse().expect("enabled").stale.is_empty());
        for round in 40..120 {
            ins.observe_packet(1, round + 160, false, 3000);
            ap.observe_round(round, &mut gate, &ins, 6.0, 8.0, None);
        }
        assert_eq!(ap.snapshot().expect("enabled").actions_total, 4, "no thrash");
        let ledger = ap.snapshot().expect("enabled").ledger;
        assert_eq!(ledger.len(), 4);
        assert!(ledger.iter().all(|a| a.stream == Some(1) && a.honoured));
    }

    #[test]
    fn a_transient_flap_below_hysteresis_never_engages() {
        let ap = Autopilot::enabled(AutopilotConfig::default());
        let mut gate = Spy::default();
        let ins = Insight::enabled();
        for round in 0..60u64 {
            ins.observe_packet(0, round, false, 1000);
        }
        // Drift-free: the ladder must stay idle forever.
        for round in 0..60 {
            ap.observe_round(round, &mut gate, &ins, 6.0, 8.0, None);
        }
        assert!(gate.calls.is_empty());
        assert_eq!(ap.snapshot().expect("enabled").actions_total, 0);
    }

    #[test]
    fn unhonoured_rungs_are_recorded_as_such() {
        let cfg = AutopilotConfig {
            hysteresis_rounds: 1,
            probation_rounds: 6,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = DecodeAll; // default hooks: all unhonoured
        let ins = stale_insight();
        for round in 0..20 {
            ap.observe_round(round, &mut gate, &ins, 6.0, 8.0, None);
        }
        let snap = ap.snapshot().expect("enabled");
        assert_eq!(snap.actions_total, 4);
        assert!(snap.ledger.iter().all(|a| !a.honoured));
    }

    #[test]
    fn fat_slack_shrinks_the_budget_bounded_and_cooled() {
        let cfg = AutopilotConfig {
            budget_cooldown: 8,
            slack_window: 8,
            budget_min_factor: 0.5,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = Spy::default();
        let ins = Insight::disabled();
        let mut budget = 10.0;
        let mut moves = Vec::new();
        for round in 0..200 {
            // Only 30% of the budget is ever spent: slack is fat.
            let next = ap.observe_round(round, &mut gate, &ins, budget * 0.3, budget, None);
            if (next - budget).abs() > 1e-12 {
                moves.push((round, next));
            }
            budget = next;
        }
        assert!(!moves.is_empty(), "fat slack must shrink B");
        // Bounded steps, floor respected, cooldown separates moves.
        for w in moves.windows(2) {
            assert!(w[1].0 - w[0].0 >= 8, "moves too close: {moves:?}");
        }
        assert!(budget >= 5.0 - 1e-9, "floor breached: {budget}");
        assert!((budget - 5.0).abs() < 0.6, "should settle near the floor");
        let snap = ap.snapshot().expect("enabled");
        assert!(snap.budget_shrinks as usize == moves.len());
        assert_eq!(snap.budget_grows, 0);
        assert!((snap.budget_initial - 10.0).abs() < 1e-12);
        assert!((snap.budget_current - budget).abs() < 1e-12);
    }

    #[test]
    fn p99_breach_shrinks_under_an_slo() {
        let cfg = AutopilotConfig {
            slo_p99_us: Some(500.0),
            latency_window: 16,
            budget_cooldown: 8,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = Spy::default();
        let ins = Insight::disabled();
        let mut budget = 10.0;
        for round in 0..60 {
            // Saturated budget (so the slack trigger stays off) but slow
            // rounds: the latency trigger must shrink B.
            budget = ap.observe_round(round, &mut gate, &ins, budget, budget, Some(900.0));
        }
        let snap = ap.snapshot().expect("enabled");
        assert!(snap.budget_shrinks >= 1, "SLO breach must shrink");
        assert!(budget < 10.0);
        assert!(snap
            .ledger
            .iter()
            .any(|a| a.action == "budget_shrink" && a.detail.contains("SLO")));
    }

    #[test]
    fn saturated_budget_without_regret_pressure_holds_steady() {
        let ap = Autopilot::enabled(AutopilotConfig::default());
        let mut gate = Spy::default();
        let ins = Insight::disabled();
        let mut budget = 10.0;
        for round in 0..200 {
            budget = ap.observe_round(round, &mut gate, &ins, budget * 0.95, budget, None);
        }
        assert!((budget - 10.0).abs() < 1e-12, "no trigger, no move");
        assert_eq!(ap.snapshot().expect("enabled").actions_total, 0);
    }

    #[test]
    fn regret_grow_waits_out_the_warmup() {
        use crate::insight::{PacketOutcome, RoundOutcome};
        let cfg = AutopilotConfig {
            budget_warmup_rounds: 80,
            budget_cooldown: 8,
            slack_window: 8,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = Spy::default();
        let ins = Insight::enabled();
        let mut budget = 10.0;
        for round in 0..160u64 {
            // Constant per-round regret fits a linear (exponent ≈ 1)
            // trajectory, so the regret flag is up well before warmup ends.
            ins.record_round(&RoundOutcome {
                round,
                budget,
                spent: budget,
                offered: 2,
                decoded: 1,
                quarantined: 0,
                outcomes: &[
                    // Both fit the fractional oracle, but only one was
                    // decoded: one unit of regret every round, a linear
                    // (exponent ≈ 1) trajectory that raises the flag.
                    PacketOutcome {
                        cost: budget / 2.0,
                        necessary: true,
                        decoded: true,
                    },
                    PacketOutcome {
                        cost: budget / 2.0,
                        necessary: true,
                        decoded: false,
                    },
                ],
            });
            let next = ap.observe_round(round, &mut gate, &ins, budget, budget, None);
            if round < 80 {
                assert!(
                    (next - budget).abs() < 1e-12,
                    "grow fired at round {round}, inside the warmup"
                );
            }
            budget = next;
        }
        let snap = ap.snapshot().expect("enabled");
        assert!(snap.budget_grows >= 1, "grow must fire after warmup");
        assert!(snap
            .ledger
            .iter()
            .all(|a| a.action != "budget_grow" || a.round >= 80));
        assert!(budget > 10.0);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_interleaves_ledgers() {
        let mut a = AutopilotSnapshot {
            actions_total: 2,
            fallbacks: 1,
            restores: 1,
            budget_initial: 8.0,
            budget_current: 8.0,
            ledger: vec![AutopilotAction {
                round: 5,
                stream: Some(0),
                action: "fallback".into(),
                honoured: true,
                detail: String::new(),
            }],
            ..AutopilotSnapshot::default()
        };
        let b = AutopilotSnapshot {
            actions_total: 1,
            budget_shrinks: 1,
            budget_initial: 10.0,
            budget_current: 9.0,
            streams_on_fallback: 1,
            ledger: vec![AutopilotAction {
                round: 2,
                stream: None,
                action: "budget_shrink".into(),
                honoured: true,
                detail: String::new(),
            }],
            ..AutopilotSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.actions_total, 3);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.budget_shrinks, 1);
        assert_eq!(a.streams_on_fallback, 1);
        assert!((a.budget_initial - 18.0).abs() < 1e-12);
        assert!((a.budget_current - 17.0).abs() < 1e-12);
        assert_eq!(a.ledger.len(), 2);
        assert_eq!(a.ledger[0].round, 2, "interleaved by round");
    }

    #[test]
    fn ledger_is_bounded() {
        let cfg = AutopilotConfig {
            hysteresis_rounds: 1,
            probation_rounds: 5,
            cooldown_rounds: 0,
            ledger_capacity: 6,
            ..AutopilotConfig::default()
        };
        let ap = Autopilot::enabled(cfg);
        let mut gate = Spy::default();
        // A twitchy detector config so the 1.6x steps below keep
        // re-flagging (the test exercises ledger bounding, not the
        // burst-robust production thresholds).
        let ins = Insight::with_config(crate::insight::InsightConfig {
            ph_delta: 0.1,
            ph_lambda: 5.0,
            ph_warmup: 24,
            ..crate::insight::InsightConfig::default()
        });
        // Keep the stream permanently stale: flag re-fires after every
        // restore because the level keeps shifting.
        let mut size = 1000u64;
        for round in 0..400u64 {
            if round % 30 == 0 {
                size = size * 8 / 5;
            }
            ins.observe_packet(0, round, false, size);
            ap.observe_round(round, &mut gate, &ins, 6.0, 8.0, None);
        }
        let snap = ap.snapshot().expect("enabled");
        assert!(snap.actions_total > 6, "ladder must have cycled");
        assert_eq!(snap.ledger.len(), 6, "ledger must stay bounded");
    }
}
