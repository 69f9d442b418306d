//! Fault-injection integration tests: the runtime must contain malformed
//! input to the offending stream, never panic, and keep every healthy
//! stream's output bit-identical to an uninjected run.

use proptest::prelude::*;

use pg_codec::{CostModel, EncoderConfig};
use pg_net::ImpairmentConfig;
use pg_pipeline::concurrent::{ConcurrentConfig, ConcurrentPipeline, DecodeWorkModel};
use pg_pipeline::gate::DecodeAll;
use pg_pipeline::netround::Transport;
use pg_pipeline::{
    ChunkFaultMode, FaultPlan, NetworkedRoundSimulator, QuarantineConfig, RoundSimulator,
    SimConfig, Telemetry,
};
use pg_scene::TaskKind;

fn concurrent_config(streams: usize, rounds: u64, seed: u64) -> ConcurrentConfig {
    ConcurrentConfig {
        streams,
        rounds,
        decode_workers: 4,
        budget_per_round: 1e9,
        work: DecodeWorkModel::spin(5),
        seed,
        quarantine: QuarantineConfig::new(8, 1),
        ..ConcurrentConfig::default()
    }
}

/// The ISSUE's acceptance criterion: corrupt one stream out of 64 and the
/// other 63 streams' frame counts are identical to an uninjected run, with
/// the quarantined stream visible in telemetry.
#[test]
fn corrupt_one_of_64_streams_leaves_the_other_63_identical() {
    let streams = 64;
    let rounds = 40;
    let victim = 17;

    let clean = ConcurrentPipeline::new(concurrent_config(streams, rounds, 5)).run(&mut DecodeAll);

    let mut cfg = concurrent_config(streams, rounds, 5);
    cfg.faults = FaultPlan::new(99)
        .with_corrupt(victim, 12, ChunkFaultMode::Truncate)
        .with_corrupt(victim, 13, ChunkFaultMode::Truncate)
        .with_corrupt(victim, 14, ChunkFaultMode::Truncate);
    let injected = ConcurrentPipeline::new(cfg)
        .with_telemetry(Telemetry::enabled())
        .try_run(&mut DecodeAll)
        .expect("injected run must complete");

    for i in 0..streams {
        if i == victim {
            continue;
        }
        assert_eq!(
            injected.frames_per_stream[i], clean.frames_per_stream[i],
            "healthy stream {i} diverged from the clean run"
        );
    }
    assert!(
        injected.frames_per_stream[victim] < clean.frames_per_stream[victim],
        "the corrupted stream must actually lose frames"
    );
    assert!(injected.health.streams_ever_quarantined >= 1);
    assert!(injected.health.degraded_events >= 1);
    assert!(injected.faults.iter().all(|f| f.stream_idx == Some(victim)));

    // The quarantined stream is reported through telemetry.
    let snapshot = injected.telemetry.expect("telemetry was enabled");
    assert!(snapshot.faults.total >= 1);
    assert!(snapshot.faults.degraded_events >= 1);
    let entry = snapshot
        .faults
        .streams
        .iter()
        .find(|s| s.stream_idx == victim)
        .expect("victim stream missing from the fault ledger");
    assert!(entry.degraded >= 1);
    assert!(
        snapshot
            .faults
            .streams
            .iter()
            .all(|s| s.stream_idx == victim),
        "no healthy stream may appear in the fault ledger"
    );
}

/// No `.expect(` / `.unwrap(` may be reachable from malformed external
/// input in the pipeline execution paths. Enforced mechanically: the
/// production half of each execution-mode source file (everything before
/// `#[cfg(test)]`) must not contain either call.
#[test]
fn execution_paths_contain_no_expect_or_unwrap() {
    let sources = [
        (
            "round.rs",
            include_str!("../crates/pg-pipeline/src/round.rs"),
        ),
        (
            "replay.rs",
            include_str!("../crates/pg-pipeline/src/replay.rs"),
        ),
        (
            "netround.rs",
            include_str!("../crates/pg-pipeline/src/netround.rs"),
        ),
        (
            "concurrent.rs",
            include_str!("../crates/pg-pipeline/src/concurrent.rs"),
        ),
        (
            "fault.rs",
            include_str!("../crates/pg-pipeline/src/fault.rs"),
        ),
    ];
    for (name, src) in sources {
        let production = src.split("#[cfg(test)]").next().unwrap_or(src);
        for forbidden in [".expect(", ".unwrap("] {
            assert!(
                !production.contains(forbidden),
                "{name} production code contains {forbidden}"
            );
        }
    }
}

/// The round core runs every simulator's decode/infer step, so it is held
/// to the same rule as the execution-mode files above.
#[test]
fn round_core_contains_no_expect_or_unwrap() {
    let src = include_str!("../crates/pg-pipeline/src/roundcore.rs");
    let production = src.split("#[cfg(test)]").next().unwrap_or(src);
    assert!(!production.contains(".expect(") && !production.contains(".unwrap("));
}

fn any_mode() -> impl Strategy<Value = ChunkFaultMode> {
    prop_oneof![
        Just(ChunkFaultMode::Truncate),
        Just(ChunkFaultMode::BitFlip)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary corruption in the round simulator: never panics, keeps
    /// budget discipline, and attributes every fault to the victim.
    #[test]
    fn round_sim_contains_arbitrary_corruption(
        seed in 1u64..500,
        victim in 0usize..6,
        round in 0u64..80,
        mode in any_mode(),
        budget in 2.0f64..12.0,
    ) {
        let config = SimConfig {
            budget_per_round: budget,
            segments: 4,
            ..SimConfig::default()
        };
        let report = RoundSimulator::uniform(TaskKind::PersonCounting, 6, seed, config)
            .with_faults(
                FaultPlan::new(seed)
                    .with_corrupt(victim, round, mode)
                    .with_corrupt(victim, round + 1, mode),
            )
            .with_quarantine(QuarantineConfig::new(8, 1))
            .run(&mut DecodeAll, 80);
        prop_assert!(
            report.mean_cost_per_round() < budget + CostModel::default().max_cost() * 6.0,
            "budget discipline violated: {} per round",
            report.mean_cost_per_round()
        );
        prop_assert!(report.faults.iter().all(|f| f.stream_idx == Some(victim)));
        prop_assert!(report.health.dead_streams <= 1);
    }

    /// Arbitrary loss in the networked simulator: never panics, streams
    /// are only ever quarantined (not killed), decode count stays sane.
    #[test]
    fn networked_sim_survives_arbitrary_loss(
        seed in 1u64..500,
        loss in 0.0f64..0.35,
    ) {
        let report = NetworkedRoundSimulator::new(
            TaskKind::AnomalyDetection,
            4,
            seed,
            EncoderConfig::new(pg_codec::Codec::H264).with_gop(10),
            ImpairmentConfig::lossy(loss),
            Transport::Raw,
            1e9,
        )
        .run(&mut DecodeAll, 120);
        prop_assert_eq!(report.health.dead_streams, 0);
        prop_assert!(report.packets_decoded <= report.packets_arrived);
        prop_assert!(report.packets_arrived <= report.frames_sent);
        prop_assert!(report.faults.iter().all(|f| f.stream_idx.is_some()));
    }

    /// Arbitrary corruption in the concurrent pipeline: `try_run`
    /// completes and every healthy stream decodes every round.
    #[test]
    fn concurrent_pipeline_contains_arbitrary_corruption(
        seed in 1u64..200,
        victim in 0usize..6,
        round in 0u64..30,
        mode in any_mode(),
    ) {
        let mut cfg = concurrent_config(6, 30, seed);
        cfg.faults = FaultPlan::new(seed).with_corrupt(victim, round, mode);
        let report = ConcurrentPipeline::new(cfg).try_run(&mut DecodeAll);
        prop_assert!(report.is_ok(), "{report:?}");
        let report = report.unwrap();
        for (i, &frames) in report.frames_per_stream.iter().enumerate() {
            if i != victim {
                prop_assert_eq!(frames, 30, "healthy stream {} lost frames", i);
            }
        }
        prop_assert!(report.faults.iter().all(|f| f.stream_idx == Some(victim)));
    }
}
