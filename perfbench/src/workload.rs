//! The benchmark's workloads. README.md records why each was chosen.

use std::time::Duration;

use pg_codec::{Codec, EncoderConfig};
use pg_pipeline::DecodeWorkModel;
use pg_scene::TaskKind;

/// Decode worker threads of every workload: no more than the 2 cores of the
/// host the bounds were measured on.
pub const DECODE_WORKERS: usize = 2;

/// Spin iterations per decode-cost unit on `cameras-25fps`, one fixed
/// constant: at 25 rounds/s the whole process then uses about 0.9 of a
/// core, most of it in decode.
const CAMERA_SPIN_PER_UNIT: u64 = 200_000;

/// One workload: the traffic, the runtime settings and the load shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Concurrent streams `m`.
    pub streams: usize,
    /// Frames each stream's scene runs before the corpus starts, so the
    /// replayed slice is daytime traffic: the generators' virtual day
    /// starts at midnight and passes one hour every 62.5 frames.
    pub scene_offset: u64,
    /// Rounds in the corpus; runs replay it in passes.
    pub rounds: u64,
    /// Inference task (single-task head).
    pub task: TaskKind,
    /// Encoder settings of every stream.
    pub encoder: EncoderConfig,
    /// Synthetic decode work.
    pub work: DecodeWorkModel,
    /// `Some(interval)` = open loop at one round per interval; `None` =
    /// closed loop.
    pub interval: Option<Duration>,
    /// Telemetry with the decision-quality monitor on, as an operator
    /// runs it.
    pub observability: bool,
}

impl Workload {
    /// Per-round decode budget: `m / 4` cost units.
    pub fn budget(&self) -> f64 {
        self.streams as f64 / 4.0
    }
}

/// All workloads.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "frontend-1k",
            streams: 1024,
            // 14:24–16:00, the build-up to the evening peak.
            scene_offset: 900,
            rounds: 100,
            task: TaskKind::AnomalyDetection,
            encoder: EncoderConfig::new(Codec::H264)
                .with_resolution(1280, 720)
                .with_bitrate(1_000_000),
            work: DecodeWorkModel::spin(0),
            interval: None,
            observability: false,
        },
        Workload {
            name: "cameras-25fps",
            streams: 256,
            // 08:24–09:36, the morning peak.
            scene_offset: 525,
            rounds: 75,
            task: TaskKind::PersonCounting,
            encoder: EncoderConfig::new(Codec::H264),
            work: DecodeWorkModel::spin(CAMERA_SPIN_PER_UNIT),
            interval: Some(Duration::from_millis(40)),
            observability: true,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
