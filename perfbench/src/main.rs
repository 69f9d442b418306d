//! The repository benchmark: PacketGame gating a replayed chunk corpus
//! through the threaded runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload frontend-1k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run sets up (corpus + predictor training + construction) several
//! times and reports the median CPU time as `setup_s`, then replays the
//! corpus in passes — a fresh pipeline and gate each — until `--seconds`
//! have been measured. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` splits the time between probed passes without the runtime's
//! trace (the overhead baseline) and probed passes with it, and prints the
//! per-layer metrics. See README.md.

mod corpus;
mod gate;
mod metrics;
mod pass;
mod probe;
mod source;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use packetgame::training::test_config;
use packetgame::PacketGameConfig;
use pg_nn::serialize::WeightFile;
use pg_pipeline::ConcurrentPipeline;

use corpus::Corpus;
use metrics::Metric;
use metrics::PassSummary;
use pass::Mode;
use workload::Workload;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seed of predictor training, the same in every run: the gate under test
/// is one trained model, and the run seed varies the traffic it gates.
/// Training scenes come from `mix(TRAINING_SEED, s)` and a corpus stream's
/// from `mix(seed, i)`, so the run seed equal to it is refused: no other
/// run shares a scene with the training set.
const TRAINING_SEED: u64 = 0x0074_7261_696e; // "train"

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    if seed == TRAINING_SEED {
        return Err(format!(
            "--seed {seed} is the training seed; choose another"
        ));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What set-up hands to the timed phase.
struct Setup {
    corpus: Corpus,
    config: PacketGameConfig,
    weights: WeightFile,
}

/// Generate the corpus, train the predictor, construct the gate and the
/// pipeline — everything a pass needs that is not the pass itself.
fn set_up(wl: &Workload, seed: u64) -> Setup {
    let corpus = Corpus::generate(
        wl.task,
        wl.encoder,
        seed,
        wl.streams,
        wl.scene_offset,
        wl.rounds,
    );
    let config = test_config();
    let predictor = packetgame::train_for_task(wl.task, &config, TRAINING_SEED);
    let weights = predictor.to_weight_file();
    let gate = pass::packetgame(&config, &weights);
    let pipeline = ConcurrentPipeline::new(pass::pipeline_config(wl, &corpus));
    std::hint::black_box((&gate, &pipeline));
    Setup {
        corpus,
        config,
        weights,
    }
}

/// Replay passes until `seconds` of them have been measured, stopping
/// early rather than overshooting by more than half a pass.
fn run_passes(
    wl: &Workload,
    setup: &Setup,
    seconds: f64,
    mode: Mode,
    rss: &probe::RssSampler,
) -> Vec<PassSummary> {
    let mut passes = Vec::new();
    let mut elapsed = 0.0;
    loop {
        rss.take_peak();
        let mut p = pass::run_pass(wl, &setup.corpus, &setup.config, &setup.weights, mode, rss);
        p.peak_rss = rss.take_peak();
        let wall = p.wall_ns as f64 / 1e9;
        elapsed += wall;
        passes.push(p);
        if elapsed + wall / 2.0 >= seconds {
            return passes;
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; a non-finite value already failed the run.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;

    // Set-up is single-threaded, so its CPU time is its wall time minus the
    // time the host did not run the process; only the CPU time is gated.
    let mut setup_cpu = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_wall = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats do not stack memory.
        drop(setup.take());
        let (cpu0, t0) = (probe::process_cpu_ns(), Instant::now());
        setup = Some(set_up(wl, args.seed));
        setup_wall.push(t0.elapsed().as_secs_f64());
        setup_cpu.push((probe::process_cpu_ns() - cpu0) as f64 / 1e9);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = metrics::median(&setup_cpu);

    let rss_after_setup = probe::rss_bytes();
    let sampler = probe::RssSampler::start();
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        (
            run_passes(wl, &setup, half, Mode::Probed, &sampler),
            run_passes(wl, &setup, half, Mode::Traced, &sampler),
        )
    } else {
        (
            run_passes(wl, &setup, args.seconds, Mode::Plain, &sampler),
            Vec::new(),
        )
    };
    sampler.finish();

    let corpus = &setup.corpus;
    let all = || untraced.iter().chain(&traced);
    let attempted: u64 = all().map(|p| p.stream_rounds).sum();
    let failed: u64 = all().map(|p| p.failed).sum();
    let mut violations: Vec<String> = all().flat_map(|p| p.violations.iter().cloned()).collect();

    let metrics = if args.trace {
        let (per_layer, failures) = metrics::per_layer(&traced, &untraced);
        violations.extend(failures);
        per_layer
    } else {
        metrics::end_to_end(&untraced, setup_s, rss_after_setup)
    };
    violations.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name)),
    );
    for v in &violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = violations.is_empty() && failed == 0;

    let env = pg_bench::envprobe::Environment::probe();
    // What the gate is measured against: the corpus's necessary share, and
    // the accuracy of a gate that decodes nothing and of one that keeps
    // the same share of packets at random.
    let necessary = corpus.necessary_share();
    let decoded = metrics::decoded_share(all());
    let daytime = corpus.daytime().map_or("null".to_string(), |(from, to, activity)| {
        format!("{{\"from_hour\": {from:.2}, \"to_hour\": {to:.2}, \"activity_mean\": {activity:.4}}}")
    });
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"environment\": {}, \
         \"corpus_mb\": {}, \"streams\": {}, \"rounds_per_pass\": {}, \"scene_offset\": {}, \
         \"daytime\": {daytime}, \"necessary_share\": {necessary}, \"decoded_share\": {decoded}, \
         \"decode_nothing_accuracy\": {}, \"random_gate_accuracy\": {}, \
         \"untraced_passes\": {}, \"traced_passes\": {}, \"setup_cpu_s\": {:?}, \"setup_wall_s\": {:?}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failed_fraction\": {}, \"violations\": {}}}}}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        serde_json::to_string(&env).expect("environment serializes"),
        corpus.bytes as f64 / (1024.0 * 1024.0),
        corpus.streams,
        corpus.rounds,
        corpus.scene_offset,
        1.0 - necessary,
        1.0 - necessary * (1.0 - decoded),
        untraced.len(),
        traced.len(),
        setup_cpu,
        setup_wall,
        failed as f64 / attempted.max(1) as f64,
        violations.len(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
