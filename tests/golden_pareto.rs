//! Golden tests for Pareto mode: the frontier is part of the report
//! artefact, so it inherits the byte-identity contract — deterministic
//! across repeated runs and study shards — and
//! scalar-mode reports must not change by a byte just because the
//! feature exists.

use std::hint::black_box;
use std::time::Instant;

use edgetune::prelude::*;

fn pareto_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(1234)
        .with_pareto(5)
}

fn scalar_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(1234)
}

fn report_of(config: EdgeTuneConfig) -> TuningReport {
    EdgeTune::new(config).run().expect("golden run completes")
}

fn json_of(config: EdgeTuneConfig) -> String {
    report_of(config).to_json().expect("report serialises")
}

#[test]
fn pareto_report_is_byte_identical_across_study_shard_counts() {
    let baseline = json_of(pareto_config().with_study_shards(1));
    for shards in [2, 4] {
        let sharded = json_of(pareto_config().with_study_shards(shards));
        assert_eq!(
            baseline, sharded,
            "{shards} study shards changed the pareto artefact"
        );
    }
}

#[test]
fn pareto_report_is_byte_identical_across_repeated_runs() {
    assert_eq!(json_of(pareto_config()), json_of(pareto_config()));
}

#[test]
fn the_frontier_is_mutually_non_dominated_and_bounded() {
    let report = report_of(pareto_config());
    let frontier = report.frontier();
    assert!(
        !frontier.is_empty(),
        "a completed pareto study reports a frontier"
    );
    assert!(frontier.len() <= 5, "the frontier respects its k cap");
    for (i, a) in frontier.iter().enumerate() {
        for (j, b) in frontier.iter().enumerate() {
            if i != j {
                assert!(
                    !a.vector.dominates(&b.vector),
                    "frontier point {i} dominates point {j}"
                );
            }
        }
    }
    // The scalar winner's accuracy is attainable on the frontier: the
    // frontier covers the best trade-offs, not a worse subset.
    let best_accuracy = report.best_accuracy();
    let frontier_max = frontier
        .iter()
        .map(|p| p.vector.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        frontier_max >= best_accuracy - 1e-12,
        "frontier max accuracy {frontier_max} lags the scalar winner {best_accuracy}"
    );
}

#[test]
fn pareto_mode_round_trips_through_json() {
    let report = report_of(pareto_config());
    let json = report.to_json().unwrap();
    assert!(json.contains("\"frontier\""));
    let restored = TuningReport::from_json(&json).expect("parses");
    assert_eq!(restored.frontier(), report.frontier());
    assert_eq!(restored.to_json().unwrap(), json);
}

#[test]
fn scalar_reports_do_not_mention_the_feature() {
    // The scalar artefact is a frozen byte contract: no frontier, no
    // per-trial objective vectors, whether or not pareto mode exists.
    let json = json_of(scalar_config());
    assert!(
        !json.contains("\"frontier\""),
        "scalar reports must not grow a frontier key"
    );
    assert!(
        !json.contains("\"vector\""),
        "scalar trial records must not grow a vector key"
    );
}

#[test]
fn pareto_resume_reproduces_the_uninterrupted_bytes() {
    // Halting a pareto study and resuming from the checkpoint must not
    // lose the objective vectors of the replayed prefix.
    let dir = std::env::temp_dir().join("edgetune-golden-pareto-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");
    std::fs::remove_file(&path).ok();

    let full = json_of(pareto_config());
    let _halted = json_of(
        pareto_config()
            .with_checkpoint_path(&path)
            .with_halt_after_rungs(2),
    );
    assert!(path.exists(), "the halted run left a checkpoint");
    let resumed = json_of(pareto_config().with_checkpoint_path(&path).resuming());
    assert_eq!(
        full, resumed,
        "resume dropped frontier data from the replayed prefix"
    );
    std::fs::remove_file(&path).ok();
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning report bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A HyperBand Pareto study large enough that the model-driven sampler
/// engages: past the first 8 vector observations every suggestion runs
/// the dominance-layer split and its hypervolume-contribution ranking,
/// which the other golden tests (6 configs, no HyperBand) never reach.
fn modelled_pareto_config(seed: u64) -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 27))
        .with_seed(seed)
        .with_pareto(8)
}

#[test]
fn pareto_study_bytes_match_the_pinned_digest() {
    // Pinned from the report bytes before the contribution scoring was
    // rewritten; any change in the sampler's choices moves them.
    for (seed, pinned) in [(7, 0xf744_461c_b838_7321), (11, 0xe8d7_4ffa_2098_14ef)] {
        let json = json_of(modelled_pareto_config(seed));
        let digest = fnv1a64(json.as_bytes());
        assert_eq!(
            digest, pinned,
            "seed {seed}: pareto report digest {digest:#018x} moved from {pinned:#018x}"
        );
    }
}

/// Host nanoseconds one study takes to run to its report.
fn study_ns(config: EdgeTuneConfig) -> u128 {
    let start = Instant::now();
    black_box(report_of(black_box(config)));
    start.elapsed().as_nanos()
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Choosing the next config must stay cheap next to running a trial:
/// a 64-trial Pareto study may cost at most 4x its scalar twin. Runs
/// alternate between the two sides so drift in machine load hits both.
#[test]
#[ignore = "timing: CI runs it in release"]
fn pareto_study_stays_within_4x_of_the_scalar_twin() {
    let scalar = || {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(64, 2.0, 27))
            .with_seed(7)
    };
    let (mut scalar_ns, mut pareto_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        scalar_ns.push(study_ns(scalar()));
        pareto_ns.push(study_ns(scalar().with_pareto(8)));
    }
    let (scalar_ns, pareto_ns) = (median(scalar_ns), median(pareto_ns));
    assert!(
        pareto_ns <= 4 * scalar_ns,
        "64-trial pareto study ({pareto_ns} ns) exceeds 4x its scalar twin ({scalar_ns} ns)"
    );
}
