//! Host-time probes for the traced run.
//!
//! Layers the engine calls through a public trait are timed by wrapping
//! that trait: [`TimedBackend`] around the `TrainingBackend` a study
//! runs on, [`TimedTuner`] around the serving runtime's `OnlineTuner`.
//! Layers no public trait reaches are timed by replaying the finished
//! job's recorded inputs through their public functions: the sampler
//! (the scheduler driven again over the recorded outcomes), scheduler
//! promotion, the Pareto front, the inference sweep, checkpoint writes,
//! frame encoding and the session handshake.
//!
//! Every timed call becomes a host-time span kept in memory by
//! [`Spans`] and written out once, when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use edgetune::backend::{BackendSpec, SimTrainingBackend, TrainingBackend, TrialMeasurement};
use edgetune::checkpoint::{
    load_resume_state, ShardCheckpoint, ShardManifest, StudyGlobals, StudyResume,
};
use edgetune::engine::ShardPlan;
use edgetune::fabric::{RungKey, ShardResultMsg, ShardTask, TaskTrial};
use edgetune::inference::{InferenceSpace, InferenceTuningServer};
use edgetune::timeline::Timeline;
use edgetune::EdgeTuneConfig;
use edgetune_device::profile::WorkProfile;
use edgetune_net::{client_hello, Hello};
use edgetune_runtime::frame::{encode_frame, read_frame, FrameKind};
use edgetune_serving::{OnlineTuner, ServingConfig};
use edgetune_trace::{span_summary, ChromeTrace, SpanStat, Tracer, TrackId};
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::pareto::{promotion_layers, FrontPoint, ParetoFront, ParetoTpeSampler};
use edgetune_tuner::sampler::{Sampler, TpeSampler};
use edgetune_tuner::scheduler::{Evaluate, HyperBand, PromotionRule};
use edgetune_tuner::space::{Config, SearchSpace};
use edgetune_tuner::trial::{TrialOutcome, TrialRecord};
use edgetune_tuner::ShardHistory;
use edgetune_tuner::{History, InferenceObjective};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;

/// Jobs whose spans a traced run keeps: enough to profile, few enough
/// that the spans of a long run stay small in memory.
pub const SPAN_JOBS: usize = 8;

/// Host-time spans of one traced run, kept in memory until written.
pub struct Spans {
    tracer: Tracer,
    origin: Instant,
    job: TrackId,
    replay: TrackId,
    jobs: Cell<usize>,
}

impl Spans {
    pub fn new() -> Self {
        let tracer = Tracer::new();
        let job = tracer.track("perfbench", "job");
        let replay = tracer.track("perfbench", "replay");
        Spans {
            tracer,
            origin: Instant::now(),
            job,
            replay,
            jobs: Cell::new(0),
        }
    }

    /// Starts the spans of the next job; spans after the first
    /// [`SPAN_JOBS`] jobs are dropped.
    pub fn begin_job(&self) {
        self.jobs.set(self.jobs.get() + 1);
    }

    fn keeps(&self) -> bool {
        self.jobs.get() <= SPAN_JOBS
    }

    fn at(&self, t: Instant) -> Seconds {
        Seconds::new(t.saturating_duration_since(self.origin).as_secs_f64())
    }

    /// A span on the job track: the traced job itself, or a call the
    /// job made through a wrapped trait (nested inside the job span).
    pub fn job(&self, name: &str, (from, to): (Instant, Instant)) {
        if !self.keeps() {
            return;
        }
        self.tracer
            .span(self.job, name, "host", self.at(from), self.at(to));
    }

    /// A span on the replay track.
    pub fn replay(&self, name: &str, (from, to): (Instant, Instant)) {
        if !self.keeps() {
            return;
        }
        self.tracer
            .span(self.replay, name, "replay", self.at(from), self.at(to));
    }

    /// Per-span-name totals with self time (a span's duration minus the
    /// spans nested directly inside it on its track).
    pub fn summary(&self) -> Vec<SpanStat> {
        span_summary(&ChromeTrace::from_tracer(&self.tracer))
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        ChromeTrace::from_tracer(&self.tracer)
            .write(path)
            .map_err(|e| e.to_string())
    }
}

/// Times `f`, returning its value and the `(start, end)` instants.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let value = f();
    (value, (start, Instant::now()))
}

pub fn elapsed((from, to): (Instant, Instant)) -> Duration {
    to.saturating_duration_since(from)
}

// ---------------------------------------------------------------------------
// Wrapped traits
// ---------------------------------------------------------------------------

/// The simulated backend with every `run_trial` timed. Everything else
/// delegates, so a study on it reports the same bytes as on the bare
/// backend.
pub struct TimedBackend {
    inner: SimTrainingBackend,
    pub calls: Vec<(Instant, Instant)>,
}

impl TimedBackend {
    pub fn new(inner: SimTrainingBackend) -> Self {
        TimedBackend {
            inner,
            calls: Vec::new(),
        }
    }
}

impl TrainingBackend for TimedBackend {
    fn search_space(&self) -> SearchSpace {
        self.inner.search_space()
    }

    fn architecture(&self, config: &Config) -> (String, WorkProfile) {
        self.inner.architecture(config)
    }

    fn run_trial(&mut self, config: &Config, budget: TrialBudget) -> TrialMeasurement {
        let (measurement, span) = timed(|| self.inner.run_trial(config, budget));
        self.calls.push(span);
        measurement
    }

    fn fault_cursor(&self) -> u64 {
        self.inner.fault_cursor()
    }

    fn set_fault_cursor(&mut self, cursor: u64) {
        self.inner.set_fault_cursor(cursor);
    }

    fn parallel_snapshot(&self) -> Option<Box<dyn TrainingBackend + Send>> {
        self.inner.parallel_snapshot()
    }

    fn process_spec(&self) -> Option<BackendSpec> {
        self.inner.process_spec()
    }
}

/// An online tuner with every drift re-tune timed.
pub struct TimedTuner<'a> {
    inner: &'a dyn OnlineTuner,
    pub calls: RefCell<Vec<(Instant, Instant)>>,
}

impl<'a> TimedTuner<'a> {
    pub fn new(inner: &'a dyn OnlineTuner) -> Self {
        TimedTuner {
            inner,
            calls: RefCell::new(Vec::new()),
        }
    }
}

impl OnlineTuner for TimedTuner<'_> {
    fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig> {
        let (config, span) = timed(|| self.inner.retune(estimated_rate, seed));
        self.calls.borrow_mut().push(span);
        config
    }
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

/// One scheduler rung as the replay saw it: trial ids
/// `first..first + len`, in bracket `bracket`.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub bracket: u32,
    pub first: u64,
    pub len: usize,
    /// False when the bracket continues after this rung, i.e. the rung
    /// was promoted from.
    pub last_in_bracket: bool,
}

/// What replaying the scheduler over a study's recorded outcomes found.
pub struct SchedulerReplay {
    /// `suggest` calls, in order.
    pub suggests: Vec<(Instant, Instant)>,
    /// Total time in `observe`.
    pub observe: Duration,
    /// Wall time of the whole replay: sampler calls plus the
    /// scheduler's own bookkeeping (observation lists, promotion).
    pub wall: Duration,
    pub rungs: Vec<Rung>,
    /// True when every replayed suggestion equals the recorded
    /// configuration: the sampler timed is the one the study ran.
    pub faithful: bool,
}

/// The study's sampler with its calls timed.
#[derive(Debug)]
struct TimedSampler {
    inner: Box<dyn Sampler>,
    suggests: Vec<(Instant, Instant)>,
    observe: Duration,
}

impl Sampler for TimedSampler {
    fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config {
        let (config, span) = timed(|| self.inner.suggest(space, observations));
        self.suggests.push(span);
        config
    }

    fn observe(&mut self, config: &Config, outcome: &TrialOutcome) {
        let ((), span) = timed(|| self.inner.observe(config, outcome));
        self.observe += elapsed(span);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Answers each rung with the recorded outcomes.
struct ReplayEvaluator<'a> {
    records: &'a [TrialRecord],
    bracket: u32,
    rungs: Vec<Rung>,
    faithful: bool,
}

impl ReplayEvaluator<'_> {
    /// The recorded outcome of trial `id`; trial ids are history
    /// positions.
    fn recorded(&mut self, id: u64, config: &Config, budget: TrialBudget) -> TrialOutcome {
        match usize::try_from(id).ok().and_then(|i| self.records.get(i)) {
            Some(r) => {
                self.faithful &= r.id == id && r.config == *config && r.budget == budget;
                r.outcome
            }
            None => {
                self.faithful = false;
                self.records[0].outcome
            }
        }
    }
}

impl Evaluate for ReplayEvaluator<'_> {
    fn evaluate(&mut self, id: u64, config: &Config, budget: TrialBudget) -> TrialOutcome {
        self.recorded(id, config, budget)
    }

    fn evaluate_rung(&mut self, trials: Vec<(u64, Config, TrialBudget)>) -> Vec<TrialOutcome> {
        if let Some(&(first, _, _)) = trials.first() {
            self.rungs.push(Rung {
                bracket: self.bracket,
                first,
                len: trials.len(),
                last_in_bracket: true,
            });
        }
        trials
            .iter()
            .map(|(id, config, budget)| self.recorded(*id, config, *budget))
            .collect()
    }

    fn on_bracket_start(&mut self, bracket: u32) {
        self.bracket = bracket;
    }
}

/// Drives the study's scheduler and sampler again over its recorded
/// outcomes, timing every `suggest`. Only the default TPE sampler is
/// replayed, which is what every study workload runs.
pub fn replay_scheduler(
    config: &EdgeTuneConfig,
    space: &SearchSpace,
    history: &History,
) -> SchedulerReplay {
    let seed = SeedStream::new(config.seed).child("sampler");
    let (inner, promotion): (Box<dyn Sampler>, _) = match config.pareto {
        Some(_) => (
            Box::new(ParetoTpeSampler::new(seed)),
            PromotionRule::FrontMembership,
        ),
        None => (Box::new(TpeSampler::new(seed)), PromotionRule::ScalarRank),
    };
    let mut sampler = TimedSampler {
        inner,
        suggests: Vec::new(),
        observe: Duration::ZERO,
    };
    let mut evaluator = ReplayEvaluator {
        records: history.records(),
        bracket: 0,
        rungs: Vec::new(),
        faithful: true,
    };
    let (replayed, span) = timed(|| {
        HyperBand::new(config.scheduler)
            .with_promotion(promotion)
            .run(&mut sampler, space, &config.budget, &mut evaluator)
    });
    let mut rungs = evaluator.rungs;
    for i in 1..rungs.len() {
        rungs[i - 1].last_in_bracket = rungs[i].bracket != rungs[i - 1].bracket;
    }
    SchedulerReplay {
        suggests: sampler.suggests,
        observe: sampler.observe,
        wall: elapsed(span),
        rungs,
        faithful: evaluator.faithful && replayed.len() == history.len(),
    }
}

fn rung_records<'a>(records: &'a [TrialRecord], rung: &Rung) -> &'a [TrialRecord] {
    let first = usize::try_from(rung.first).unwrap_or(usize::MAX);
    records
        .get(first..first.saturating_add(rung.len))
        .unwrap_or(&[])
}

/// Times `promotion_layers` on every rung a Pareto study promoted from.
pub fn replay_promotion(records: &[TrialRecord], rungs: &[Rung]) -> Vec<(Instant, Instant)> {
    rungs
        .iter()
        .filter(|rung| !rung.last_in_bracket)
        .map(|rung| {
            let outcomes: Vec<TrialOutcome> = rung_records(records, rung)
                .iter()
                .map(|r| r.outcome)
                .filter(|o| !o.is_failed())
                .collect();
            let (layers, span) = timed(|| promotion_layers(&outcomes));
            std::hint::black_box(layers);
            span
        })
        .collect()
}

/// Inserts every vectored trial into a fresh `ParetoFront`, then takes
/// its hypervolume against a reference just beyond the worst observed
/// cost on each axis. Returns (ns per insert, hypervolume span).
pub fn replay_front(records: &[TrialRecord]) -> Option<(f64, (Instant, Instant))> {
    let points: Vec<FrontPoint> = records
        .iter()
        .filter_map(|r| {
            r.outcome.vector.map(|vector| FrontPoint {
                config: r.config.clone(),
                vector,
                trial: r.id,
            })
        })
        .collect();
    if points.is_empty() {
        return None;
    }
    let mut reference = [f64::NEG_INFINITY; 3];
    for point in &points {
        for (r, c) in reference.iter_mut().zip(point.vector.costs()) {
            if c.is_finite() {
                *r = r.max(c);
            }
        }
    }
    let reference = reference.map(|x| {
        if x.is_finite() {
            x + x.abs() * 0.1 + 1e-9
        } else {
            1.0
        }
    });
    let n = points.len();
    let mut front = ParetoFront::new();
    let ((), inserts) = timed(|| {
        for point in points {
            front.insert(point);
        }
    });
    let (volume, hypervolume) = timed(|| front.hypervolume(reference));
    std::hint::black_box(volume);
    Some((elapsed(inserts).as_nanos() as f64 / n as f64, hypervolume))
}

/// Times the inference sweep for every architecture the study met, in
/// the order it met them: the sweeps a cache-consulting engine runs.
pub fn replay_inference(
    config: &EdgeTuneConfig,
    backend: &dyn TrainingBackend,
    records: &[TrialRecord],
) -> Result<Vec<(Instant, Instant)>, String> {
    let server = InferenceTuningServer::new(
        config.edge_device.clone(),
        InferenceSpace::for_device(&config.edge_device),
        InferenceObjective::new(config.inference_metric),
    )
    .map_err(|e| e.to_string())?;
    let mut seen = HashSet::new();
    let mut spans = Vec::new();
    for record in records {
        let (arch, profile) = backend.architecture(&record.config);
        if seen.insert(arch) {
            let (tuned, span) = timed(|| server.tune(&profile));
            std::hint::black_box(tuned);
            spans.push(span);
        }
    }
    Ok(spans)
}

/// The checkpoint writes a sharded study made, replayed: after each
/// rung, the shard files and manifest holding the trials finished so
/// far, written with `ShardManifest::save_sharded` to `scratch`. The
/// inputs come from the study's final checkpoint at `path`.
pub struct CheckpointReplay {
    pub writes: Vec<(Instant, Instant)>,
    pub bytes: u64,
}

pub fn replay_checkpoint(
    path: &Path,
    scratch: &Path,
    rungs: &[Rung],
) -> Result<CheckpointReplay, String> {
    let StudyResume::Sharded { manifest, .. } =
        load_resume_state(path, false).map_err(|e| e.to_string())?
    else {
        return Err(format!("{} is not a sharded checkpoint", path.display()));
    };
    let shards: Vec<ShardHistory> = manifest
        .shard_files
        .iter()
        .map(|name| {
            ShardCheckpoint::load(&path.with_file_name(name))
                .map(|c| c.shard_history())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut replay = CheckpointReplay {
        writes: Vec::new(),
        bytes: 0,
    };
    for rung in rungs {
        let boundary = rung.first + rung.len as u64;
        let prefix: Vec<ShardHistory> = shards
            .iter()
            .map(|shard| ShardHistory {
                shard: shard.shard,
                trials: shard
                    .trials
                    .iter()
                    .filter(|t| t.record.id < boundary)
                    .cloned()
                    .collect(),
            })
            .collect();
        let horizon = prefix
            .iter()
            .flat_map(|s| &s.trials)
            .map(|t| t.start.value() + t.record.outcome.runtime.value())
            .fold(0.0, f64::max);
        let mut timeline = Timeline::new();
        for span in manifest.timeline.spans() {
            if span.end.value() <= horizon {
                timeline.record(span.lane, span.label.clone(), span.start, span.end);
            }
        }
        let globals = StudyGlobals {
            cache: manifest.cache.clone(),
            cache_stats: manifest.cache_stats,
            timeline,
            stall: manifest.stall,
            inference_energy: manifest.inference_energy,
            degradation: manifest.degradation,
            backoff_draws: manifest.backoff_draws,
            fault_cursor: manifest.fault_cursor,
            inference_cursor: manifest.inference_cursor,
            injected_losses: manifest.injected_losses,
            injected_outages: manifest.injected_outages,
        };
        let (saved, span) =
            timed(|| ShardManifest::save_sharded(scratch, manifest.seed, &prefix, globals));
        saved.map_err(|e| e.to_string())?;
        replay.writes.push(span);
        replay.bytes += file_len(scratch);
        for shard in &prefix {
            let name = format!(
                "{}.shard{}",
                scratch.file_name().unwrap_or_default().to_string_lossy(),
                shard.shard
            );
            replay.bytes += file_len(&scratch.with_file_name(name));
        }
    }
    Ok(replay)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Encodes and decodes the frames a sharded study's fabric exchanged:
/// per rung and shard, the task going out and the result coming back.
/// Returns one span per frame round trip.
pub fn replay_frames(
    spec: &BackendSpec,
    seed: u64,
    records: &[TrialRecord],
    rungs: &[Rung],
    shards: usize,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut spans = Vec::new();
    for (index, rung) in rungs.iter().enumerate() {
        let trials = rung_records(records, rung);
        for plan in ShardPlan::partition(trials.len(), shards) {
            let slice = &trials[plan.start..plan.start + plan.len];
            let task = ShardTask {
                attempt: 1,
                plan,
                spec: spec.clone(),
                now: Seconds::ZERO,
                trials: slice
                    .iter()
                    .map(|r| TaskTrial {
                        id: r.id,
                        config: r.config.clone(),
                        budget: r.budget,
                    })
                    .collect(),
                chaos: None,
                key: Some(RungKey {
                    study: seed,
                    bracket: rung.bracket,
                    rung: u32::try_from(index).unwrap_or(u32::MAX),
                    shard: plan.shard,
                }),
            };
            let result = ShardResultMsg {
                shard: plan.shard,
                measurements: slice
                    .iter()
                    .map(|r| TrialMeasurement {
                        accuracy: r.outcome.accuracy,
                        runtime: r.outcome.runtime,
                        energy: r.outcome.energy,
                        injected: None,
                    })
                    .collect(),
            };
            let payloads = [
                (FrameKind::Task, serde_json::to_string(&task)),
                (FrameKind::Result, serde_json::to_string(&result)),
            ];
            for (kind, payload) in payloads {
                let payload = payload.map_err(|e| e.to_string())?;
                let (decoded, span) = timed(|| {
                    let bytes = encode_frame(kind, payload.as_bytes());
                    read_frame(&mut bytes.as_slice())
                });
                match decoded {
                    Ok(Some(frame)) if frame.payload == payload.as_bytes() => spans.push(span),
                    _ => return Err(format!("{kind:?} frame did not round-trip")),
                }
            }
        }
    }
    Ok(spans)
}

/// Opens `count` sessions on a shard host and times each handshake.
pub fn replay_handshakes(
    addr: &str,
    seed: u64,
    spec: &BackendSpec,
    count: usize,
) -> Result<Vec<(Instant, Instant)>, String> {
    let meta = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    (0..count)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let hello = Hello::new(seed, meta.clone());
            let (ack, span) = timed(|| client_hello(&mut stream, &hello));
            ack.map_err(|e| format!("handshake with {addr}: {e}"))?;
            Ok(span)
        })
        .collect()
}
