//! The benchmark's workloads and the jobs they run.
//!
//! Every workload is a closed loop with one caller: a job is one tuning
//! study or one serving session, and the next starts when the previous
//! one returns. Each job's seed is derived from the workload seed, and
//! the program only ever receives generated inputs (seeds and arrival
//! traces).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use edgetune::backend::SimTrainingBackend;
use edgetune::batching::MultiStreamScenario;
use edgetune::config::ShardExec;
use edgetune::inference::InferenceSpace;
use edgetune::scenario::Scenario;
use edgetune::{EdgeTune, EdgeTuneConfig, ScenarioRetuner, TuningReport};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{
    OnlineTuner, RuntimeOptions, ServingConfig, ServingReport, ServingRuntime, SloPolicy,
    TrafficProfile,
};
use edgetune_tuner::pareto::ParetoFront;
use edgetune_tuner::scheduler::{HyperBand, SchedulerConfig};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;
use rand::RngCore;

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScalarStudy,
    ParetoStudy,
    ServeDrift,
    RemoteStudy,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ScalarStudy,
        Kind::ParetoStudy,
        Kind::ServeDrift,
        Kind::RemoteStudy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScalarStudy => "scalar-study",
            Kind::ParetoStudy => "pareto-study",
            Kind::ServeDrift => "serve-drift",
            Kind::RemoteStudy => "remote-study",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// `full` is the benchmark proper; `tiny` shrinks every job so the
/// benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The seed of job `index` under workload seed `seed`. Warm-up jobs use
/// their own label, so they never repeat a measured job.
pub fn job_seed(seed: u64, label: &str, index: u64) -> u64 {
    SeedStream::new(seed).rng_indexed(label, index).next_u64()
}

/// Length and SipHash of a report's JSON bytes: what the determinism
/// checks compare, so a run keeps no report in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    pub fn of(json: &str) -> Digest {
        let mut hasher = DefaultHasher::new();
        json.hash(&mut hasher);
        Digest {
            len: json.len(),
            hash: hasher.finish(),
        }
    }
}

/// A finished job: its host wall time plus what the checks and metrics
/// read from it.
pub struct JobOutput {
    pub wall: Duration,
    /// Work items the job completed: trial evaluations or requests.
    pub items: u64,
    /// The report's simulated makespan, in seconds.
    pub sim_makespan: f64,
    /// Digest of the report's JSON bytes, compared by the determinism
    /// checks.
    pub digest: Digest,
    /// Output checks this job failed, empty when it passed.
    pub failures: Vec<String>,
}

// ---------------------------------------------------------------------------
// Studies: scalar-study, pareto-study, remote-study
// ---------------------------------------------------------------------------

/// An `ic` study with the default TPE sampler and HyperBand schedule.
pub struct StudyBench {
    pub scheduler: SchedulerConfig,
    pub pareto: Option<usize>,
    pub remote: Option<RemoteFabric>,
}

/// Two `edgetune shard-host` daemons on loopback plus the path the
/// study checkpoints to after every rung.
pub struct RemoteFabric {
    pub hosts: Vec<Daemon>,
    pub checkpoint: PathBuf,
}

impl StudyBench {
    pub fn new(kind: Kind, size: Size) -> Self {
        let scheduler = match (kind, size) {
            (Kind::ParetoStudy, Size::Full) => SchedulerConfig::new(8, 2.0, 27),
            (_, Size::Full) => SchedulerConfig::new(256, 2.0, 27),
            (Kind::ParetoStudy, Size::Tiny) => SchedulerConfig::new(8, 2.0, 4),
            (_, Size::Tiny) => SchedulerConfig::new(4, 2.0, 4),
        };
        StudyBench {
            scheduler,
            pareto: (kind == Kind::ParetoStudy).then_some(8),
            remote: None,
        }
    }

    /// The study's configuration for one job seed.
    pub fn config(&self, seed: u64) -> EdgeTuneConfig {
        let mut config = self.in_process_config(seed);
        if let Some(remote) = &self.remote {
            config = config
                .with_study_shards(2)
                .with_shard_exec(ShardExec::Remote)
                .with_shard_hosts(remote.hosts.iter().map(|h| h.addr.clone()).collect())
                .with_checkpoint_path(&remote.checkpoint);
        }
        config
    }

    /// The same study run inside this process, unsharded and without a
    /// checkpoint: the reference a remote study's bytes must equal.
    pub fn in_process_config(&self, seed: u64) -> EdgeTuneConfig {
        let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(self.scheduler)
            .with_seed(seed);
        match self.pareto {
            Some(k) => config.with_pareto(k),
            None => config,
        }
    }

    /// The backend `EdgeTune::run` would build for this seed.
    pub fn backend(seed: u64) -> SimTrainingBackend {
        SimTrainingBackend::new(
            Workload::by_id(WorkloadId::Ic),
            SeedStream::new(seed).child("trials"),
        )
    }

    /// Runs one study on `backend` and checks its output.
    pub fn run(
        &self,
        seed: u64,
        backend: &mut dyn edgetune::backend::TrainingBackend,
    ) -> Result<(JobOutput, TuningReport), String> {
        let config = self.config(seed);
        let start = Instant::now();
        let report = EdgeTune::new(config)
            .run_with_backend(backend)
            .map_err(|e| format!("study failed: {e}"))?;
        let wall = start.elapsed();
        let digest = Digest::of(&report.to_json().map_err(|e| e.to_string())?);
        let mut failures = Vec::new();
        let expected = scheduled_evaluations(self.scheduler);
        if report.history().len() != expected {
            failures.push(format!(
                "history has {} trials, the HyperBand schedule has {expected}",
                report.history().len()
            ));
        }
        if self.pareto.is_some() {
            let mut front = ParetoFront::new();
            for point in report.frontier() {
                front.insert(point.clone());
            }
            if report.frontier().is_empty()
                || front.len() != report.frontier().len()
                || !front.is_mutually_non_dominated()
            {
                failures.push("frontier is empty or not mutually non-dominated".to_string());
            }
        }
        let output = JobOutput {
            wall,
            items: report.history().len() as u64,
            sim_makespan: report.tuning_runtime().value(),
            digest,
            failures,
        };
        Ok((output, report))
    }

    /// The report digest of the reference run for `seed`: the default
    /// `EdgeTune::run` path, in process.
    pub fn reference(&self, seed: u64) -> Result<Digest, String> {
        EdgeTune::new(self.in_process_config(seed))
            .run()
            .and_then(|report| report.to_json())
            .map(|json| Digest::of(&json))
            .map_err(|e| format!("reference study failed: {e}"))
    }
}

/// Trial evaluations a failure-free HyperBand study performs, counted
/// independently of the scheduler: each bracket keeps the top `1/η` of
/// every rung until one configuration is left or the top budget level
/// is reached.
pub fn scheduled_evaluations(config: SchedulerConfig) -> usize {
    HyperBand::new(config)
        .bracket_specs()
        .iter()
        .map(|spec| {
            let mut cohort = spec.initial;
            let mut iteration = spec.start_iteration.max(1);
            let mut total = 0;
            loop {
                total += cohort;
                if cohort <= 1 || iteration >= config.max_iteration {
                    return total;
                }
                cohort = ((cohort as f64 / config.eta).ceil() as usize).max(1);
                iteration =
                    ((f64::from(iteration) * config.eta).round() as u32).min(config.max_iteration);
            }
        })
        .sum()
}

/// One `edgetune shard-host` child process. Dropping it kills the
/// daemon and waits until it has exited.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `edgetune shard-host` on a kernel-chosen loopback port and
    /// waits for its "listening on" banner.
    pub fn spawn(edgetune: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(edgetune)
            .args(["shard-host", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", edgetune.display()))?;
        let mut banner = String::new();
        let read = child
            .stdout
            .take()
            .map(|stdout| BufReader::new(stdout).read_line(&mut banner));
        let addr = banner
            .trim()
            .strip_prefix("shard-host listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("shard-host printed no banner: {banner:?}"))
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Serving: serve-drift
// ---------------------------------------------------------------------------

/// `ic` on the default edge device, serving shift traffic (the rate
/// quadruples a third of the way in) under a 2 s SLO with live re-tune.
pub struct ServeBench {
    device: DeviceSpec,
    profile: WorkProfile,
    pub retuner: ScenarioRetuner,
    traffic: TrafficProfile,
    horizon: Seconds,
}

/// A serving job's generated inputs.
pub struct ServeInputs {
    seed: SeedStream,
    arrivals: Vec<f64>,
    config: ServingConfig,
}

const SERVE_RATE: f64 = 20.0;
const SERVE_SLO_S: f64 = 2.0;

impl ServeBench {
    pub fn new(size: Size) -> Self {
        let device = DeviceSpec::raspberry_pi_3b();
        let workload = Workload::by_id(WorkloadId::Ic);
        let profile = workload.profile(workload.model_hp_values[0]);
        let horizon = match size {
            Size::Full => 6000.0,
            Size::Tiny => 300.0,
        };
        ServeBench {
            retuner: ScenarioRetuner::new(
                device.clone(),
                InferenceSpace::for_device(&device),
                profile,
            ),
            device,
            profile,
            traffic: TrafficProfile::RateShift {
                initial_rate: SERVE_RATE,
                shifted_rate: 4.0 * SERVE_RATE,
                at: Seconds::new(horizon / 3.0),
            },
            horizon: Seconds::new(horizon),
        }
    }

    /// Generates the arrival trace and tunes the configuration deployed
    /// at the start of the session, as `edgetune serve` does.
    pub fn inputs(&self, seed: u64) -> Result<ServeInputs, String> {
        let seed = SeedStream::new(seed);
        let arrivals = self.traffic.generate(self.horizon, seed);
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(SERVE_RATE, 400));
        let config = self
            .retuner
            .recommend(&scenario, seed.child("offline"))
            .map_err(|e| format!("initial recommendation failed: {e}"))?;
        Ok(ServeInputs {
            seed,
            arrivals,
            config,
        })
    }

    /// Serves one session with `tuner` answering drift re-tunes.
    pub fn run(
        &self,
        inputs: &ServeInputs,
        tuner: &dyn OnlineTuner,
    ) -> Result<(JobOutput, ServingReport), String> {
        let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(SERVE_SLO_S)));
        let runtime =
            ServingRuntime::new(self.device.clone(), self.profile, inputs.config, options)
                .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let report = runtime
            .serve_trace(
                &inputs.arrivals,
                self.traffic.name(),
                Some(tuner),
                inputs.seed,
            )
            .map_err(|e| format!("serving failed: {e}"))?;
        let wall = start.elapsed();
        let digest = Digest::of(&report.to_json().map_err(|e| e.to_string())?);
        let mut failures = Vec::new();
        if report.served + report.shed != report.requests {
            failures.push(format!(
                "served {} + shed {} != requests {}",
                report.served, report.shed, report.requests
            ));
        }
        if report.requests != inputs.arrivals.len() as u64 {
            failures.push(format!(
                "report counts {} requests, the trace has {}",
                report.requests,
                inputs.arrivals.len()
            ));
        }
        let output = JobOutput {
            wall,
            items: report.requests,
            sim_makespan: report.makespan.value(),
            digest,
            failures,
        };
        Ok((output, report))
    }
}

/// Requests served within the SLO over requests sent; shed requests
/// count as misses.
pub fn slo_attainment(report: &ServingReport) -> f64 {
    1.0 - report.slo_violation_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_count_matches_the_default_study() {
        assert_eq!(
            scheduled_evaluations(SchedulerConfig::new(256, 2.0, 27)),
            3031
        );
        // A Pareto study at 16 initial configurations.
        assert_eq!(
            scheduled_evaluations(SchedulerConfig::new(16, 2.0, 27)),
            199
        );
    }

    #[test]
    fn job_seeds_are_reproducible_and_distinct() {
        assert_eq!(job_seed(7, "job", 3), job_seed(7, "job", 3));
        assert_ne!(job_seed(7, "job", 3), job_seed(7, "job", 4));
        assert_ne!(job_seed(7, "job", 3), job_seed(8, "job", 3));
        assert_ne!(job_seed(7, "job", 0), job_seed(7, "warmup", 0));
    }
}
