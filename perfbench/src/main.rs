//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--edgetune PATH] [--out DIR] [--size full|tiny] [--negative-control]
//! ```
//!
//! Runs one workload as a closed loop (one caller, jobs back to back)
//! for `S` seconds, checks every job's output, and prints a report whose
//! last line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs every job untraced and traced, replays the layers no
//! trait reaches, and reports the per-layer metrics. `run.py` beside this
//! crate builds the program and calls this binary; README.md explains the
//! workloads and metrics.

mod calib;
mod probe;
mod sys;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::HostSpeed;
use edgetune::backend::TrainingBackend;
use edgetune_util::stats::percentile;

use probe::{elapsed, timed, Spans, TimedBackend, TimedTuner};
use workload::{job_seed, slo_attainment, Digest, JobOutput, Kind, ServeBench, Size, StudyBench};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;
/// Jobs measured even when the time is up.
const MIN_JOBS: u64 = 3;
/// Handshakes timed per remote job.
const HANDSHAKES: usize = 4;

/// End-to-end metrics, in `BENCHMARK.json` order: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_s", "s"),
];

// The end-to-end metrics a layer should move, and the workload it
// should move them on.
const ITEMS: &str = "items_per_s";
const JOB: &str = "job_ms_p50";
const STUDY: &str = "items_per_s, job_ms_p50";
const SCALAR: &str = "scalar-study";
const PARETO: &str = "pareto-study";
const SERVE: &str = "serve-drift";
const REMOTE: &str = "remote-study";

/// Per-layer metrics, in `BENCHMARK.json` order: (name, unit, the
/// end-to-end metric it should move, the workload it should move it on).
const PER_LAYER: [(&str, &str, &str, &str); 31] = [
    ("tuner.sampler.suggest_count", "count", STUDY, SCALAR),
    ("tuner.sampler.suggest_us_p50", "us", STUDY, SCALAR),
    ("tuner.sampler.busy_ms", "ms", STUDY, SCALAR),
    ("tuner.pareto.suggest_us_p50", "us", JOB, PARETO),
    ("tuner.pareto.busy_ms", "ms", JOB, PARETO),
    ("tuner.pareto.front_insert_ns", "ns", JOB, PARETO),
    ("tuner.pareto.hypervolume_us", "us", JOB, PARETO),
    ("tuner.scheduler.busy_ms", "ms", STUDY, SCALAR),
    ("tuner.scheduler.promote_us", "us", JOB, PARETO),
    ("core.backend.run_trial_count", "count", ITEMS, SCALAR),
    ("core.backend.busy_ms", "ms", ITEMS, SCALAR),
    ("core.inference.tune_count", "count", ITEMS, SCALAR),
    ("core.inference.tune_us_p50", "us", ITEMS, SCALAR),
    ("core.inference.cache_hit_ratio", "ratio", ITEMS, SCALAR),
    ("core.engine.residual_ms", "ms", ITEMS, SCALAR),
    ("core.checkpoint.write_count", "count", JOB, REMOTE),
    ("core.checkpoint.write_ms_p50", "ms", JOB, REMOTE),
    ("core.checkpoint.bytes", "bytes", JOB, REMOTE),
    ("core.fabric.rpc_count", "count", JOB, REMOTE),
    ("core.fabric.heartbeats", "count", JOB, REMOTE),
    ("core.fabric.retries", "count", JOB, REMOTE),
    ("core.fabric.fallbacks", "count", JOB, REMOTE),
    ("core.fabric.idle_ms", "ms", JOB, REMOTE),
    ("net.handshake_us", "us", JOB, REMOTE),
    ("runtime.frame.roundtrip_ns", "ns", JOB, REMOTE),
    ("serving.runtime.ns_per_request", "ns", ITEMS, SERVE),
    ("serving.runtime.batches", "count", ITEMS, SERVE),
    ("serving.runtime.mean_batch_size", "req/batch", ITEMS, SERVE),
    ("serving.retune.count", "count", JOB, SERVE),
    ("serving.retune.ms_p50", "ms", JOB, SERVE),
    ("bench.trace_overhead_pct", "%", "none", "all"),
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    edgetune: Option<PathBuf>,
    out: PathBuf,
    negative_control: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = Args {
            workload: Kind::ScalarStudy,
            seed: 0,
            seconds: 0.0,
            trace: false,
            size: Size::Full,
            edgetune: None,
            out: PathBuf::from("perfbench/out"),
            negative_control: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Kind::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    });
                }
                "--size" => {
                    args.size = match value()?.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => return Err(format!("--size takes full or tiny, not '{other}'")),
                    };
                }
                "--edgetune" => args.edgetune = Some(PathBuf::from(value()?)),
                "--out" => args.out = PathBuf::from(value()?),
                "--negative-control" => args.negative_control = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        args.trace = trace.ok_or("--trace is required")?;
        Ok(args)
    }
}

enum Bench {
    Study(StudyBench),
    Serve(Box<ServeBench>),
}

/// Seed of the warm-up job. It is the same for every workload seed, so
/// set-up does the same work in every run.
const WARMUP_SEED: u64 = 0x5EED;

/// One set-up: start the shard hosts a remote study needs, then run one
/// full-size warm-up job so lazy initialisation is paid before the
/// clock starts.
fn set_up(args: &Args) -> Result<Bench, String> {
    match args.workload {
        Kind::ServeDrift => {
            let bench = ServeBench::new(args.size);
            let inputs = bench.inputs(WARMUP_SEED)?;
            bench.run(&inputs, &bench.retuner)?;
            Ok(Bench::Serve(Box::new(bench)))
        }
        kind => {
            let mut bench = StudyBench::new(kind, args.size);
            if kind == Kind::RemoteStudy {
                let edgetune = args
                    .edgetune
                    .as_ref()
                    .ok_or("remote-study needs --edgetune PATH (the edgetune binary)")?;
                let dir = args.out.join(format!("remote-{}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                bench.remote = Some(workload::RemoteFabric {
                    hosts: vec![
                        workload::Daemon::spawn(edgetune)?,
                        workload::Daemon::spawn(edgetune)?,
                    ],
                    checkpoint: dir.join("checkpoint.json"),
                });
            }
            bench.run(WARMUP_SEED, &mut StudyBench::backend(WARMUP_SEED))?;
            Ok(Bench::Study(bench))
        }
    }
}

/// Metric samples, pooled per name; a metric's value is the median of
/// its samples, or 0 when its layer never ran on this workload.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| percentile(v, 0.5))
            .unwrap_or(0.0)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn total(spans: &[(Instant, Instant)]) -> Duration {
    spans.iter().map(|&s| elapsed(s)).sum()
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    /// Set-up walls, s.
    setups: Vec<f64>,
    /// The host factor around each set-up.
    setup_factors: Vec<f64>,
    /// Untraced job walls, ms.
    walls: Vec<f64>,
    /// Traced job walls, ms (traced runs only).
    traced_walls: Vec<f64>,
    /// Work items per host second, per job.
    rates: Vec<f64>,
    makespans: Vec<f64>,
    slo_attainment: Vec<f64>,
    /// Job seed and report digest, in job order.
    reports: Vec<(u64, Digest)>,
    failed: BTreeSet<usize>,
    layers: Samples,
    measured: Duration,
    /// Reference-kernel probes, one before every job and one after the
    /// last.
    host: HostSpeed,
}

impl Run {
    /// Records a measured (untraced) job and the checks it failed.
    fn record(&mut self, seed: u64, out: &JobOutput) {
        let index = self.reports.len();
        self.walls.push(ms(out.wall));
        self.rates.push(out.items as f64 / out.wall.as_secs_f64());
        self.makespans.push(out.sim_makespan);
        self.reports.push((seed, out.digest));
        for failure in &out.failures {
            self.fail(index, failure);
        }
    }

    fn fail(&mut self, job: usize, why: &str) {
        eprintln!("perfbench: job {job} failed: {why}");
        self.failed.insert(job);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            print_report(&args, &run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Run, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut run = Run::default();
    let mut bench = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up (stopping its daemons) before timing
        // the next one.
        drop(bench.take());
        let before = run.host.factor_now();
        let (made, span) = timed(|| set_up(args));
        bench = Some(made?);
        let after = run.host.factor_now();
        run.setups.push(elapsed(span).as_secs_f64());
        run.setup_factors.push((before + after) / 2.0);
    }
    let bench = bench.expect("at least one set-up ran");
    let spans = args.trace.then(Spans::new);

    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut job = 0u64;
    while job < MIN_JOBS || start.elapsed() < deadline {
        let seed = job_seed(args.seed, "job", job);
        let index = run.reports.len();
        run.host.sample();
        let outcome = match &bench {
            Bench::Study(study) => study_job(study, seed, &mut run, spans.as_ref()),
            Bench::Serve(serve) => serve_job(serve, seed, &mut run, spans.as_ref()),
        };
        if let Err(e) = outcome {
            // A job that failed before it was recorded still counts as
            // attempted.
            if run.reports.len() == index {
                run.reports.push((seed, Digest::default()));
            }
            run.fail(index, &e);
        }
        job += 1;
    }
    run.measured = start.elapsed();
    run.host.sample();
    check_determinism(args, &bench, &mut run);

    if let Some(spans) = &spans {
        let untraced = percentile(&run.walls, 0.5).unwrap_or(0.0);
        let traced = percentile(&run.traced_walls, 0.5).unwrap_or(0.0);
        if untraced > 0.0 {
            run.layers.push(
                "bench.trace_overhead_pct",
                (traced - untraced) / untraced * 100.0,
            );
        }
        let path = args.out.join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        spans.write(&path)?;
        eprintln!("perfbench: host-time spans written to {}", path.display());
        print_self_times(spans);
    }
    if let Bench::Study(StudyBench {
        remote: Some(remote),
        ..
    }) = &bench
    {
        if let Some(dir) = remote.checkpoint.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok(run)
}

/// Runs one study job. In a traced run the job also runs traced (in
/// alternating order, so neither run always finds the caches the other
/// warmed), and the layers no trait reaches are replayed from it.
fn study_job(
    study: &StudyBench,
    seed: u64,
    run: &mut Run,
    spans: Option<&Spans>,
) -> Result<(), String> {
    let Some(spans) = spans else {
        let (out, _) = study.run(seed, &mut StudyBench::backend(seed))?;
        run.record(seed, &out);
        return Ok(());
    };
    let index = run.reports.len();
    let mut backend = TimedBackend::new(StudyBench::backend(seed));
    let mut traced_run = || {
        let cpu_before = sys::cpu_time();
        let (result, span) = timed(|| study.run(seed, &mut backend));
        let cpu = sys::cpu_time()
            .zip(cpu_before)
            .map(|(after, before)| after.saturating_sub(before));
        result.map(|(out, report)| (out, report, span, cpu))
    };
    let first = if index % 2 == 1 {
        Some(traced_run()?)
    } else {
        None
    };
    let (out, report) = study.run(seed, &mut StudyBench::backend(seed))?;
    run.record(seed, &out);
    let (traced, traced_report, job_span, cpu) = match first {
        Some(first) => first,
        None => traced_run()?,
    };
    let wall = traced.wall;
    run.traced_walls.push(ms(wall));
    if traced.digest != out.digest {
        run.fail(index, "traced report differs from the untraced one");
    }
    spans.begin_job();
    spans.job("bench.job", job_span);
    for &call in &backend.calls {
        spans.job("core.backend.run_trial", call);
    }
    let backend_busy = total(&backend.calls);
    run.layers
        .push("core.backend.run_trial_count", backend.calls.len() as f64);
    run.layers.push("core.backend.busy_ms", ms(backend_busy));

    let config = study.config(seed);
    let records = report.history().records();
    let replay = probe::replay_scheduler(&config, &backend.search_space(), report.history());
    if !replay.faithful {
        run.fail(index, "the sampler replay diverged from the recorded study");
    }
    let (suggest_name, us_name, busy_name) = if config.pareto.is_some() {
        (
            "tuner.pareto.suggest",
            "tuner.pareto.suggest_us_p50",
            "tuner.pareto.busy_ms",
        )
    } else {
        (
            "tuner.sampler.suggest",
            "tuner.sampler.suggest_us_p50",
            "tuner.sampler.busy_ms",
        )
    };
    for &call in &replay.suggests {
        spans.replay(suggest_name, call);
        run.layers.push(us_name, us(elapsed(call)));
    }
    let sampler_busy = total(&replay.suggests) + replay.observe;
    run.layers.push(busy_name, ms(sampler_busy));
    let scheduler_busy = replay.wall.saturating_sub(sampler_busy);
    run.layers
        .push("tuner.scheduler.busy_ms", ms(scheduler_busy));
    if config.pareto.is_none() {
        run.layers
            .push("tuner.sampler.suggest_count", replay.suggests.len() as f64);
    } else {
        let promotions = probe::replay_promotion(records, &replay.rungs);
        for &call in &promotions {
            spans.replay("tuner.scheduler.promote", call);
        }
        run.layers
            .push("tuner.scheduler.promote_us", us(total(&promotions)));
        if let Some((insert_ns, hypervolume)) = probe::replay_front(records) {
            spans.replay("tuner.pareto.hypervolume", hypervolume);
            run.layers.push("tuner.pareto.front_insert_ns", insert_ns);
            run.layers
                .push("tuner.pareto.hypervolume_us", us(elapsed(hypervolume)));
        }
    }

    let tunes = probe::replay_inference(&config, &backend, records)?;
    for &call in &tunes {
        spans.replay("core.inference.tune", call);
        run.layers
            .push("core.inference.tune_us_p50", us(elapsed(call)));
    }
    let inference_busy = total(&tunes);
    run.layers
        .push("core.inference.tune_count", tunes.len() as f64);
    run.layers.push(
        "core.inference.cache_hit_ratio",
        report.cache_stats().hit_ratio(),
    );

    // Promotion runs inside the scheduler replay, so it is already in
    // `scheduler_busy`.
    let mut attributed = backend_busy + sampler_busy + scheduler_busy + inference_busy;
    if let Some(remote) = &study.remote {
        let scratch = remote.checkpoint.with_file_name("replay.json");
        let writes = probe::replay_checkpoint(&remote.checkpoint, &scratch, &replay.rungs)?;
        for &call in &writes.writes {
            spans.replay("core.checkpoint.write", call);
            run.layers
                .push("core.checkpoint.write_ms_p50", ms(elapsed(call)));
        }
        attributed += total(&writes.writes);
        run.layers
            .push("core.checkpoint.write_count", writes.writes.len() as f64);
        run.layers
            .push("core.checkpoint.bytes", writes.bytes as f64);

        let stats = traced_report
            .fabric_stats()
            .ok_or("a remote study reported no fabric stats")?;
        run.layers
            .push("core.fabric.rpc_count", stats.spawns as f64);
        run.layers
            .push("core.fabric.heartbeats", stats.heartbeats as f64);
        run.layers.push("core.fabric.retries", stats.retries as f64);
        run.layers
            .push("core.fabric.fallbacks", stats.fallbacks as f64);
        if let Some(cpu) = cpu {
            let idle = wall.saturating_sub(cpu);
            run.layers.push("core.fabric.idle_ms", ms(idle));
            attributed += idle;
        }

        let spec = backend
            .process_spec()
            .ok_or("the simulated backend offers no process spec")?;
        let shards = config.study_shards;
        for call in probe::replay_frames(&spec, seed, records, &replay.rungs, shards)? {
            spans.replay("runtime.frame.roundtrip", call);
            run.layers.push(
                "runtime.frame.roundtrip_ns",
                elapsed(call).as_nanos() as f64,
            );
        }
        let host = &remote.hosts[0].addr;
        for call in probe::replay_handshakes(host, seed, &spec, HANDSHAKES)? {
            spans.replay("net.handshake", call);
            run.layers.push("net.handshake_us", us(elapsed(call)));
        }
    }
    run.layers
        .push("core.engine.residual_ms", ms(wall) - ms(attributed));
    Ok(())
}

/// Runs one serving job; in a traced run also traced, in alternating
/// order as for studies.
fn serve_job(
    serve: &ServeBench,
    seed: u64,
    run: &mut Run,
    spans: Option<&Spans>,
) -> Result<(), String> {
    let index = run.reports.len();
    let inputs = serve.inputs(seed)?;
    let Some(spans) = spans else {
        let (out, report) = serve.run(&inputs, &serve.retuner)?;
        run.record(seed, &out);
        run.slo_attainment.push(slo_attainment(&report));
        return Ok(());
    };
    let tuner = TimedTuner::new(&serve.retuner);
    let traced_run = || {
        let (result, span) = timed(|| serve.run(&inputs, &tuner));
        result.map(|(out, report)| (out, report, span))
    };
    let first = if index % 2 == 1 {
        Some(traced_run()?)
    } else {
        None
    };
    let (out, report) = serve.run(&inputs, &serve.retuner)?;
    run.record(seed, &out);
    run.slo_attainment.push(slo_attainment(&report));
    let (traced, traced_report, job_span) = match first {
        Some(first) => first,
        None => traced_run()?,
    };
    run.traced_walls.push(ms(traced.wall));
    if traced.digest != out.digest {
        run.fail(index, "traced report differs from the untraced one");
    }
    spans.begin_job();
    spans.job("bench.job", job_span);
    let retunes = tuner.calls.into_inner();
    for &call in &retunes {
        spans.job("serving.retune", call);
        run.layers.push("serving.retune.ms_p50", ms(elapsed(call)));
    }
    let serving = traced.wall.saturating_sub(total(&retunes));
    run.layers
        .push("serving.retune.count", retunes.len() as f64);
    run.layers.push(
        "serving.runtime.ns_per_request",
        serving.as_nanos() as f64 / traced_report.requests.max(1) as f64,
    );
    run.layers
        .push("serving.runtime.batches", traced_report.batches as f64);
    run.layers.push(
        "serving.runtime.mean_batch_size",
        traced_report.mean_batch_size,
    );
    Ok(())
}

/// Output checks that need a second run, made after the clock stops:
/// the first job again gives the same bytes (through the default
/// `EdgeTune::run` path for in-process studies), and every remote study
/// equals the in-process study of its seed. `--negative-control` reruns
/// a different seed instead, so the check must fail.
fn check_determinism(args: &Args, bench: &Bench, run: &mut Run) {
    let Some(&(first_seed, first)) = run.reports.first() else {
        return;
    };
    let rerun_seed = if args.negative_control {
        job_seed(args.seed, "negative-control", 0)
    } else {
        first_seed
    };
    let rerun = match bench {
        Bench::Study(study) if study.remote.is_some() => {
            let mut backend = StudyBench::backend(rerun_seed);
            study
                .run(rerun_seed, &mut backend)
                .map(|(out, _)| out.digest)
        }
        Bench::Study(study) => study.reference(rerun_seed),
        Bench::Serve(serve) => serve
            .inputs(rerun_seed)
            .and_then(|inputs| serve.run(&inputs, &serve.retuner))
            .map(|(out, _)| out.digest),
    };
    match rerun {
        Ok(digest) if digest == first => {}
        Ok(_) => run.fail(0, "rerunning the same seed gave different report bytes"),
        Err(e) => run.fail(0, &e),
    }
    if let Bench::Study(study) = bench {
        if study.remote.is_some() {
            let reports = run.reports.clone();
            for (index, (seed, digest)) in reports.iter().enumerate() {
                match study.reference(*seed) {
                    Ok(reference) if reference == *digest => {}
                    Ok(_) => run.fail(index, "remote report differs from the in-process one"),
                    Err(e) => run.fail(index, &e),
                }
            }
        }
    }
}

/// Self time per span name, largest first.
fn print_self_times(spans: &Spans) {
    let mut stats = spans.summary();
    stats.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    println!(
        "host-time self time by span (first {} traced jobs):",
        probe::SPAN_JOBS
    );
    for stat in stats {
        println!(
            "  {:<28} {:>9} spans {:>12.3} ms self {:>12.3} ms total",
            stat.name,
            stat.count,
            stat.self_us / 1e3,
            stat.total_us / 1e3
        );
    }
}

fn print_report(args: &Args, run: &Run) {
    let attempted = run.reports.len();
    let failed = run.failed.len();
    let jobs_per = |name: &str| format!("{name}, {attempted} samples");
    let is_study = args.workload != Kind::ServeDrift;
    println!(
        "perfbench {} seed {}: {attempted} jobs in {:.3} s, closed loop with one caller",
        args.workload.name(),
        args.seed,
        run.measured.as_secs_f64()
    );
    let host = end_to_end(run);
    let factor = run.host.factor();
    let mut end_to_end: BTreeMap<&str, f64> = host
        .iter()
        .map(|(&name, &value)| (name, at_reference_speed(name, value, factor)))
        .collect();
    // Each set-up is scaled by the host speed around it.
    let setups: Vec<f64> = run
        .setups
        .iter()
        .zip(&run.setup_factors)
        .map(|(&wall, &factor)| at_reference_speed("setup_s", wall, factor))
        .collect();
    end_to_end.insert("setup_s", percentile(&setups, 0.5).unwrap_or(0.0));
    println!(
        "host speed: {factor:.4}x slower than the reference speed ({} probes of the reference kernel)",
        run.host.count()
    );
    println!(
        "end-to-end metrics (host time scaled to the reference speed, unless marked sim; raw host value last):"
    );
    for (name, unit) in END_TO_END {
        let note = match name {
            "setup_s" => {
                format!("median of {SETUPS} set-ups, each scaled by the host speed around it")
            }
            "items_per_s" if is_study => "trials_per_s: trial evaluations per host second".into(),
            "items_per_s" => "serve_requests_per_s: simulated requests per host second".into(),
            "job_ms_p50" if is_study => jobs_per("study_ms_p50"),
            "job_ms_p50" => jobs_per("serve_session_ms_p50"),
            "sim_makespan_s" => "sim, median over jobs".into(),
            _ => String::new(),
        };
        let raw = if end_to_end[name] == host[name] {
            String::new()
        } else {
            format!("; host {}", host[name])
        };
        println!(
            "  {name:<22} {:>16} {unit:<6} {note}{raw}",
            end_to_end[name]
        );
    }
    println!(
        "  {:<22} {:>16} {:<6} {failed} of {attempted} jobs failed a check",
        "failed_fraction",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    if !run.slo_attainment.is_empty() {
        println!(
            "  {:<22} {:>16} {:<6} sim, median over jobs",
            "serve_slo_attainment",
            percentile(&run.slo_attainment, 0.5).unwrap_or(0.0),
            "ratio"
        );
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        println!("per-layer metrics (traced run):");
        println!(
            "  {:<32} {:>14} {:<9} {:<24} on",
            "layer metric", "value", "unit", "should move"
        );
        for (name, unit, moves, on) in PER_LAYER {
            let value = run.layers.median(name);
            println!("  {name:<32} {value:>14.3} {unit:<9} {moves:<24} {on}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _, _)| (name, run.layers.median(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, end_to_end[name], unit))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// `value` of end-to-end metric `name` at the reference speed, for a run
/// whose host was `factor` times slower than it (see `calib`). Memory
/// and simulated time are left as they are.
fn at_reference_speed(name: &str, value: f64, factor: f64) -> f64 {
    match name {
        "setup_s" | "job_ms_p50" => value / factor,
        "items_per_s" => value * factor,
        _ => value,
    }
}

/// The end-to-end metrics in raw host time.
fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", percentile(&run.setups, 0.5).unwrap_or(0.0)),
        ("items_per_s", percentile(&run.rates, 0.5).unwrap_or(0.0)),
        ("job_ms_p50", percentile(&run.walls, 0.5).unwrap_or(0.0)),
        ("peak_rss_mb", sys::peak_rss_mib().unwrap_or(0.0)),
        (
            "sim_makespan_s",
            percentile(&run.makespans, 0.5).unwrap_or(0.0),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_host_times_are_scaled_to_the_reference_speed() {
        // A host twice as slow as the reference: times halve, rates double.
        assert_eq!(at_reference_speed("setup_s", 4.0, 2.0), 2.0);
        assert_eq!(at_reference_speed("job_ms_p50", 300.0, 2.0), 150.0);
        assert_eq!(at_reference_speed("items_per_s", 1000.0, 2.0), 2000.0);
        assert_eq!(at_reference_speed("peak_rss_mb", 14.0, 2.0), 14.0);
        assert_eq!(at_reference_speed("sim_makespan_s", 5000.0, 2.0), 5000.0);
    }
}
