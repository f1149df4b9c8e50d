//! EdgeTune driving *real* gradient-descent training: the same
//! middleware (onefold search, pipelined inference server, historical cache)
//! runs against `edgetune-nn`'s from-scratch MLP instead of the workload
//! simulator — proving the tuning stack is not tied to simulation.
//!
//! Run with: `cargo run --release --example real_training`

use edgetune::backend::{NnTrainingBackend, TrainingBackend};
use edgetune::prelude::*;
use edgetune_util::rng::SeedStream;

fn main() -> Result<(), edgetune_util::Error> {
    let mut backend = NnTrainingBackend::new(SeedStream::new(2024));
    println!("search space (real MLP training):");
    for (name, domain) in backend.search_space().iter() {
        println!("  {name}: {domain:?}");
    }

    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic) // workload id unused by custom backends
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(9);
    println!("\nrunning EdgeTune over actual SGD training ...");
    let report = EdgeTune::new(config).run_with_backend(&mut backend)?;

    println!("\n== winner (really trained) ==");
    println!("configuration : {}", report.best_config());
    println!("val accuracy  : {:.1}%", report.best_accuracy() * 100.0);
    println!("trials        : {}", report.history().len());
    println!(
        "train time    : {:.2} s simulated (real SGD, costed on the virtual clock)",
        report
            .history()
            .records()
            .iter()
            .map(|r| r.outcome.runtime.value())
            .sum::<f64>()
    );

    let rec = report.recommendation();
    println!("\n== edge recommendation for the trained MLP ==");
    println!(
        "deploy on {} with batch {}, {} cores @ {:.2} GHz -> {:.0} items/s",
        rec.device,
        rec.batch,
        rec.cores,
        rec.freq.as_ghz(),
        rec.throughput.value()
    );
    Ok(())
}
