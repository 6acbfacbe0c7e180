//! Round wall-clock vs engine worker count (1/2/4/8) for LeNet-5 and
//! AlexNet shapes.
//!
//! Each measurement builds a fresh federation and times one full FL
//! round through `ExecutionEngine::new(workers)`. Besides the usual
//! per-benchmark lines, a machine-readable summary (median seconds per
//! configuration plus the speedup over the 1-worker engine) is written to
//! `target/engine_scaling.json` for the performance trajectory.
//!
//! Expect >1.5× at 4 workers on AlexNet shapes on a multi-core host;
//! on a single-core container the engine degrades gracefully to ~1×.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};

use gradsec_data::SyntheticCifar100;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::Federation;
use gradsec_fl::ExecutionEngine;
use gradsec_nn::{zoo, Sequential};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn federation(model: fn() -> Sequential, clients: usize, engine: ExecutionEngine) -> Federation {
    let data = Arc::new(SyntheticCifar100::with_classes(clients * 16, 2, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(model)
    .clients(clients, data)
    .engine(engine)
    .build()
    .expect("federation builds")
}

fn lenet() -> Sequential {
    zoo::lenet5_with(2, 3).expect("LeNet-5 builds")
}

fn alexnet() -> Sequential {
    zoo::alexnet_with(2, 3).expect("AlexNet builds")
}

fn bench_model(c: &mut Criterion, name: &str, model: fn() -> Sequential) {
    let group_name = format!("engine_round_{name}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(5);
    for workers in WORKER_COUNTS {
        let engine = ExecutionEngine::new(workers);
        group.bench_function(format!("{workers}w"), |b| {
            b.iter_batched(
                || federation(model, 8, engine),
                |mut fed| fed.run_round().expect("round runs"),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_lenet(c: &mut Criterion) {
    bench_model(c, "lenet5", lenet);
}

fn bench_alexnet(c: &mut Criterion) {
    bench_model(c, "alexnet", alexnet);
}

criterion_group!(benches, bench_lenet, bench_alexnet);

/// Renders the JSON summary from the harness's measurements: median
/// seconds per `(model, workers)` plus speedup over the 1-worker round.
fn summary_json(c: &Criterion) -> String {
    let baseline_of = |prefix: &str| {
        c.results()
            .iter()
            .find(|r| r.id == format!("{prefix}/1w"))
            .map(|r| r.median.as_secs_f64())
    };
    let rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            let (prefix, workers) = r.id.split_once('/').unwrap_or((r.id.as_str(), "?"));
            let secs = r.median.as_secs_f64();
            let speedup = baseline_of(prefix)
                .filter(|&b| secs > 0.0 && b > 0.0)
                .map(|b| b / secs)
                .unwrap_or(1.0);
            format!(
                "    {{\"model\": \"{}\", \"workers\": \"{}\", \"median_s\": {:.6}, \"speedup_vs_1w\": {:.3}}}",
                prefix.trim_start_matches("engine_round_"),
                workers.trim_end_matches('w'),
                secs,
                speedup
            )
        })
        .collect();
    format!("{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    let json = summary_json(&c);
    let target = gradsec_bench::workspace_target();
    let path = target.join("engine_scaling.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");
}
