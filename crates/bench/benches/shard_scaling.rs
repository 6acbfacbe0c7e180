//! Round wall-clock vs engine shard count (1/2/4/8) over a lightweight
//! kilo-client fleet.
//!
//! Each measurement builds a fresh sharded federation over
//! [`SyntheticMicro`] data (fleet size via `GRADSEC_BENCH_CLIENTS`,
//! default 512) and times one full FL round — shard-scoped screening,
//! concurrent per-shard execution, canonical merge. Besides the usual
//! per-benchmark lines, a machine-readable summary (median seconds per
//! shard count plus the speedup over the 1-shard run) is written to
//! `target/shard_scaling.json` for the performance trajectory (CI uploads
//! it as a workflow artifact).
//!
//! Results are bit-identical across shard counts (that is asserted by
//! `tests/integration_sharding.rs` and `repro_shards`); this bench only
//! measures how the wall clock scales.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::Federation;
use gradsec_fl::ExecutionEngine;
use gradsec_nn::zoo;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DIM: usize = 8;

fn fleet_size() -> usize {
    std::env::var("GRADSEC_BENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

fn federation(clients: usize, shards: usize) -> Federation {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .shards(shards)
    .engine(ExecutionEngine::new(2))
    .build()
    .expect("sharded federation builds")
}

fn bench_shards(c: &mut Criterion) {
    let clients = fleet_size();
    let mut group = c.benchmark_group("shard_round");
    group.sample_size(5);
    for shards in SHARD_COUNTS {
        group.bench_function(format!("{shards}s"), |b| {
            b.iter_batched(
                || federation(clients, shards),
                |mut fed| fed.run_round().expect("round runs"),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shards);

/// Renders the JSON summary from the harness's measurements: median
/// seconds per shard count plus speedup over the 1-shard round.
fn summary_json(c: &Criterion, clients: usize) -> String {
    let baseline = c
        .results()
        .iter()
        .find(|r| r.id == "shard_round/1s")
        .map(|r| r.median.as_secs_f64());
    let rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            let shards = r
                .id
                .split_once('/')
                .map_or("?", |(_, s)| s.trim_end_matches('s'));
            let secs = r.median.as_secs_f64();
            let speedup = baseline
                .filter(|&b| secs > 0.0 && b > 0.0)
                .map(|b| b / secs)
                .unwrap_or(1.0);
            format!(
                "    {{\"shards\": \"{shards}\", \"clients\": {clients}, \"median_s\": {secs:.6}, \"speedup_vs_1shard\": {speedup:.3}}}"
            )
        })
        .collect();
    format!("{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    let json = summary_json(&c, fleet_size());
    let target = gradsec_bench::workspace_target();
    let path = target.join("shard_scaling.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");
}
