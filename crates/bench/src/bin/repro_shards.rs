//! Fleet-scale sharding repro: runs one federated round over lightweight
//! client fleets (default 1,000 and 10,000 clients, all participating)
//! for 1/2/4/8 engine shards × 1/4 workers, asserts every sharded report
//! and final global model is **bit-identical** to the flat, sequential
//! reference run, and exports the wall-clock table as JSON
//! (`target/repro_shards.json` plus stdout).
//!
//! Exits non-zero when any configuration diverges from the reference or a
//! malformed (duplicate-pick) schedule fails to error — so CI can use the
//! binary as an end-to-end scale gate.
//!
//! Environment:
//!
//! * `GRADSEC_FLEETS=1000,10000` — override the fleet sizes.
//! * `GRADSEC_ROUNDS=n` — rounds per run (default 1).

use std::sync::Arc;
use std::time::Instant;

use gradsec_data::SyntheticMicro;
use gradsec_fl::config::TrainingPlan;
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::{ExecutionEngine, FlError};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKER_COUNTS: [usize; 2] = [1, 4];
const DIM: usize = 8;

fn env_usize(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fleets() -> Vec<usize> {
    std::env::var("GRADSEC_FLEETS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1_000, 10_000])
}

fn builder(clients: usize, rounds: u64) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
}

/// The flat, sequential reference every sharded configuration must
/// reproduce exactly.
fn reference(clients: usize, rounds: u64) -> (FederationReport, ModelWeights, f64) {
    let mut fed = builder(clients, rounds)
        .engine(ExecutionEngine::sequential())
        .build()
        .expect("flat fleet builds");
    let start = Instant::now();
    let report = fed.run().expect("reference run completes");
    let wall = start.elapsed().as_secs_f64();
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights, wall)
}

/// A malformed schedule must surface as an error, never a panic — the
/// regression the engine hardening fixed.
fn duplicate_picks_error() -> bool {
    let mut fed = builder(8, 1).build().expect("probe fleet builds");
    let download = fed.server().download(vec![]);
    let outcome = ExecutionEngine::new(4).execute_cycles(fed.clients_mut(), &[0, 3, 0], &download);
    matches!(outcome, Err(FlError::InvalidSelection { .. }))
}

fn main() {
    let rounds = env_usize("GRADSEC_ROUNDS", 1);
    let mut all_identical = true;
    let mut fleet_rows = Vec::new();
    for clients in fleets() {
        eprintln!("{clients}-client fleet: flat sequential reference…");
        let (flat_report, flat_weights, flat_wall) = reference(clients, rounds);
        let mut rows = Vec::new();
        for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let mut fed = builder(clients, rounds)
                    .shards(shards)
                    .engine(ExecutionEngine::new(workers))
                    .build()
                    .expect("sharded fleet builds");
                let start = Instant::now();
                let report = fed.run().expect("sharded run completes");
                let wall = start.elapsed().as_secs_f64();
                let identical = report == flat_report && fed.server().global() == &flat_weights;
                all_identical &= identical;
                fed.shutdown().expect("clean teardown");
                eprintln!(
                    "  {shards} shards x {workers} workers: {:.3}s ({})",
                    wall,
                    if identical {
                        "bit-identical"
                    } else {
                        "DIVERGED"
                    }
                );
                rows.push(format!(
                    r#"{{"shards":{shards},"workers":{workers},"wall_s":{},"identical":{identical}}}"#,
                    json_number(wall)
                ));
            }
        }
        fleet_rows.push(format!(
            r#"{{"clients":{clients},"rounds":{rounds},"flat_sequential_wall_s":{},"configs":[{}]}}"#,
            json_number(flat_wall),
            rows.join(",")
        ));
    }
    let dup_errors = duplicate_picks_error();
    let json = format!(
        r#"{{"fleets":[{}],"all_bit_identical":{all_identical},"duplicate_pick_schedules_error":{dup_errors}}}"#,
        fleet_rows.join(",")
    );
    let target = gradsec_bench::workspace_target();
    let path = target.join("repro_shards.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");
    if !all_identical {
        eprintln!("FAIL: a sharded configuration diverged from the flat reference");
        std::process::exit(1);
    }
    if !dup_errors {
        eprintln!("FAIL: duplicate-pick schedule did not return an error");
        std::process::exit(1);
    }
}
