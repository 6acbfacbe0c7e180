//! Chaos-at-scale repro: runs one federated round over lightweight client
//! fleets (default 1,000 clients) under a fixed fault seed — 10% dropout,
//! message loss, garbled replies, an exponential latency tail and a
//! straggler deadline, with over-provisioned selection — for 1/2/4/8
//! engine shards × 1/4 workers, asserts every faulted report and final
//! global model is **bit-identical** to the flat, sequential faulted
//! reference, and exports the wall-clock/outcome table as JSON
//! (`target/fault_scaling.json` plus stdout).
//!
//! Exits non-zero when any configuration diverges from the reference,
//! when the faulted round fails to commit a full cohort, or when no fault
//! actually landed (a silent no-op chaos run is a bug, not a pass) — so
//! CI can use the binary as an end-to-end fault-tolerance gate.
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
use gradsec_fl::{ExecutionEngine, FaultPlan, LatencyModel};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKER_COUNTS: [usize; 2] = [1, 4];
const DIM: usize = 8;
const FAULT_SEED: u64 = 0xFA417;

fn env_u64(name: &str, default: u64) -> u64 {
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
        .unwrap_or_else(|| vec![1_000])
}

fn fault_plan(clients: usize) -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED)
        .dropout(0.10)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .deadline_s(1.5)
        // A quarter of the cohort again as spares keeps the round
        // committing full cohorts under the ~15% combined shed rate.
        .spare(clients / 16 / 4 + 8)
}

fn builder(clients: usize, rounds: u64) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds,
        clients_per_round: clients / 16,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .faults(fault_plan(clients))
}

/// The flat, sequential faulted reference every sharded configuration
/// must reproduce exactly.
fn reference(clients: usize, rounds: u64) -> (FederationReport, ModelWeights, f64) {
    let mut fed = builder(clients, rounds)
        .engine(ExecutionEngine::sequential())
        .build()
        .expect("flat fleet builds");
    let start = Instant::now();
    let report = fed.run().expect("faulted reference run completes");
    let wall = start.elapsed().as_secs_f64();
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights, wall)
}

fn main() {
    let rounds = env_u64("GRADSEC_ROUNDS", 1);
    let mut all_identical = true;
    let mut chaos_landed = true;
    let mut cohorts_full = true;
    let mut fleet_rows = Vec::new();
    for clients in fleets() {
        let k = clients / 16;
        eprintln!("{clients}-client fleet: flat sequential faulted reference…");
        let (flat_report, flat_weights, flat_wall) = reference(clients, rounds);
        let stragglers: usize = flat_report.rounds.iter().map(|r| r.stragglers.len()).sum();
        let failures: usize = flat_report.rounds.iter().map(|r| r.failures.len()).sum();
        let surplus: usize = flat_report.rounds.iter().map(|r| r.surplus.len()).sum();
        chaos_landed &= stragglers + failures > 0;
        cohorts_full &= flat_report.rounds.iter().all(|r| r.participants.len() == k);
        eprintln!(
            "  reference: {stragglers} stragglers, {failures} failures, {surplus} surplus \
             across {} round(s)",
            flat_report.rounds.len()
        );
        let mut rows = Vec::new();
        for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let mut fed = builder(clients, rounds)
                    .shards(shards)
                    .engine(ExecutionEngine::new(workers))
                    .build()
                    .expect("sharded fleet builds");
                let start = Instant::now();
                let report = fed.run().expect("sharded faulted run completes");
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
            r#"{{"clients":{clients},"rounds":{rounds},"cohort":{k},"stragglers":{stragglers},"failures":{failures},"surplus":{surplus},"flat_sequential_wall_s":{},"configs":[{}]}}"#,
            json_number(flat_wall),
            rows.join(",")
        ));
    }
    let json = format!(
        r#"{{"fault_seed":{FAULT_SEED},"fleets":[{}],"all_bit_identical":{all_identical},"chaos_landed":{chaos_landed},"cohorts_full":{cohorts_full}}}"#,
        fleet_rows.join(",")
    );
    let target = gradsec_bench::workspace_target();
    let path = target.join("fault_scaling.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{json}");
    if !all_identical {
        eprintln!("FAIL: a faulted configuration diverged from the flat reference");
        std::process::exit(1);
    }
    if !chaos_landed {
        eprintln!("FAIL: the fault plan injected nothing — the chaos run was a no-op");
        std::process::exit(1);
    }
    if !cohorts_full {
        eprintln!("FAIL: over-provisioned selection failed to fill a cohort");
        std::process::exit(1);
    }
}
