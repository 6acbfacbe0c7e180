//! Multi-process federation: a fleet split across real shard-server
//! child processes over loopback must produce the *same bits* as the
//! flat in-process federation — same `FederationReport` and same final
//! global weights — for every process count, with and without injected
//! faults. A killed shard process must downgrade to an excluded cohort,
//! never a process-wide failure.

use std::sync::Arc;

use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::faults::FaultPlan;
use gradsec::fl::message::{DatasetSpec, ModelSpec};
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::{DistributedBuilder, ExecutionEngine};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;

const CLIENTS: usize = 8;
const DIM: usize = 12;
const DATA_LEN: usize = 16 * CLIENTS;
const DATA_SEED: u64 = 5;
const MODEL_SEED: u64 = 21;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 3,
        clients_per_round: 5,
        batches_per_cycle: 2,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 17,
    }
}

fn dataset_spec() -> DatasetSpec {
    DatasetSpec::Micro {
        len: DATA_LEN as u64,
        classes: 2,
        dim: DIM as u64,
        seed: DATA_SEED,
    }
}

fn model_spec() -> ModelSpec {
    ModelSpec::TinyMlp {
        inputs: DIM as u64,
        hidden: 6,
        outputs: 2,
        seed: MODEL_SEED,
    }
}

/// The flat in-process federation built from the *same recipe* the
/// shard servers reconstruct from their `ShardConfig` (same dataset
/// spec, model spec, all-TrustZone devices, plain SGD trainers).
fn flat_builder() -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(DATA_LEN, 2, DIM, DATA_SEED));
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 6, 2, MODEL_SEED).unwrap())
        .clients(CLIENTS, data)
        .scheduler(ProtectionPolicy::static_layers(&[1]).unwrap())
}

fn flat_reference(faults: Option<FaultPlan>) -> (FederationReport, ModelWeights) {
    let mut builder = flat_builder();
    if let Some(f) = faults {
        builder = builder.faults(f);
    }
    let mut fed = builder.build().unwrap();
    let report = fed.run().unwrap();
    let weights = fed.server().global().clone();
    fed.shutdown().unwrap();
    (report, weights)
}

fn distributed(shards: usize, workers: usize) -> gradsec::fl::distributed::DistributedBuilder {
    DistributedBuilder::new(plan())
        .clients(CLIENTS, dataset_spec())
        .model(model_spec())
        .scheduler(ProtectionPolicy::static_layers(&[1]).unwrap())
        .shards(shards)
        .workers(workers)
}

#[test]
fn distributed_report_is_invariant_across_processes_and_workers() {
    let (flat_report, flat_weights) = flat_reference(None);
    assert_eq!(flat_report.rounds_completed, 3);
    for (shards, workers) in [(1usize, 2usize), (2, 1), (4, 2)] {
        let mut coord = distributed(shards, workers).launch().unwrap();
        let report = coord.run().unwrap();
        assert_eq!(
            report, flat_report,
            "{shards} processes x {workers} workers: report diverged from flat"
        );
        assert_eq!(
            coord.server().global(),
            &flat_weights,
            "{shards} processes x {workers} workers: weights diverged from flat"
        );
        let (sent, received) = coord.bytes_on_wire();
        assert!(sent > 0 && received > 0, "no bytes crossed the wire");
        coord.shutdown().unwrap();
    }
}

#[test]
fn distributed_matches_inprocess_sharding() {
    // Same shard count, one crossing processes, one staying in-process:
    // the process boundary must be invisible in the bits.
    let mut fed = flat_builder()
        .shards(2)
        .engine(ExecutionEngine::new(2))
        .build()
        .unwrap();
    let sharded_report = fed.run().unwrap();
    let sharded_weights = fed.server().global().clone();
    fed.shutdown().unwrap();

    let mut coord = distributed(2, 2).launch().unwrap();
    let report = coord.run().unwrap();
    assert_eq!(report, sharded_report);
    assert_eq!(coord.server().global(), &sharded_weights);
    coord.shutdown().unwrap();
}

#[test]
fn distributed_fault_injection_matches_flat() {
    let faults = FaultPlan::seeded(0xFA417)
        .dropout(0.2)
        .crash_at(3, 1)
        .deadline_s(30.0)
        .spare(2);
    let (flat_report, flat_weights) = flat_reference(Some(faults.clone()));
    for shards in [2usize, 4] {
        let mut coord = distributed(shards, 2)
            .faults(faults.clone())
            .launch()
            .unwrap();
        let report = coord.run().unwrap();
        assert_eq!(
            report, flat_report,
            "{shards} processes: faulted report diverged from flat"
        );
        assert_eq!(coord.server().global(), &flat_weights);
        coord.shutdown().unwrap();
    }
}

#[test]
fn distributed_screening_cap_matches_flat() {
    let mut fed = flat_builder().screening_sample(6).build().unwrap();
    let flat_report = fed.run().unwrap();
    let flat_weights = fed.server().global().clone();
    fed.shutdown().unwrap();

    let mut coord = distributed(2, 1).screening_sample(6).launch().unwrap();
    let report = coord.run().unwrap();
    assert_eq!(report, flat_report, "screening cap diverged from flat");
    assert_eq!(coord.server().global(), &flat_weights);
    coord.shutdown().unwrap();
}

#[test]
fn killed_shard_downgrades_to_excluded_cohort() {
    let mut coord = distributed(2, 1).launch().unwrap();
    let first = coord.run_round().unwrap();
    assert_eq!(first.participants.len(), 5);

    // SIGKILL the second shard's process: clients 4..8 are gone. The
    // federation must keep committing rounds from the surviving shard
    // instead of failing outright.
    coord.kill_shard(1).unwrap();
    assert!(coord.shard_alive(0));
    assert!(!coord.shard_alive(1));

    let dead_range = coord.layout().range(1);
    for _ in 1..plan().rounds {
        let report = coord.run_round().unwrap();
        assert!(
            !report.participants.is_empty(),
            "surviving shard should keep committing"
        );
        assert!(
            report
                .participants
                .iter()
                .all(|&c| !dead_range.contains(&c)),
            "dead shard's clients must be excluded: {:?}",
            report.participants
        );
        assert_eq!(report.ledger.len(), report.participants.len());
    }
    // Teardown must not report the deliberate kill as an error.
    coord.shutdown().unwrap();
}
