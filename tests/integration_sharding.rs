//! Shard-count invariance: a federation partitioned across engine shards
//! must produce the *same bits* as the flat federation — same
//! `FederationReport` (participants, losses, protected layers, TEE
//! ledgers) and same final global weights — for every `(shards, workers)`
//! combination, on any transport.

use std::sync::Arc;

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::runner::{Federation, FederationReport};
use gradsec::fl::{ExecutionEngine, FlError};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;

const CLIENTS: usize = 8;
const DIM: usize = 12;

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

fn builder(shards: usize, workers: usize) -> gradsec::fl::runner::FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(16 * CLIENTS, 2, DIM, 5));
    let policy = ProtectionPolicy::static_layers(&[1]).unwrap();
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
        .clients(CLIENTS, data)
        .trainer(|_| Box::new(SecureTrainer::new()))
        .scheduler(policy)
        .shards(shards)
        .engine(ExecutionEngine::new(workers))
}

fn flat_reference() -> (FederationReport, ModelWeights) {
    let mut fed = builder(1, 1)
        .shards(1)
        .engine(ExecutionEngine::sequential())
        .build()
        .unwrap();
    let report = fed.run().unwrap();
    let weights = fed.server().global().clone();
    fed.shutdown().unwrap();
    (report, weights)
}

#[test]
fn sharded_report_is_invariant_across_shards_and_workers() {
    let (flat_report, flat_weights) = flat_reference();
    assert_eq!(flat_report.rounds_completed, 3);
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let mut fed = builder(shards, workers).build().unwrap();
            assert_eq!(fed.num_shards(), shards);
            let report = fed.run().unwrap();
            assert_eq!(
                report, flat_report,
                "{shards} shards x {workers} workers: report diverged"
            );
            assert_eq!(
                fed.server().global(),
                &flat_weights,
                "{shards} shards x {workers} workers: weights diverged"
            );
            fed.shutdown().unwrap();
        }
    }
}

#[test]
fn sharded_ledger_accounts_every_participant() {
    let mut fed = builder(4, 2).build().unwrap();
    let report = fed.run().unwrap();
    for round in &report.rounds {
        assert_eq!(round.ledger.len(), round.participants.len());
        // Entries are id-sorted regardless of which shard finished first.
        let ids: Vec<u64> = round.ledger.entries().iter().map(|e| e.client_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        // The static {L2} policy charges enclave time on every client.
        assert!(round.ledger.total_time().kernel_s > 0.0);
    }
    fed.shutdown().unwrap();
}

#[test]
fn sharded_runs_are_transport_agnostic() {
    let run = |transport: TransportKind| -> (FederationReport, ModelWeights) {
        let mut fed = builder(2, 2).transport(transport).build().unwrap();
        let report = fed.run().unwrap();
        let weights = fed.server().global().clone();
        fed.shutdown().unwrap();
        (report, weights)
    };
    let (inproc_report, inproc_weights) = run(TransportKind::InProcess);
    let (tcp_report, tcp_weights) = run(TransportKind::Tcp);
    assert_eq!(inproc_report, tcp_report);
    assert_eq!(inproc_weights, tcp_weights);
}

#[test]
fn duplicate_pick_schedules_error_instead_of_panicking() {
    let mut fed = builder(1, 1).build().unwrap();
    let download = fed.server().download(vec![]);
    for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(4)] {
        let err = engine
            .execute_cycles(fed.clients_mut(), &[0, 3, 0], &download)
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
    }
}

#[test]
fn sharded_federation_debug_and_layout_are_coherent() {
    let fed: Federation = builder(4, 1).build().unwrap();
    assert_eq!(fed.num_clients(), CLIENTS);
    assert_eq!(fed.layout().num_shards(), 4);
    let covered: usize = (0..fed.num_shards())
        .map(|s| fed.layout().range(s).len())
        .sum();
    assert_eq!(covered, CLIENTS);
    let dbg = format!("{fed:?}");
    assert!(dbg.contains("Federation"), "{dbg}");
    assert!(dbg.contains("shards: 4"), "{dbg}");
    fed.shutdown().unwrap();
}
