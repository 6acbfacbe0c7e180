//! Engine determinism: the parallel round engine must be bit-identical
//! to the sequential runner — same round reports (including the TEE
//! ledger) and same final global weights — for any worker count.

use std::sync::Arc;

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticCifar100;
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::{Federation, FederationReport};
use gradsec::fl::ExecutionEngine;
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;

fn lenet_federation(engine: ExecutionEngine) -> Federation {
    let data = Arc::new(SyntheticCifar100::with_classes(64, 2, 11));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).unwrap();
    Federation::builder(TrainingPlan {
        rounds: 2,
        clients_per_round: 3,
        batches_per_cycle: 2,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 23,
    })
    .model(|| zoo::lenet5_with(2, 31).expect("LeNet-5 builds"))
    .clients(4, data)
    .trainer(|_| Box::new(SecureTrainer::new()))
    .scheduler(policy)
    .engine(engine)
    .build()
    .unwrap()
}

fn run_with_workers(workers: usize) -> (FederationReport, ModelWeights) {
    let engine = if workers == 0 {
        ExecutionEngine::sequential()
    } else {
        ExecutionEngine::new(workers)
    };
    let mut fed = lenet_federation(engine);
    let report = fed.run().unwrap();
    (report, fed.server().global().clone())
}

#[test]
fn parallel_engine_is_bit_identical_across_worker_counts() {
    let (seq_report, seq_weights) = run_with_workers(0);
    assert_eq!(seq_report.rounds_completed, 2);
    for workers in [1usize, 2, 4] {
        let (report, weights) = run_with_workers(workers);
        assert_eq!(
            seq_report, report,
            "{workers}-worker round reports diverged from sequential"
        );
        assert_eq!(
            seq_weights, weights,
            "{workers}-worker final weights diverged from sequential"
        );
    }
}

#[test]
fn round_ledger_carries_enclave_accounting_under_parallelism() {
    let mut fed = lenet_federation(ExecutionEngine::new(3));
    let report = fed.run().unwrap();
    for round in &report.rounds {
        let ledger = &round.ledger;
        assert_eq!(
            ledger.len(),
            round.participants.len(),
            "one ledger entry per participant"
        );
        // Entries are id-sorted regardless of worker completion order.
        let ids: Vec<u64> = ledger.entries().iter().map(|e| e.client_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        // {L2, L5} protection charges enclave time, crossings and memory.
        assert!(ledger.total_time().kernel_s > 0.0);
        assert!(ledger.total_time().alloc_s > 0.0);
        assert!(ledger.total_crossings() > 0);
        assert!(ledger.max_tee_peak_bytes() > 0);
        // The critical path is at most the full bill, and positive.
        assert!(ledger.critical_path_s() > 0.0);
        assert!(ledger.critical_path_s() <= ledger.total_time().total_s() + 1e-12);
    }
}

#[test]
fn dynamic_policy_schedules_identically_on_every_engine() {
    let data = Arc::new(SyntheticCifar100::with_classes(48, 2, 7));
    let window = gradsec::core::window::MovingWindow::uniform(2, 5, 13).unwrap();
    let build = |engine: ExecutionEngine| {
        Federation::builder(TrainingPlan {
            rounds: 4,
            clients_per_round: 2,
            batches_per_cycle: 1,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 9,
        })
        .model(|| zoo::lenet5_with(2, 3).expect("builds"))
        .clients(3, data.clone())
        .scheduler(ProtectionPolicy::dynamic(
            gradsec::core::window::MovingWindow::uniform(2, 5, 13).unwrap(),
        ))
        .engine(engine)
        .build()
        .unwrap()
    };
    let mut seq = build(ExecutionEngine::sequential());
    let seq_report = seq.run().unwrap();
    let mut par = build(ExecutionEngine::new(2));
    let par_report = par.run().unwrap();
    assert_eq!(seq_report, par_report);
    // The schedule itself followed the window's deterministic draws.
    for r in &seq_report.rounds {
        assert_eq!(r.protected_layers, window.layers_for_round(r.round));
    }
}
