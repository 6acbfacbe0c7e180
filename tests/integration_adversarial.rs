//! Hostile-fleet integration: a federation with seeded adversarial
//! personas (update poisoners, scalers, free-riders, colluders) must be
//! bit-identical across every execution path — flat, sharded, and
//! multi-process, over the in-process, threaded-TCP and multiplexed
//! transports — under one scenario seed, because persona assignment is
//! a pure function of `(scenario seed, client id)` and every transform
//! is applied client-side. Robust aggregation must hold the committed
//! model near the clean reference where plain FedAvg is dragged away,
//! and a colluding coalition's observation log must feed the
//! fleet-scale membership inference harness.

use std::sync::Arc;

use gradsec::attacks::fleet::{coalition_attack_auc, FleetMiaConfig};
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::message::{DatasetSpec, ModelSpec};
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::{AdversaryPlan, Aggregator, DistributedBuilder, ExecutionEngine};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::zoo;

const CLIENTS: usize = 16;
const DIM: usize = 12;
const DATA_LEN: usize = 16 * CLIENTS;
const DATA_SEED: u64 = 5;
const MODEL_SEED: u64 = 21;
const SCENARIO_SEED: u64 = 0xAD5;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 3,
        clients_per_round: 6,
        batches_per_cycle: 2,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 17,
    }
}

/// A fleet with every persona active: a fifth of the fleet poisons,
/// plus scalers, free-riders and a colluding coalition.
fn scenario() -> AdversaryPlan {
    AdversaryPlan::seeded(SCENARIO_SEED)
        .poisoners(0.2)
        .scalers(0.1)
        .free_riders(0.1)
        .colluders(0.1)
}

fn builder() -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(DATA_LEN, 2, DIM, DATA_SEED));
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 6, 2, MODEL_SEED).unwrap())
        .clients(CLIENTS, data)
}

fn l2(a: &ModelWeights, b: &ModelWeights) -> f64 {
    let mut sum = 0.0f64;
    for (x, y) in a.iter().zip(b.iter()) {
        for (p, q) in x.w.data().iter().zip(y.w.data()) {
            sum += f64::from(p - q) * f64::from(p - q);
        }
        for (p, q) in x.b.data().iter().zip(y.b.data()) {
            sum += f64::from(p - q) * f64::from(p - q);
        }
    }
    sum.sqrt()
}

#[test]
fn hostile_fleet_is_bit_identical_across_runners_and_transports() {
    let mut reference: Option<(FederationReport, ModelWeights)> = None;
    for transport in [
        TransportKind::InProcess,
        TransportKind::Tcp,
        TransportKind::TcpMux,
    ] {
        for (shards, workers) in [(1usize, 1usize), (1, 4), (3, 2)] {
            let b = builder()
                .adversaries(scenario())
                .transport(transport)
                .engine(ExecutionEngine::new(workers));
            let (report, weights) = if shards == 1 {
                let mut fed = b.build().unwrap();
                let report = fed.run().unwrap();
                let weights = fed.server().global().clone();
                fed.shutdown().unwrap();
                (report, weights)
            } else {
                let mut fed = b.shards(shards).build().unwrap();
                let report = fed.run().unwrap();
                let weights = fed.server().global().clone();
                fed.shutdown().unwrap();
                (report, weights)
            };
            match &reference {
                None => {
                    assert_eq!(report.rounds_completed, 3);
                    reference = Some((report, weights));
                }
                Some((want_report, want_weights)) => {
                    assert_eq!(
                        &report, want_report,
                        "{transport:?} x {shards} shards x {workers} workers: report diverged"
                    );
                    assert_eq!(
                        &weights, want_weights,
                        "{transport:?} x {shards} shards x {workers} workers: weights diverged"
                    );
                }
            }
        }
    }
    // The same hostile fleet across real process boundaries: the shard
    // servers re-derive identical personas from the shipped scenario.
    let (want_report, want_weights) = reference.expect("in-process reference built");
    for (procs, workers) in [(2usize, 2usize), (4, 1)] {
        let mut coord = DistributedBuilder::new(plan())
            .clients(
                CLIENTS,
                DatasetSpec::Micro {
                    len: DATA_LEN as u64,
                    classes: 2,
                    dim: DIM as u64,
                    seed: DATA_SEED,
                },
            )
            .model(ModelSpec::TinyMlp {
                inputs: DIM as u64,
                hidden: 6,
                outputs: 2,
                seed: MODEL_SEED,
            })
            .adversaries(scenario())
            .shards(procs)
            .workers(workers)
            .launch()
            .unwrap();
        let report = coord.run().unwrap();
        assert_eq!(
            report, want_report,
            "{procs} processes x {workers} workers: hostile report diverged"
        );
        assert_eq!(
            coord.server().global(),
            &want_weights,
            "{procs} processes x {workers} workers: hostile weights diverged"
        );
        coord.shutdown().unwrap();
    }
}

#[test]
fn robust_aggregation_holds_where_fedavg_degrades() {
    // Clean reference: no adversaries, plain FedAvg.
    let mut clean = builder().build().unwrap();
    clean.run().unwrap();
    let clean_weights = clean.server().global().clone();
    clean.shutdown().unwrap();

    // A third of the fleet poisons hard.
    let hostile = AdversaryPlan::seeded(SCENARIO_SEED)
        .poisoners(0.34)
        .poison_strength(4.0)
        .poison_noise(0.5);
    let run_hostile = |aggregator: Aggregator| {
        let mut fed = builder()
            .adversaries(hostile.clone())
            .aggregator(aggregator)
            .build()
            .unwrap();
        fed.run().unwrap();
        let w = fed.server().global().clone();
        fed.shutdown().unwrap();
        w
    };
    let poisoned_fedavg = l2(&run_hostile(Aggregator::FedAvg), &clean_weights);
    for robust in [Aggregator::Median, Aggregator::TrimmedMean { trim: 2 }] {
        let drift = l2(&run_hostile(robust), &clean_weights);
        assert!(
            drift < poisoned_fedavg,
            "{} drifted {drift} from clean, fedavg {poisoned_fedavg}",
            robust.name()
        );
    }
}

#[test]
fn collusion_log_feeds_fleet_scale_membership_inference() {
    // Every client colludes: the coalition observes each round's global
    // snapshot, and the pooled log drives the fleet MIA end to end.
    let data = SyntheticMicro::new(DATA_LEN, 2, DIM, DATA_SEED);
    let mut fed = builder()
        .adversaries(AdversaryPlan::seeded(SCENARIO_SEED).colluders(1.0))
        .build()
        .unwrap();
    fed.run().unwrap();
    let log = fed
        .collusion_log()
        .expect("adversarial run keeps a collusion log")
        .clone();
    fed.shutdown().unwrap();
    assert!(!log.colluders().is_empty(), "whole fleet colludes");
    let snapshots = log.snapshots();
    assert_eq!(snapshots.len(), log.rounds_observed());
    assert!(!snapshots.is_empty());

    let mut model = zoo::tiny_mlp(DIM, 6, 2, MODEL_SEED).unwrap();
    let members: Vec<usize> = (0..12).collect();
    let non_members: Vec<usize> = (DATA_LEN - 12..DATA_LEN).collect();
    let report = coalition_attack_auc(
        &mut model,
        &snapshots,
        &data,
        &members,
        &non_members,
        &[],
        &FleetMiaConfig::default(),
    )
    .unwrap();
    assert_eq!(report.per_round.len(), snapshots.len());
    assert_eq!(report.rows, snapshots.len() * 24);
    assert!((0.0..=1.0).contains(&report.pooled_auc));
}
