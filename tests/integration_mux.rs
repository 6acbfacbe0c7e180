//! Multiplexed-transport determinism: a federation whose client fleet is
//! served by the mux event loops ([`TransportKind::TcpMux`]) must be
//! bit-identical to the thread-per-connection TCP transport and to the
//! in-process transport — same per-round reports and final global
//! weights — flat or sharded, clean or faulted, whatever the event-loop
//! count or read-chunk size. The protocol bytes are identical on every
//! path; the mux only changes who drives the sockets.

use std::sync::Arc;

use gradsec::core::trainer::SecureTrainer;
use gradsec::core::ProtectionPolicy;
use gradsec::data::SyntheticMicro;
use gradsec::fl::config::{MuxOptions, TrainingPlan, TransportKind};
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::{ExecutionEngine, FaultPlan, LatencyModel};
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

fn builder() -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(16 * CLIENTS, 2, DIM, 5));
    let policy = ProtectionPolicy::static_layers(&[1]).unwrap();
    Federation::builder(plan())
        .model(|| zoo::tiny_mlp(DIM, 6, 2, 21).unwrap())
        .clients(CLIENTS, data)
        .trainer(|_| Box::new(SecureTrainer::new()))
        .scheduler(policy)
}

fn run(mut fed: Federation) -> (FederationReport, ModelWeights) {
    let report = fed.run().unwrap();
    let weights = fed.server().global().clone();
    fed.shutdown().unwrap();
    (report, weights)
}

#[test]
fn mux_round_is_bit_identical_to_threaded_tcp_and_in_process() {
    let mut reference = None;
    for transport in [
        TransportKind::InProcess,
        TransportKind::Tcp,
        TransportKind::TcpMux,
    ] {
        for workers in [1usize, 2, 4] {
            let fed = builder()
                .transport(transport)
                .engine(ExecutionEngine::new(workers))
                .build()
                .unwrap();
            let got = run(fed);
            match &reference {
                None => {
                    assert_eq!(got.0.rounds_completed, 3);
                    reference = Some(got);
                }
                Some(want) => {
                    assert_eq!(
                        &got.0, &want.0,
                        "{transport:?} x {workers} workers: report diverged"
                    );
                    assert_eq!(
                        &got.1, &want.1,
                        "{transport:?} x {workers} workers: weights diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_mux_matches_the_flat_sequential_reference() {
    let (flat_report, flat_weights) = {
        let mut fed = builder()
            .engine(ExecutionEngine::sequential())
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        let weights = fed.server().global().clone();
        fed.shutdown().unwrap();
        (report, weights)
    };
    for shards in [1usize, 4] {
        for workers in [1usize, 2] {
            let mut fed = builder()
                .transport(TransportKind::TcpMux)
                .shards(shards)
                .engine(ExecutionEngine::new(workers))
                .build()
                .unwrap();
            let report = fed.run().unwrap();
            assert_eq!(
                report, flat_report,
                "mux x {shards} shards x {workers} workers: report diverged"
            );
            assert_eq!(
                fed.server().global(),
                &flat_weights,
                "mux x {shards} shards x {workers} workers: weights diverged"
            );
            fed.shutdown().unwrap();
        }
    }
}

#[test]
fn faulted_mux_is_bit_identical_under_a_fixed_seed() {
    let faults = || {
        FaultPlan::seeded(0xFA417)
            .dropout(0.15)
            .drop_messages(0.08)
            .garble_replies(0.05)
            .latency(LatencyModel::Exponential { mean_s: 1.0 })
            .spare(3)
    };
    let mut reference = None;
    for transport in [TransportKind::Tcp, TransportKind::TcpMux] {
        let fed = builder()
            .transport(transport)
            .faults(faults())
            .engine(ExecutionEngine::new(2))
            .build()
            .unwrap();
        let got = run(fed);
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(&got.0, &want.0, "{transport:?}: faulted report diverged");
                assert_eq!(&got.1, &want.1, "{transport:?}: faulted weights diverged");
            }
        }
    }
    // The fixture must actually exercise the fault machinery over the
    // mux path, not just happen to run clean.
    let (report, _) = reference.unwrap();
    assert!(
        report
            .rounds
            .iter()
            .any(|r| !r.failures.is_empty() || !r.stragglers.is_empty()),
        "fixture produced no faults — retune the seed"
    );
}

#[test]
fn tiny_read_chunks_force_straddled_frames_and_still_match() {
    // A 7-byte read chunk is smaller than the 13-byte envelope header:
    // every frame the event loop reassembles straddles multiple reads.
    // A 256-byte write bound forces the backpressure path (replies park
    // in the session queue until the peer drains). Results must not
    // notice.
    let (want_report, want_weights) = {
        let fed = builder().transport(TransportKind::Tcp).build().unwrap();
        run(fed)
    };
    let fed = builder()
        .transport(TransportKind::TcpMux)
        .mux(MuxOptions {
            loops: 2,
            read_chunk: 7,
            write_bound: 256,
        })
        .build()
        .unwrap();
    let (report, weights) = run(fed);
    assert_eq!(report, want_report, "tiny-chunk mux report diverged");
    assert_eq!(weights, want_weights, "tiny-chunk mux weights diverged");
}
