//! Backend invariance across the federation stack.
//!
//! The kernel backend is a *whole-run* policy: `FederationBuilder::
//! backend(...)` points the prototype model at one kernel set and every
//! client replica (and every per-worker copy the engine makes) inherits
//! it. Within one backend, runs must stay bit-identical across
//! sequential/parallel engines, flat/sharded fleets and transports —
//! exactly the guarantee the pre-backend stack had, now parameterised by
//! `BackendKind`. Across backends only f32 rounding may differ.
//!
//! The model is a small LeNet-style conv stack so the conv, pool, dense
//! and elementwise kernels are all exercised, not just matmul.

use std::sync::Arc;

use gradsec::data::SyntheticCifar100;
use gradsec::fl::config::{TrainingPlan, TransportKind};
use gradsec::fl::faults::FaultPlan;
use gradsec::fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec::fl::ExecutionEngine;
use gradsec::nn::model::ModelWeights;
use gradsec::nn::{zoo, BackendKind, Sequential};

const CLIENTS: usize = 4;

fn plan() -> TrainingPlan {
    TrainingPlan {
        rounds: 2,
        clients_per_round: 2,
        batches_per_cycle: 1,
        batch_size: 4,
        learning_rate: 0.05,
        seed: 23,
    }
}

fn model() -> Sequential {
    // LeNet-5 shrunk to a 2-class head: 4 conv layers + 1 dense.
    zoo::lenet5_with(2, 11).expect("model builds")
}

fn builder(backend: BackendKind) -> FederationBuilder {
    let data = Arc::new(SyntheticCifar100::with_classes(8 * CLIENTS, 2, 3));
    Federation::builder(plan())
        .model(model)
        .clients(CLIENTS, data)
        .backend(backend)
}

fn run_flat(backend: BackendKind, workers: usize) -> (FederationReport, ModelWeights) {
    let engine = if workers <= 1 {
        ExecutionEngine::sequential()
    } else {
        ExecutionEngine::new(workers)
    };
    let mut fed = builder(backend)
        .engine(engine)
        .build()
        .expect("flat federation builds");
    let report = fed.run().expect("flat run completes");
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights)
}

fn run_sharded(
    backend: BackendKind,
    shards: usize,
    workers: usize,
    transport: TransportKind,
) -> (FederationReport, ModelWeights) {
    let mut fed = builder(backend)
        .shards(shards)
        .engine(ExecutionEngine::new(workers))
        .transport(transport)
        .build()
        .expect("sharded federation builds");
    let report = fed.run().expect("sharded run completes");
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights)
}

/// Within one backend, flat-sequential, flat-parallel and sharded runs
/// (in-process and TCP) are all bit-identical.
#[test]
fn runs_are_bit_identical_within_each_backend() {
    for backend in BackendKind::ALL {
        let (reference, ref_weights) = run_flat(backend, 1);
        assert_eq!(reference.rounds_completed, plan().rounds);
        for workers in [2usize, 4] {
            let (report, weights) = run_flat(backend, workers);
            assert_eq!(
                report, reference,
                "{backend}: {workers}-worker flat diverged"
            );
            assert_eq!(
                weights, ref_weights,
                "{backend}: {workers}-worker weights diverged"
            );
        }
        for (shards, workers) in [(2usize, 1usize), (2, 2), (4, 2)] {
            let (report, weights) = run_sharded(backend, shards, workers, TransportKind::InProcess);
            assert_eq!(
                report, reference,
                "{backend}: {shards}x{workers} sharded diverged"
            );
            assert_eq!(
                weights, ref_weights,
                "{backend}: {shards}x{workers} weights diverged"
            );
        }
        let (report, weights) = run_sharded(backend, 2, 2, TransportKind::Tcp);
        assert_eq!(report, reference, "{backend}: TCP sharded diverged");
        assert_eq!(weights, ref_weights, "{backend}: TCP weights diverged");
    }
}

/// Faulted runs are bit-identical within a backend too: the fault plan
/// is a pure function of its seed, and the backend only changes kernel
/// arithmetic, never control flow.
#[test]
fn faulted_runs_are_bit_identical_within_each_backend() {
    let faults = || FaultPlan::seeded(41).dropout(0.3).spare(2);
    for backend in BackendKind::ALL {
        let run = |shards: usize, workers: usize| {
            let mut fed = builder(backend)
                .faults(faults())
                .shards(shards)
                .engine(ExecutionEngine::new(workers))
                .build()
                .expect("faulted federation builds");
            let report = fed.run().expect("faulted run completes");
            let weights = fed.server().global().clone();
            fed.shutdown().expect("clean teardown");
            (report, weights)
        };
        let (reference, ref_weights) = run(1, 1);
        // The chaos must be real for the property to mean anything.
        assert!(
            reference
                .rounds
                .iter()
                .any(|r| !r.failures.is_empty() || !r.surplus.is_empty()),
            "{backend}: fault plan injected nothing"
        );
        for (shards, workers) in [(2usize, 2usize), (4, 1)] {
            let (report, weights) = run(shards, workers);
            assert_eq!(
                report, reference,
                "{backend}: faulted {shards}x{workers} diverged"
            );
            assert_eq!(weights, ref_weights, "{backend}: faulted weights diverged");
        }
    }
}

/// The builder default is the `GRADSEC_BACKEND` selection (reference
/// when unset) and is bit-identical to passing that kind explicitly;
/// blocked runs land within kernel-rounding distance of reference but
/// are *not* required to match bits. Comparing against `from_env()`
/// rather than a hardcoded `Reference` keeps the test meaningful when
/// the whole suite is run under a `GRADSEC_BACKEND` override.
#[test]
fn backends_agree_within_rounding_and_default_follows_env() {
    let data = Arc::new(SyntheticCifar100::with_classes(8 * CLIENTS, 2, 3));
    let mut default_fed = Federation::builder(plan())
        .model(model)
        .clients(CLIENTS, data)
        .build()
        .expect("default federation builds");
    let default_report = default_fed.run().expect("default run completes");
    let default_weights = default_fed.server().global().clone();
    default_fed.shutdown().expect("clean teardown");

    let (env_report, env_weights) = run_flat(BackendKind::from_env(), 1);
    assert_eq!(
        default_report, env_report,
        "default backend is not the GRADSEC_BACKEND selection"
    );
    assert_eq!(default_weights, env_weights);

    let (ref_report, ref_weights) = run_flat(BackendKind::Reference, 1);

    let (blk_report, blk_weights) = run_flat(BackendKind::Blocked, 1);
    assert_eq!(blk_report.rounds_completed, ref_report.rounds_completed);
    for (r, b) in ref_report.rounds.iter().zip(&blk_report.rounds) {
        assert_eq!(
            r.participants, b.participants,
            "selection must not depend on backend"
        );
        assert!(
            (r.mean_loss - b.mean_loss).abs() < 1e-3,
            "round {}: loss {} vs {}",
            r.round,
            r.mean_loss,
            b.mean_loss
        );
    }
    for (a, b) in ref_weights.iter().zip(blk_weights.iter()) {
        assert!(
            a.w.approx_eq(&b.w, 1e-2),
            "weights drifted past rounding distance"
        );
        assert!(a.b.approx_eq(&b.b, 1e-2));
    }

    // The tiled backend (register-tiled GEMM, virtual-im2col conv,
    // fused activations — whichever micro-kernel ISA the host resolves)
    // honours the same whole-run contract: identical control flow,
    // kernel arithmetic within rounding distance of reference.
    let (tld_report, tld_weights) = run_flat(BackendKind::Tiled, 1);
    assert_eq!(tld_report.rounds_completed, ref_report.rounds_completed);
    for (r, t) in ref_report.rounds.iter().zip(&tld_report.rounds) {
        assert_eq!(
            r.participants, t.participants,
            "selection must not depend on backend"
        );
        assert!(
            (r.mean_loss - t.mean_loss).abs() < 1e-3,
            "round {}: loss {} vs {}",
            r.round,
            r.mean_loss,
            t.mean_loss
        );
    }
    for (a, t) in ref_weights.iter().zip(tld_weights.iter()) {
        assert!(
            a.w.approx_eq(&t.w, 1e-2),
            "tiled weights drifted past rounding distance"
        );
        assert!(a.b.approx_eq(&t.b, 1e-2));
    }
}
