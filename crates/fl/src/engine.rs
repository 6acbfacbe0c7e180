//! The federation execution engine: fans one round's client exchanges out
//! across a worker pool.
//!
//! Every selected client's local training is independent — each trains a
//! private model replica on a private shard with a per-client seeded
//! batcher (`plan.seed ^ client_id ^ round`), so exchanges can run on any
//! worker in any order without changing a single bit of the result. Since
//! the transport redesign the engine drives [`RemoteClient`] endpoints
//! rather than touching client structs directly:
//!
//! * endpoints are dealt round-robin onto `workers` scoped threads
//!   (the crossbeam idiom the tensor kernels already use), each worker
//!   owning its shard of endpoints for the round,
//! * each exchange lands a [`ClientOutcome`] in a slot keyed by the
//!   client's position in the round's selection, so aggregation order
//!   never depends on timing,
//! * the TEE accounting that arrives *on the wire* with every upload is
//!   recorded into a [`SharedLedger`] as workers finish and merged into an
//!   id-sorted [`RoundLedger`], so the world-switch/crypto bill stays
//!   correct under concurrency — and complete even when clients live in
//!   other processes. A client that fails still gets a ledger entry (an
//!   [`unbilled`](ClientCycleCost::unbilled) zero-cost one), so the round
//!   ledger accounts every selected client, success or not, and a failure
//!   can never leak cost into another client's slot.
//!
//! Failure containment: a schedule with duplicate or out-of-range indices
//! is rejected up front ([`FlError::InvalidSelection`]) instead of
//! panicking, and a panic inside one client's exchange — a buggy trainer,
//! a poisoned endpoint — is caught on the worker and surfaced as that
//! client's [`ClientOutcome::Failed`]. One bad client in a 10⁴-client
//! round can therefore no longer kill the *process*; the round's fate
//! stays a policy decision of the runner.
//!
//! Fault injection: [`execute_cycles_with`](ExecutionEngine::execute_cycles_with)
//! threads an optional [`FaultPlan`] through the exchange path. The plan
//! contributes each client's simulated network latency for the round, and
//! when a round deadline is configured, a client whose simulated elapsed
//! time (latency + cycle compute on the simulated clock) overruns it comes
//! back as [`ClientOutcome::Straggler`] — its cost still billed to the
//! ledger, its update excluded from aggregation — instead of blocking the
//! round. All fault decisions are pure functions of
//! `(fault seed, client, round)`, so they are identical on every worker,
//! shard and transport.
//!
//! [`ExecutionEngine::execute_shards`] lifts the same machinery one level
//! up for sharded fleets: disjoint client shards run concurrently, each
//! with its own worker pool and its own [`RoundLedger`], and the per-shard
//! results come back in shard order for the global merge.
//!
//! With identical seeds — training *and* fault seeds — a 1-worker and an
//! N-worker engine, over the in-process or the TCP transport, sharded or
//! flat, produce bit-identical round reports and final weights (see
//! `tests/integration_engine.rs`, `tests/integration_sharding.rs` and
//! `tests/integration_faults.rs` at the workspace root).

use std::panic::{catch_unwind, AssertUnwindSafe};

use gradsec_tee::cost::{ClientCycleCost, RoundLedger, SharedLedger};

use crate::faults::FaultPlan;
use crate::message::{ModelDownload, UpdateUpload};
use crate::selection::validate_picks;
use crate::transport::RemoteClient;
use crate::{FlError, Result};

/// How one selected client's exchange ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// The client trained and its update arrived within any deadline.
    Completed(UpdateUpload),
    /// The client trained, but its simulated elapsed time (injected
    /// latency + cycle compute) overran the round deadline; its cost is
    /// billed to the ledger but its update is excluded from aggregation.
    Straggler {
        /// The straggling client.
        client: u64,
        /// Simulated seconds from download to (late) upload.
        elapsed_s: f64,
    },
    /// The exchange failed: a transport fault, a client-side error
    /// report, or a panic caught on the worker.
    Failed {
        /// The failing client.
        client: u64,
        /// What went wrong.
        error: FlError,
    },
}

impl ClientOutcome {
    /// The client the outcome belongs to.
    pub fn client_id(&self) -> u64 {
        match self {
            ClientOutcome::Completed(u) => u.client_id,
            ClientOutcome::Straggler { client, .. } | ClientOutcome::Failed { client, .. } => {
                *client
            }
        }
    }

    /// The update, for completed outcomes.
    pub fn update(&self) -> Option<&UpdateUpload> {
        match self {
            ClientOutcome::Completed(u) => Some(u),
            _ => None,
        }
    }

    /// Consumes the outcome into its update, for completed outcomes.
    pub fn into_update(self) -> Option<UpdateUpload> {
        match self {
            ClientOutcome::Completed(u) => Some(u),
            _ => None,
        }
    }

    /// The failure, for failed outcomes.
    pub fn error(&self) -> Option<&FlError> {
        match self {
            ClientOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }

    /// `true` for [`ClientOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ClientOutcome::Completed(_))
    }

    /// `true` for [`ClientOutcome::Straggler`].
    pub fn is_straggler(&self) -> bool {
        matches!(self, ClientOutcome::Straggler { .. })
    }

    /// `true` for [`ClientOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, ClientOutcome::Failed { .. })
    }
}

/// Per-client outcomes of one engine run, in `picked` order, plus the
/// round's merged TEE ledger (one entry per picked client — zero-cost
/// entries for failures).
pub type CycleOutcomes = (Vec<ClientOutcome>, RoundLedger);

/// A round-execution strategy: how many workers drive client exchanges
/// concurrently within one FL cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionEngine {
    workers: usize,
}

impl ExecutionEngine {
    /// One client at a time on the calling thread — the reference
    /// behaviour every parallel configuration must reproduce exactly.
    pub fn sequential() -> Self {
        ExecutionEngine { workers: 1 }
    }

    /// A pool of `workers` threads; `0` means one per available core.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            workers
        };
        ExecutionEngine { workers }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drives the cycles of the clients listed in `picked` (indices into
    /// `clients`) against `download` with no fault plan — see
    /// [`execute_cycles_with`](Self::execute_cycles_with).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when `picked` contains a
    /// duplicate or out-of-range index.
    pub fn execute_cycles(
        &self,
        clients: &mut [RemoteClient],
        picked: &[usize],
        download: &ModelDownload,
    ) -> Result<CycleOutcomes> {
        self.execute_cycles_with(clients, picked, download, None)
    }

    /// Drives the cycles of the clients listed in `picked` (indices into
    /// `clients`) against `download`, returning per-client outcomes in
    /// `picked` order plus the round's merged TEE ledger.
    ///
    /// A failing client (transport error, failed cycle, or a panic inside
    /// its exchange) yields a [`ClientOutcome::Failed`] in its slot; the
    /// other clients' outcomes are unaffected. With a fault plan and a
    /// round deadline, clients whose simulated elapsed time overruns the
    /// deadline yield [`ClientOutcome::Straggler`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when `picked` contains a
    /// duplicate or out-of-range index — per-client failures are *not*
    /// round errors and live in the returned slots instead.
    pub fn execute_cycles_with(
        &self,
        clients: &mut [RemoteClient],
        picked: &[usize],
        download: &ModelDownload,
        faults: Option<&FaultPlan>,
    ) -> Result<CycleOutcomes> {
        validate_picks(picked, clients.len())?;
        let picked_ids: Vec<u64> = picked.iter().map(|&ci| clients[ci].id()).collect();
        let ledger = SharedLedger::new();
        let mut slots: Vec<Option<ClientOutcome>> = (0..picked.len()).map(|_| None).collect();
        if self.workers <= 1 || picked.len() <= 1 {
            for (slot, &ci) in picked.iter().enumerate() {
                slots[slot] = Some(exchange_outcome(
                    &mut clients[ci],
                    download,
                    &ledger,
                    faults,
                ));
            }
        } else {
            // Deal the selected clients round-robin into one shard per
            // worker. The deal is a pure function of (picked, workers),
            // so the partition — and therefore any numeric consequence of
            // it — is reproducible. An O(n) slot map replaces the old
            // per-client `position` scan (O(|picked|·|clients|)), which
            // also silently collapsed duplicate picks onto one slot.
            let mut slot_of: Vec<Option<usize>> = vec![None; clients.len()];
            for (slot, &ci) in picked.iter().enumerate() {
                slot_of[ci] = Some(slot);
            }
            let workers = self.workers.min(picked.len());
            let mut shards: Vec<Vec<(usize, &mut RemoteClient)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (k, (slot, client)) in clients
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| slot_of[i].map(|s| (s, c)))
                .enumerate()
            {
                shards[k % workers].push((slot, client));
            }
            // Remember each worker's slot assignment so a worker that dies
            // wholesale (a panic escaping the per-exchange guard) can be
            // billed to exactly its clients.
            let assignments: Vec<Vec<usize>> = shards
                .iter()
                .map(|shard| shard.iter().map(|(slot, _)| *slot).collect())
                .collect();
            let outcomes = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|mut shard| {
                        let ledger = &ledger;
                        s.spawn(move |_| {
                            shard
                                .iter_mut()
                                .map(|(slot, client)| {
                                    (*slot, exchange_outcome(client, download, ledger, faults))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join())
                    .collect::<Vec<std::thread::Result<_>>>()
            })
            .map_err(|_| FlError::Protocol {
                reason: "engine scope panicked".to_owned(),
            })?;
            for (worker, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(results) => {
                        for (slot, r) in results {
                            slots[slot] = Some(r);
                        }
                    }
                    // The per-exchange guard makes this unreachable in
                    // practice; if it ever fires, the worker's clients
                    // fail individually rather than killing the round.
                    Err(_) => {
                        for &slot in &assignments[worker] {
                            ledger.record(ClientCycleCost::unbilled(picked_ids[slot]));
                            slots[slot] = Some(ClientOutcome::Failed {
                                client: picked_ids[slot],
                                error: FlError::ClientFailure {
                                    client: picked_ids[slot],
                                    reason: "engine worker panicked".to_owned(),
                                },
                            });
                        }
                    }
                }
            }
        }
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(slot, s)| {
                s.unwrap_or_else(|| {
                    ledger.record(ClientCycleCost::unbilled(picked_ids[slot]));
                    ClientOutcome::Failed {
                        client: picked_ids[slot],
                        error: FlError::ClientFailure {
                            client: picked_ids[slot],
                            reason: "engine lost the client's outcome".to_owned(),
                        },
                    }
                })
            })
            .collect();
        Ok((results, ledger.into_round_ledger()))
    }

    /// Runs several disjoint client shards concurrently with no fault
    /// plan — see [`execute_shards_with`](Self::execute_shards_with).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when any shard's picks are
    /// duplicated or out of range (checked before anything runs).
    pub fn execute_shards(
        &self,
        shards: Vec<(&mut [RemoteClient], Vec<usize>)>,
        download: &ModelDownload,
    ) -> Result<Vec<CycleOutcomes>> {
        self.execute_shards_with(shards, download, None)
    }

    /// Runs several disjoint client shards concurrently — each shard's
    /// picked clients on this engine's own worker pool — returning the
    /// per-shard outcomes and per-shard ledgers in shard order.
    ///
    /// `shards` pairs each shard's clients with its *shard-local* pick
    /// indices. Because every shard's execution is independently
    /// deterministic (fault decisions included) and results stay keyed by
    /// shard + slot, the concatenated outcome is bit-identical to running
    /// the shards one after another — which is how a sharded
    /// [`Federation`] reproduces an unsharded round exactly.
    ///
    /// [`Federation`]: crate::runner::Federation
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidSelection`] when any shard's picks are
    /// duplicated or out of range (checked before anything runs).
    pub fn execute_shards_with(
        &self,
        shards: Vec<(&mut [RemoteClient], Vec<usize>)>,
        download: &ModelDownload,
        faults: Option<&FaultPlan>,
    ) -> Result<Vec<CycleOutcomes>> {
        for (clients, picked) in &shards {
            validate_picks(picked, clients.len())?;
        }
        if shards.len() <= 1 {
            return shards
                .into_iter()
                .map(|(clients, picked)| {
                    self.execute_cycles_with(clients, &picked, download, faults)
                })
                .collect();
        }
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(clients, picked)| {
                    s.spawn(move |_| self.execute_cycles_with(clients, &picked, download, faults))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().map_err(|_| FlError::Protocol {
                        reason: "engine shard thread panicked".to_owned(),
                    })?
                })
                .collect()
        })
        .map_err(|_| FlError::Protocol {
            reason: "engine shard scope panicked".to_owned(),
        })?
    }
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        ExecutionEngine::sequential()
    }
}

/// Drives one client exchange and classifies the result. On success the
/// TEE accounting the upload carried across the transport is recorded and
/// the simulated elapsed time (injected latency + cycle compute) is
/// checked against any round deadline; overruns come back as stragglers
/// with their cost still billed. A panic inside the exchange (trainer
/// bug, poisoned endpoint state) is caught and converted into that
/// client's [`ClientOutcome::Failed`] so it cannot take the worker — and
/// with it the whole round — down; failures are billed as zero-cost
/// ledger entries so the round accounts every selected client.
fn exchange_outcome(
    client: &mut RemoteClient,
    download: &ModelDownload,
    ledger: &SharedLedger,
    faults: Option<&FaultPlan>,
) -> ClientOutcome {
    let id = client.id();
    let result =
        catch_unwind(AssertUnwindSafe(|| client.train(download))).unwrap_or_else(|payload| {
            Err(FlError::ClientFailure {
                client: id,
                reason: format!(
                    "client exchange panicked: {}",
                    panic_reason(payload.as_ref())
                ),
            })
        });
    match result {
        Ok(upload) => {
            ledger.record(upload.cost);
            // Draw the latency only when a deadline can consume it: the
            // draw is deterministic either way, but a 10⁴-client round
            // should not pay a per-exchange RNG for a discarded value.
            if let Some(plan) = faults {
                if let Some(deadline) = plan.round_deadline_s() {
                    let elapsed_s = plan.latency_s(id, download.round) + upload.cost.time.total_s();
                    if elapsed_s > deadline {
                        return ClientOutcome::Straggler {
                            client: id,
                            elapsed_s,
                        };
                    }
                }
            }
            ClientOutcome::Completed(upload)
        }
        Err(error) => {
            ledger.record(ClientCycleCost::unbilled(id));
            ClientOutcome::Failed { client: id, error }
        }
    }
}

/// Best-effort rendering of a panic payload (the two forms `panic!`
/// produces, then a generic fallback).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DeviceProfile, FlClient};
    use crate::config::TrainingPlan;
    use crate::faults::LatencyModel;
    use crate::trainer::{CycleStats, LocalTrainer, PlainSgdTrainer};
    use crate::transport::inprocess::LocalEndpoint;
    use gradsec_data::{Dataset, SyntheticCifar100};
    use gradsec_nn::{zoo, Sequential};
    use std::sync::Arc;

    #[test]
    fn zero_workers_means_all_cores() {
        let e = ExecutionEngine::new(0);
        assert!(e.workers() >= 1);
        assert_eq!(ExecutionEngine::new(3).workers(), 3);
        assert_eq!(ExecutionEngine::sequential().workers(), 1);
        assert_eq!(ExecutionEngine::default(), ExecutionEngine::sequential());
    }

    /// A trainer that panics on every cycle — the failure mode the engine
    /// must contain to one client.
    struct PanickingTrainer;

    impl LocalTrainer for PanickingTrainer {
        fn train_cycle(
            &mut self,
            _model: &mut Sequential,
            _dataset: &dyn Dataset,
            _batches: &[Vec<usize>],
            _learning_rate: f32,
            _protected_layers: &[usize],
        ) -> Result<CycleStats> {
            panic!("injected trainer bug");
        }
    }

    /// A plain trainer that also stamps nonzero simulated cost, so these
    /// tests can tell a real bill from a zero-cost failure entry (the
    /// plain baseline itself bills nothing).
    struct BilledTrainer;

    impl LocalTrainer for BilledTrainer {
        fn train_cycle(
            &mut self,
            model: &mut Sequential,
            dataset: &dyn Dataset,
            batches: &[Vec<usize>],
            learning_rate: f32,
            protected_layers: &[usize],
        ) -> Result<CycleStats> {
            let mut stats = PlainSgdTrainer.train_cycle(
                model,
                dataset,
                batches,
                learning_rate,
                protected_layers,
            )?;
            stats.time.user_s = 1.5;
            stats.crossings = 4;
            Ok(stats)
        }
    }

    fn fleet(n: usize, panicking: &[usize]) -> Vec<RemoteClient> {
        let ds = Arc::new(SyntheticCifar100::with_classes(4 * n, 2, 1));
        let shards = gradsec_data::split::shard(4 * n, n, 1);
        (0..n)
            .zip(shards)
            .map(|(i, shard)| {
                let trainer: Box<dyn LocalTrainer> = if panicking.contains(&i) {
                    Box::new(PanickingTrainer)
                } else {
                    Box::new(BilledTrainer)
                };
                let client = FlClient::new(
                    i as u64,
                    DeviceProfile::trustzone(i as u64),
                    ds.clone(),
                    shard,
                    zoo::tiny_mlp(3 * 32 * 32, 4, 2, 9).unwrap(),
                    trainer,
                );
                RemoteClient::connect(Box::new(LocalEndpoint::new(client))).unwrap()
            })
            .collect()
    }

    fn download() -> ModelDownload {
        ModelDownload {
            round: 0,
            weights: zoo::tiny_mlp(3 * 32 * 32, 4, 2, 9).unwrap().weights(),
            plan: TrainingPlan {
                rounds: 1,
                clients_per_round: 4,
                batches_per_cycle: 1,
                batch_size: 2,
                learning_rate: 0.05,
                seed: 3,
            },
            protected_layers: vec![],
        }
    }

    #[test]
    fn duplicate_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(4, &[]);
        for engine in [ExecutionEngine::sequential(), ExecutionEngine::new(3)] {
            let err = engine
                .execute_cycles(&mut clients, &[1, 2, 1], &download())
                .unwrap_err();
            assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
        }
    }

    #[test]
    fn out_of_range_picks_are_an_error_not_a_panic() {
        let mut clients = fleet(2, &[]);
        let err = ExecutionEngine::new(2)
            .execute_cycles(&mut clients, &[0, 5], &download())
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidSelection { .. }), "{err}");
    }

    #[test]
    fn empty_pick_set_runs_to_an_empty_round() {
        let mut clients = fleet(2, &[]);
        let (results, ledger) = ExecutionEngine::new(2)
            .execute_cycles(&mut clients, &[], &download())
            .unwrap();
        assert!(results.is_empty());
        assert!(ledger.is_empty());
    }

    #[test]
    fn a_panicking_client_fails_alone_not_the_round() {
        for workers in [1usize, 3] {
            let mut clients = fleet(4, &[2]);
            let (results, ledger) = ExecutionEngine::new(workers)
                .execute_cycles(&mut clients, &[0, 2, 3], &download())
                .unwrap();
            assert_eq!(results.len(), 3);
            assert!(results[0].is_completed(), "{workers} workers: client 0");
            assert!(results[2].is_completed(), "{workers} workers: client 3");
            match &results[1] {
                ClientOutcome::Failed {
                    client: 2,
                    error: FlError::ClientFailure { client: 2, reason },
                } => {
                    assert!(reason.contains("panicked"), "{reason}");
                }
                other => panic!("expected client 2's panic as Failed, got {other:?}"),
            }
            // Every picked client is accounted: the failed one with a
            // zero-cost entry, the successes with their real bills.
            assert_eq!(ledger.len(), 3);
            let failed = ledger.client(2).expect("failed client is in the ledger");
            assert_eq!(failed.crossings, 0);
            assert_eq!(failed.time.total_s(), 0.0);
            for id in [0u64, 3] {
                assert!(ledger.client(id).expect("billed").time.total_s() > 0.0);
            }
        }
    }

    #[test]
    fn deadline_turns_slow_clients_into_stragglers() {
        let plan = FaultPlan::seeded(5)
            .client_latency(1, LatencyModel::Fixed(100.0))
            .deadline_s(50.0);
        for workers in [1usize, 3] {
            let mut clients = fleet(3, &[]);
            let (results, ledger) = ExecutionEngine::new(workers)
                .execute_cycles_with(&mut clients, &[0, 1, 2], &download(), Some(&plan))
                .unwrap();
            assert!(results[0].is_completed());
            assert!(results[2].is_completed());
            match &results[1] {
                ClientOutcome::Straggler {
                    client: 1,
                    elapsed_s,
                } => {
                    assert!(*elapsed_s > 50.0, "{elapsed_s}");
                }
                other => panic!("expected a straggler, got {other:?}"),
            }
            // The straggler's compute is still billed.
            assert_eq!(ledger.len(), 3);
            assert!(ledger.client(1).expect("billed").time.total_s() > 0.0);
        }
    }

    #[test]
    fn no_deadline_means_no_stragglers_whatever_the_latency() {
        let plan = FaultPlan::seeded(5).latency(LatencyModel::Fixed(1e6));
        let mut clients = fleet(2, &[]);
        let (results, _) = ExecutionEngine::sequential()
            .execute_cycles_with(&mut clients, &[0, 1], &download(), Some(&plan))
            .unwrap();
        assert!(results.iter().all(ClientOutcome::is_completed));
    }

    #[test]
    fn execute_shards_matches_per_shard_execute_cycles() {
        let build = || {
            let mut all = fleet(6, &[]);
            let tail = all.split_off(3);
            (all, tail)
        };
        let engine = ExecutionEngine::new(2);
        let (mut a_seq, mut b_seq) = build();
        let want_a = engine
            .execute_cycles(&mut a_seq, &[0, 2], &download())
            .unwrap();
        let want_b = engine
            .execute_cycles(&mut b_seq, &[1], &download())
            .unwrap();
        let (mut a, mut b) = build();
        let got = engine
            .execute_shards(
                vec![(a.as_mut_slice(), vec![0, 2]), (b.as_mut_slice(), vec![1])],
                &download(),
            )
            .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], want_a);
        assert_eq!(got[1], want_b);
    }

    #[test]
    fn outcome_accessors_are_coherent() {
        let failed = ClientOutcome::Failed {
            client: 4,
            error: FlError::ClientFailure {
                client: 4,
                reason: "x".into(),
            },
        };
        assert_eq!(failed.client_id(), 4);
        assert!(failed.error().is_some());
        assert!(failed.update().is_none());
        assert!(!failed.is_completed() && failed.is_failed());
        let straggler = ClientOutcome::Straggler {
            client: 9,
            elapsed_s: 2.0,
        };
        assert_eq!(straggler.client_id(), 9);
        assert!(straggler.is_straggler());
        assert!(straggler.clone().into_update().is_none());
    }
}
