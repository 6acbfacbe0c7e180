//! Federation orchestration: wiring server and clients through rounds.
//!
//! [`Federation`] is the one runner. It owns the [`FlServer`], a
//! contiguous [`ShardLayout`] over the fleet, and the fleet itself, which
//! lives in one of two places:
//!
//! * **In this process.** The builder assembles the clients, wires each
//!   onto the configured [`TransportKind`] (zero-copy in-process dispatch
//!   by default; loopback TCP with one service thread per client; or
//!   multiplexed loopback TCP served by a small event-loop pool) and
//!   handshakes every endpoint. Each round the flat client list is cut
//!   along the layout and every shard runs its picks on its own
//!   [`ExecutionEngine`] pool.
//! * **In shard-server processes**, launched by
//!   [`DistributedBuilder`](crate::distributed::DistributedBuilder): each
//!   layout shard is a child process reached over one envelope channel
//!   (see [`crate::distributed`]).
//!
//! Either way a round is the same loop: draw the screening plan, screen
//! the candidates, sample, build the download, execute, and commit through
//! one path. Screening walks candidates in global client order, and the
//! per-shard outcomes concatenate back into canonical selection order, so
//! for any `(shards, workers, transport, processes)` combination the
//! report and final weights are bit-identical to the flat run.

use std::sync::Arc;
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use gradsec_data::{split, Dataset};
use gradsec_nn::{BackendKind, Sequential};
use gradsec_tee::attestation::Measurement;
use gradsec_tee::cost::RoundLedger;
use gradsec_tee::crypto::sha256::sha256;

use crate::adversary::{Adversary, AdversaryPlan, CollusionLog, ReputationBook};
use crate::aggregate::{Aggregator, PartialAggregate};
use crate::client::{DeviceProfile, FlClient};
use crate::codec::CodecKind;
use crate::config::{MuxOptions, PartitionKind, ShardLayout, TrainingPlan, TransportKind};
use crate::distributed::{self, ShardSlot};
use crate::engine::{ClientOutcome, ExecutionEngine};
use crate::faults::{FaultPlan, FaultyEndpoint};
use crate::message::ModelDownload;
use crate::scheduler::{NoProtection, ProtectionScheduler};
use crate::selection::{screen_planned, ScreenPlan, ScreeningOutcome};
use crate::server::FlServer;
use crate::trainer::{LocalTrainer, PlainSgdTrainer};
use crate::transport::inprocess::LocalEndpoint;
use crate::transport::mux::{MuxFleet, DEFAULT_JOIN_GRACE};
use crate::transport::{tcp, ClientSession, RemoteClient, ServerEndpoint};
use crate::{FlError, Result};

/// Builds the prototype model whose replicas every client trains.
pub type ModelFactory = Box<dyn Fn() -> Sequential + Send + Sync>;

/// Builds a local trainer for a client id.
pub type TrainerFactory = Box<dyn Fn(u64) -> Box<dyn LocalTrainer> + Send + Sync>;

fn json_usize_list(xs: &[usize]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Per-round outcome.
///
/// Under a fault plan, one round's selected cohort partitions into four
/// disjoint groups: `participants` (committed into the aggregate),
/// `surplus` (over-provisioned spares that completed but were not
/// needed), `stragglers` (overran the round deadline on the simulated
/// clock) and `failures` (unreachable, dropped, garbled or crashed
/// exchanges). The `ledger` accounts *every* selected client — zero-cost
/// entries for failures. Without faults the last three groups are empty
/// and `participants` is the whole selection, exactly as before.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u64,
    /// Indices of the clients whose updates were committed.
    pub participants: Vec<usize>,
    /// Over-provisioned clients that completed but were not needed (the
    /// first `clients_per_round` survivors in canonical order win).
    pub surplus: Vec<usize>,
    /// Clients whose simulated elapsed time overran the round deadline.
    pub stragglers: Vec<usize>,
    /// Clients whose exchange failed this round.
    pub failures: Vec<usize>,
    /// Mean training loss across committed participants.
    pub mean_loss: f32,
    /// The protected layers used this round.
    pub protected_layers: Vec<usize>,
    /// Per-client TEE accounting merged over the round (id-sorted, so
    /// identical whichever worker finished first) — one entry per
    /// selected client, success or not.
    pub ledger: RoundLedger,
}

impl RoundReport {
    /// Renders the report as a JSON object (hand-rolled: the vendored
    /// serde is a derive marker only), so repro binaries can export
    /// per-round results.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"round":{},"participants":{},"surplus":{},"stragglers":{},"failures":{},"mean_loss":{},"protected_layers":{},"ledger":{}}}"#,
            self.round,
            json_usize_list(&self.participants),
            json_usize_list(&self.surplus),
            json_usize_list(&self.stragglers),
            json_usize_list(&self.failures),
            gradsec_tee::cost::json_number(f64::from(self.mean_loss)),
            json_usize_list(&self.protected_layers),
            self.ledger.to_json(),
        )
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Rounds completed.
    pub rounds_completed: u64,
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
}

impl FederationReport {
    /// Renders the whole run as a JSON object.
    pub fn to_json(&self) -> String {
        let rounds: Vec<String> = self.rounds.iter().map(RoundReport::to_json).collect();
        format!(
            r#"{{"rounds_completed":{},"rounds":[{}]}}"#,
            self.rounds_completed,
            rounds.join(",")
        )
    }
}

/// Builder for a [`Federation`].
pub struct FederationBuilder {
    plan: TrainingPlan,
    model_factory: Option<ModelFactory>,
    trainer_factory: TrainerFactory,
    dataset: Option<Arc<dyn Dataset>>,
    devices: Vec<DeviceProfile>,
    scheduler: Arc<dyn ProtectionScheduler>,
    engine: ExecutionEngine,
    measurement: Measurement,
    transport: TransportKind,
    mux: MuxOptions,
    shards: usize,
    faults: Option<Arc<FaultPlan>>,
    backend: BackendKind,
    codec: CodecKind,
    screening_sample: Option<usize>,
    adversaries: Option<Arc<AdversaryPlan>>,
    aggregator: Aggregator,
    partition: PartitionKind,
    reputation: Option<ReputationBook>,
}

impl FederationBuilder {
    fn new(plan: TrainingPlan) -> Self {
        FederationBuilder {
            plan,
            model_factory: None,
            trainer_factory: Box::new(|_| Box::new(PlainSgdTrainer)),
            dataset: None,
            devices: Vec::new(),
            scheduler: Arc::new(NoProtection),
            engine: ExecutionEngine::sequential(),
            measurement: Measurement(sha256(b"gradsec-ta-code-v1")),
            transport: TransportKind::InProcess,
            mux: MuxOptions::default(),
            shards: 1,
            faults: None,
            backend: BackendKind::from_env(),
            codec: CodecKind::from_env(),
            screening_sample: None,
            adversaries: None,
            aggregator: Aggregator::FedAvg,
            partition: PartitionKind::Iid,
            reputation: None,
        }
    }

    /// Sets the model architecture factory.
    pub fn model<F>(mut self, f: F) -> Self
    where
        F: Fn() -> Sequential + Send + Sync + 'static,
    {
        self.model_factory = Some(Box::new(f));
        self
    }

    /// Adds `n` TrustZone-capable clients sharing `dataset` (sharded
    /// evenly).
    pub fn clients(mut self, n: usize, dataset: Arc<dyn Dataset>) -> Self {
        self.dataset = Some(dataset);
        self.devices = (0..n as u64).map(DeviceProfile::trustzone).collect();
        self
    }

    /// Uses an explicit device mix instead of all-TrustZone (for the
    /// hybrid-deployment scenarios of the paper's future work).
    pub fn devices(mut self, devices: Vec<DeviceProfile>, dataset: Arc<dyn Dataset>) -> Self {
        self.dataset = Some(dataset);
        self.devices = devices;
        self
    }

    /// Sets the per-client trainer factory (GradSec's secure trainer hooks
    /// in here).
    pub fn trainer<F>(mut self, f: F) -> Self
    where
        F: Fn(u64) -> Box<dyn LocalTrainer> + Send + Sync + 'static,
    {
        self.trainer_factory = Box::new(f);
        self
    }

    /// Sets the protection scheduler driving every round's sheltered
    /// layer set. Policies from `gradsec-core` implement
    /// [`ProtectionScheduler`] directly; plain `Fn(u64) -> Vec<usize>`
    /// closures work too.
    pub fn scheduler<S>(mut self, s: S) -> Self
    where
        S: ProtectionScheduler + 'static,
    {
        self.scheduler = Arc::new(s);
        self
    }

    /// Sets the round-execution engine (worker pool size); defaults to
    /// sequential execution.
    pub fn engine(mut self, engine: ExecutionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the whitelisted TA measurement.
    pub fn measurement(mut self, m: Measurement) -> Self {
        self.measurement = m;
        self
    }

    /// Selects the transport the fleet is wired onto (in-process by
    /// default; [`TransportKind::Tcp`] runs every client behind a
    /// loopback socket with its own service thread;
    /// [`TransportKind::TcpMux`] multiplexes every client session onto a
    /// small event-loop pool — see [`mux`](Self::mux) for its knobs).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Tunes the [`TransportKind::TcpMux`] transport: event-loop count
    /// (0 = one per core), read-chunk size and the per-session
    /// write-queue bound. Ignored by the other transports.
    pub fn mux(mut self, options: MuxOptions) -> Self {
        self.mux = options;
        self
    }

    /// Installs a deterministic fault plan: every client endpoint is
    /// wrapped in a [`FaultyEndpoint`] injecting the plan's transport
    /// faults, selection over-provisions by the plan's spare count, and
    /// rounds become fault-*tolerant* — failed and straggling clients are
    /// recorded in the round report (and billed to its ledger) instead of
    /// failing the round, as long as at least one update commits. Under
    /// the same plan seed a faulted run is bit-identical for any
    /// `(shards, workers, transport)` combination.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Selects the tensor kernel backend for the whole federation run:
    /// the prototype model is pointed at it before replication, so every
    /// client replica — and every per-worker copy the engine makes from
    /// those — trains through the same kernels on every shard and
    /// transport. Defaults to the `GRADSEC_BACKEND` environment variable
    /// (`reference`/`blocked`/`tiled`), falling back to
    /// [`BackendKind::Reference`], the bit-identical-to-seed kernels.
    /// Runs are bit-identical *within* a backend for any
    /// `(shards, workers, transport)` combination; switching backends
    /// changes f32 rounding, not semantics.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the update codec every session negotiates at handshake:
    /// how model downloads and update uploads are packed on the wire.
    /// [`CodecKind::Identity`] (the default) is bit-identical to the
    /// uncompressed payloads; [`CodecKind::Int8`] and
    /// [`CodecKind::DeltaTopK`] trade a pinned, deterministic amount of
    /// precision for 3×+ smaller rounds. Defaults to the `GRADSEC_CODEC`
    /// environment variable (`identity`/`int8`/`delta-topk`). The codec
    /// is part of the run's reproducibility key: runs with the same
    /// codec are bit-identical across shards, workers, transports and
    /// process boundaries.
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Partitions the fleet into `shards` contiguous engine shards
    /// (clamped to the client count; defaults to 1), each running its
    /// picks on its own engine pool — sharding changes wall-clock
    /// scaling, never results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Caps per-round screening at `m` uniformly-sampled candidates
    /// instead of the whole fleet (see
    /// [`FlServer::set_screening_sample`]), so per-round selection cost
    /// stops being O(fleet). The default — no cap — screens everyone
    /// with an RNG stream bit-identical to pre-cap builds. Runs with the
    /// same cap are bit-identical across shards, workers, transports and
    /// process boundaries; changing the cap changes which clients are
    /// screened, so it is part of the run's reproducibility key.
    pub fn screening_sample(mut self, m: usize) -> Self {
        self.screening_sample = Some(m);
        self
    }

    /// Installs a deterministic adversarial scenario: each client's
    /// persona is a pure function of `(scenario seed, client id)` (see
    /// [`AdversaryPlan::persona_of`]), applied entirely client-side at
    /// cycle time — screening, selection and the transport exchange
    /// stay untouched, so a hostile run is bit-identical for any
    /// `(shards, workers, transport)` combination under the same
    /// scenario seed, and a quiet plan changes nothing at all.
    pub fn adversaries(mut self, plan: AdversaryPlan) -> Self {
        self.adversaries = Some(Arc::new(plan));
        self
    }

    /// Selects the aggregation rule rounds commit with (see
    /// [`Aggregator`]); defaults to plain FedAvg. Coordinator-side
    /// state: it never crosses the wire, so flat, sharded and
    /// distributed runs of the same rule are bit-identical.
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Selects how the dataset is partitioned across clients (see
    /// [`PartitionKind`]); defaults to IID. Part of the run's
    /// reproducibility key.
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.partition = partition;
        self
    }

    /// Enables reputation-filtered selection: round outcomes accumulate
    /// per-client scores (+1 completed, −1 straggled/failed) and
    /// clients below `threshold` are excluded from future eligibility
    /// (see [`ReputationBook`]). The filter is a deterministic retain
    /// before the selection shuffle — it consumes no server RNG.
    pub fn reputation(mut self, threshold: i64) -> Self {
        self.reputation = Some(ReputationBook::new(threshold));
        self
    }

    /// Assembles the federation: builds the fleet, wires it onto the
    /// configured transport, handshakes every endpoint and lays the
    /// configured shards over it.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] when the model factory or dataset is
    /// missing or the plan is invalid; transport/handshake failures
    /// propagate as [`FlError::Transport`]/[`FlError::Protocol`].
    pub fn build(self) -> Result<Federation> {
        let model_factory = self.model_factory.ok_or_else(|| FlError::BadConfig {
            reason: "model factory not set".to_owned(),
        })?;
        let dataset = self.dataset.ok_or_else(|| FlError::BadConfig {
            reason: "dataset not set".to_owned(),
        })?;
        if self.devices.is_empty() {
            return Err(FlError::BadConfig {
                reason: "no clients configured".to_owned(),
            });
        }
        self.plan.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(plan) = &self.adversaries {
            plan.validate()?;
        }
        self.aggregator.validate()?;
        let data_shards = partition_dataset(
            dataset.as_ref(),
            self.devices.len(),
            self.partition,
            self.plan.seed,
        );
        // One factory invocation builds the prototype; every client gets a
        // replica (identical weights, fresh caches) — the same mechanism
        // the engine's per-worker replicas rely on. The run's kernel
        // backend is set once here and rides along in every replica.
        let mut prototype = model_factory();
        prototype.set_backend(self.backend);
        let collusion = self
            .adversaries
            .as_ref()
            .map(|_| Arc::new(CollusionLog::default()));
        let fleet: Vec<FlClient> = self
            .devices
            .into_iter()
            .zip(data_shards)
            .enumerate()
            .map(|(i, (device, shard))| {
                let mut client = FlClient::new(
                    i as u64,
                    device,
                    dataset.clone(),
                    shard,
                    prototype.replicate(),
                    (self.trainer_factory)(i as u64),
                );
                if let Some(plan) = &self.adversaries {
                    if let Some(persona) = plan.persona_of(i as u64) {
                        client.set_adversary(Adversary {
                            persona,
                            plan: plan.clone(),
                            log: collusion.clone(),
                        });
                    }
                }
                client
            })
            .collect();
        let mut server = FlServer::new(self.plan, prototype.weights(), self.measurement)?;
        if let Some(plan) = &self.faults {
            server.overprovision(plan.spare_count());
        }
        server.set_screening_sample(self.screening_sample);
        server.set_reputation(self.reputation);
        let (clients, sessions) = wire_fleet(
            fleet,
            self.transport,
            &self.mux,
            self.faults.as_ref(),
            self.codec,
        )?;
        Ok(Federation {
            server,
            layout: ShardLayout::new(clients.len(), self.shards),
            fleet: Fleet::InProcess { clients, sessions },
            scheduler: self.scheduler,
            engine: self.engine,
            faults: self.faults,
            aggregator: self.aggregator,
            collusion,
        })
    }
}

/// Derives the per-client data partition for `kind` — the one function
/// both the in-process assemblers and the distributed shard servers call,
/// so every execution path hands client `i` the identical local shard.
pub(crate) fn partition_dataset(
    dataset: &dyn Dataset,
    clients: usize,
    kind: PartitionKind,
    seed: u64,
) -> Vec<Vec<usize>> {
    match kind {
        PartitionKind::Iid => split::shard(dataset.len(), clients, seed),
        PartitionKind::ByLabel => {
            let labels: Vec<usize> = (0..dataset.len())
                .map(|i| dataset.sample(i).label)
                .collect();
            split::shard_by_label(&labels, clients, seed)
        }
    }
}

/// The client-side machinery a socket-backed transport left running
/// behind the handshaken endpoints — whatever teardown must reap.
pub(crate) enum SessionBackend {
    /// Thread-per-client service threads ([`TransportKind::Tcp`]); each
    /// returns its `FlClient` when the session ends. The in-process
    /// transport leaves this empty.
    Threads(Vec<JoinHandle<Result<FlClient>>>),
    /// The event-loop pool serving a multiplexed fleet
    /// ([`TransportKind::TcpMux`]).
    Mux(MuxFleet),
}

impl SessionBackend {
    /// Surfaces a client session that ended before the fleet finished
    /// connecting (a clean early exit is not an error).
    fn early_failure(&mut self) -> Result<()> {
        match self {
            SessionBackend::Threads(handles) => {
                let Some(dead) = handles.iter().position(JoinHandle::is_finished) else {
                    return Ok(());
                };
                match handles.remove(dead).join() {
                    Ok(outcome) => outcome.map(drop),
                    Err(_) => Err(FlError::Protocol {
                        reason: "client session thread panicked".to_owned(),
                    }),
                }
            }
            SessionBackend::Mux(fleet) => fleet.take_early_error().map_or(Ok(()), Err),
        }
    }
}

/// Wires a built fleet onto `transport`, returning the handshaken
/// endpoints (id-ordered) plus the client-side session backend to reap
/// at teardown. With a fault plan, every endpoint — whatever the
/// backend — is wrapped in a [`FaultyEndpoint`] before the handshake, so
/// transport faults inject identically over in-process pipes, threaded
/// sockets and multiplexed sockets (the fault layer lives server-side,
/// above the pipe).
pub(crate) fn wire_fleet(
    fleet: Vec<FlClient>,
    transport: TransportKind,
    mux: &MuxOptions,
    faults: Option<&Arc<FaultPlan>>,
    codec: CodecKind,
) -> Result<(Vec<RemoteClient>, SessionBackend)> {
    let wrap = move |endpoint: Box<dyn ServerEndpoint>| -> Box<dyn ServerEndpoint> {
        match faults {
            Some(plan) => Box::new(FaultyEndpoint::new(endpoint, plan.clone())),
            None => endpoint,
        }
    };
    match transport {
        TransportKind::InProcess => {
            let remotes = fleet
                .into_iter()
                .map(|c| RemoteClient::connect_with(wrap(Box::new(LocalEndpoint::new(c))), codec))
                .collect::<Result<Vec<_>>>()?;
            Ok((remotes, SessionBackend::Threads(Vec::new())))
        }
        TransportKind::Tcp | TransportKind::TcpMux => {
            let listener = tcp::bind(("127.0.0.1", 0))?;
            let addr = listener.local_addr()?;
            let n = fleet.len();
            // Every session connects at once — a thread per client, or each
            // event loop's whole share before it starts polling; outgrow
            // the std 128-slot backlog before the SYN storm so no connect
            // lands in kernel retry backoff.
            listener.deepen_backlog(n as u32 + 128);
            let mut sessions = if transport == TransportKind::Tcp {
                SessionBackend::Threads(
                    fleet
                        .into_iter()
                        .map(|client| {
                            std::thread::spawn(move || {
                                let endpoint = tcp::connect(addr)?;
                                ClientSession::new(client, endpoint).serve()
                            })
                        })
                        .collect(),
                )
            } else {
                SessionBackend::Mux(MuxFleet::launch(addr, fleet, mux)?)
            };
            // Accept ALL n connections before handshaking any of them. The
            // mux event loops connect their whole share before they start
            // polling, so a handshake attempted early would block on a
            // session nobody is serving yet — while the un-accepted
            // remainder overflows the listener backlog and stalls the
            // loops' own connects: a deadlock. Poll rather than block in
            // accept, so a session that died before connecting fails the
            // build instead of leaving it waiting forever.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            let mut endpoints = Vec::with_capacity(n);
            while endpoints.len() < n {
                match listener.try_accept()? {
                    Some(endpoint) => endpoints.push(endpoint),
                    None => {
                        sessions.early_failure()?;
                        if std::time::Instant::now() > deadline {
                            return Err(FlError::disconnected(
                                "waiting for client connections during federation build",
                            ));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            }
            let mut remotes = endpoints
                .into_iter()
                .map(|endpoint| RemoteClient::connect_with(wrap(Box::new(endpoint)), codec))
                .collect::<Result<Vec<_>>>()?;
            // Connections are accepted in arrival order; the handshake
            // told us who is who, so restore fleet order by id.
            remotes.sort_by_key(RemoteClient::id);
            Ok((remotes, sessions))
        }
    }
}

/// Where a federation's clients live.
pub(crate) enum Fleet {
    /// Every client in this process, id-ordered behind its transport
    /// endpoint, plus whatever session machinery teardown must reap.
    InProcess {
        clients: Vec<RemoteClient>,
        sessions: SessionBackend,
    },
    /// One shard-server child process per layout shard.
    Processes(Vec<ShardSlot>),
}

impl Fleet {
    /// Screens the plan's candidates, returning verdicts index-aligned
    /// with them.
    fn screen(
        &mut self,
        layout: &ShardLayout,
        plan: &ScreenPlan,
        expected: Measurement,
    ) -> Vec<ScreeningOutcome> {
        match self {
            Fleet::InProcess { clients, .. } => screen_planned(clients, plan, expected),
            Fleet::Processes(shards) => distributed::screen(shards, layout, plan, expected),
        }
    }

    /// Runs the picked clients' cycles shard by shard, returning the
    /// outcomes in `picked` order, the merged ledger, and whether a whole
    /// shard cohort was lost (which makes the round fault-tolerant).
    fn execute(
        &mut self,
        layout: &ShardLayout,
        engine: &ExecutionEngine,
        picked: &[usize],
        download: &ModelDownload,
        faults: Option<&FaultPlan>,
    ) -> Result<(Vec<ClientOutcome>, RoundLedger, bool)> {
        let clients = match self {
            Fleet::InProcess { clients, .. } => clients,
            Fleet::Processes(shards) => {
                return Ok(distributed::execute(shards, layout, picked, download))
            }
        };
        let mut rest = clients.as_mut_slice();
        let mut jobs = Vec::with_capacity(layout.num_shards());
        for (s, picks) in layout.split_picks(picked).into_iter().enumerate() {
            let (shard, tail) = std::mem::take(&mut rest).split_at_mut(layout.range(s).len());
            jobs.push((shard, picks));
            rest = tail;
        }
        // Outcomes concatenate in shard order, which — the layout being
        // contiguous — restores the canonical global selection order;
        // ledgers fold id-sorted.
        let mut per_shard = engine
            .execute_shards_with(jobs, download, faults)?
            .into_iter();
        let (mut outcomes, mut ledger) = per_shard.next().unwrap_or_default();
        for (shard_outcomes, shard_ledger) in per_shard {
            outcomes.extend(shard_outcomes);
            ledger.merge(&shard_ledger);
        }
        Ok((outcomes, ledger, false))
    }

    /// Says goodbye to every client (or shard process) and reaps the
    /// machinery behind them. Idempotent.
    fn teardown(&mut self) -> Result<()> {
        match self {
            Fleet::InProcess { clients, sessions } => {
                teardown_fleet(std::mem::take(clients), sessions)
            }
            Fleet::Processes(shards) => distributed::teardown(shards),
        }
    }
}

/// A complete federation: one server plus its client fleet, reachable
/// only through transport endpoints or shard-server processes.
///
/// Built by [`FederationBuilder::build`] (fleet in this process) or
/// [`DistributedBuilder::launch`](crate::distributed::DistributedBuilder::launch)
/// (fleet in shard-server processes); both run the same round loop.
pub struct Federation {
    pub(crate) server: FlServer,
    pub(crate) layout: ShardLayout,
    pub(crate) fleet: Fleet,
    pub(crate) scheduler: Arc<dyn ProtectionScheduler>,
    pub(crate) engine: ExecutionEngine,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) aggregator: Aggregator,
    pub(crate) collusion: Option<Arc<CollusionLog>>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("shards", &self.layout.num_shards())
            .field("clients", &self.layout.num_clients())
            .field("processes", &matches!(self.fleet, Fleet::Processes(_)))
            .field("round", &self.server.round())
            .finish()
    }
}

impl Federation {
    /// Starts a builder.
    pub fn builder(plan: TrainingPlan) -> FederationBuilder {
        FederationBuilder::new(plan)
    }

    /// The server.
    pub fn server(&self) -> &FlServer {
        &self.server
    }

    /// The in-process clients' endpoint handles (empty when the fleet
    /// lives in shard-server processes).
    pub fn clients(&self) -> &[RemoteClient] {
        match &self.fleet {
            Fleet::InProcess { clients, .. } => clients,
            Fleet::Processes(_) => &[],
        }
    }

    /// Mutable endpoint access (tests drive exchanges through this).
    pub fn clients_mut(&mut self) -> &mut [RemoteClient] {
        match &mut self.fleet {
            Fleet::InProcess { clients, .. } => clients,
            Fleet::Processes(_) => &mut [],
        }
    }

    /// The shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.layout.num_shards()
    }

    /// Total clients across all shards.
    pub fn num_clients(&self) -> usize {
        self.layout.num_clients()
    }

    /// The configured protection scheduler.
    pub fn scheduler(&self) -> &Arc<dyn ProtectionScheduler> {
        &self.scheduler
    }

    /// The configured execution engine (each shard runs its own pool of
    /// this size).
    pub fn engine(&self) -> ExecutionEngine {
        self.engine
    }

    /// The colluding coalition's observation log, present when an
    /// adversarial scenario is installed on an in-process fleet (empty
    /// until a colluder participates in a round).
    pub fn collusion_log(&self) -> Option<&Arc<CollusionLog>> {
        self.collusion.as_ref()
    }

    /// Whether shard `s` can still serve rounds: always for an in-process
    /// shard, while its process stays connected for a shard-server one.
    pub fn shard_alive(&self, s: usize) -> bool {
        match &self.fleet {
            Fleet::InProcess { .. } => s < self.layout.num_shards(),
            Fleet::Processes(shards) => shards.get(s).is_some_and(ShardSlot::alive),
        }
    }

    /// Total envelope bytes `(sent, received)` across every shard-server
    /// channel, dead ones included; `(0, 0)` for an in-process fleet.
    pub fn bytes_on_wire(&self) -> (u64, u64) {
        match &self.fleet {
            Fleet::InProcess { .. } => (0, 0),
            Fleet::Processes(shards) => distributed::bytes_on_wire(shards),
        }
    }

    /// Kills shard `s`'s process outright (SIGKILL): the next round bills
    /// and excludes the shard's cohort rather than failing the federation.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for an in-process fleet or an
    /// unknown shard, and [`FlError::Transport`] when the kill fails.
    pub fn kill_shard(&mut self, s: usize) -> Result<()> {
        match &mut self.fleet {
            Fleet::InProcess { .. } => Err(FlError::BadConfig {
                reason: format!("cannot kill shard {s}: the fleet runs in-process"),
            }),
            Fleet::Processes(shards) => shards
                .get_mut(s)
                .ok_or(FlError::BadConfig {
                    reason: format!("no shard {s}"),
                })?
                .kill(s),
        }
    }

    /// Runs one FL cycle — screen → sample → download → execute (every
    /// shard concurrently) → aggregate — and merges the TEE accounting
    /// carried on the uploads into the round ledger.
    ///
    /// # Errors
    ///
    /// Propagates selection, training and aggregation failures. Without a
    /// fault plan, when several clients fail in one round the error of the
    /// earliest client in selection order is returned; with one, failures
    /// and stragglers are tolerated and recorded on the report as long as
    /// at least one update commits. A lost shard process is tolerated the
    /// same way, fault plan or not.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        let round = self.server.round();
        let plan = self.server.screen_plan(self.layout.num_clients());
        let verdicts = self
            .fleet
            .screen(&self.layout, &plan, self.server.expected_measurement());
        let picked = self.server.sample_screened(&plan, &verdicts)?;
        // Clamp the scheduler's draw to the global model's depth — a
        // policy configured for a deeper network shelters what exists
        // rather than failing the round.
        let n_layers = self.server.global().num_layers();
        let mut protected = self.scheduler.layers_for_round(round);
        protected.retain(|&l| l < n_layers);
        let download = self.server.download(protected.clone());
        let (outcomes, ledger, cohort_failed) = self.fleet.execute(
            &self.layout,
            &self.engine,
            &picked,
            &download,
            self.faults.as_deref(),
        )?;
        let tolerate = self.faults.is_some() || cohort_failed;
        self.finish_round(round, picked, outcomes, ledger, protected, tolerate)
    }

    /// Runs the full plan.
    ///
    /// # Errors
    ///
    /// Propagates round failures.
    pub fn run(&mut self) -> Result<FederationReport> {
        let mut report = FederationReport::default();
        for _ in 0..self.server.plan().rounds {
            let r = self.run_round()?;
            report.rounds.push(r);
            report.rounds_completed += 1;
        }
        Ok(report)
    }

    /// Tears the fleet down: says goodbye over every endpoint (or shard
    /// channel) and joins the client service threads (or waits for the
    /// shard processes). Called automatically on drop (best effort); call
    /// explicitly to observe teardown errors.
    ///
    /// # Errors
    ///
    /// Returns the first goodbye/join failure encountered (deliberately
    /// killed shards excepted).
    pub fn shutdown(mut self) -> Result<()> {
        self.fleet.teardown()
    }

    /// Commits one executed round: walks the outcomes in canonical
    /// (selection) order, aggregates the first `clients_per_round`
    /// completed updates, classifies the rest into surplus/straggler/
    /// failure groups and installs the new global model.
    ///
    /// Without fault tolerance any failed outcome fails the round with the
    /// earliest failure in selection order — the strict contract healthy
    /// fleets always had. With tolerance, failures and stragglers are
    /// merely recorded, and the round only errors when *no* update
    /// committed.
    fn finish_round(
        &mut self,
        round: u64,
        picked: Vec<usize>,
        outcomes: Vec<ClientOutcome>,
        ledger: RoundLedger,
        protected: Vec<usize>,
        tolerate: bool,
    ) -> Result<RoundReport> {
        let k = self.server.plan().clients_per_round;
        let mut agg = PartialAggregate::new();
        let mut participants = Vec::new();
        let mut surplus = Vec::new();
        let mut stragglers = Vec::new();
        let mut failures = Vec::new();
        let mut first_err: Option<FlError> = None;
        for (slot, (outcome, &ci)) in outcomes.into_iter().zip(picked.iter()).enumerate() {
            match outcome {
                ClientOutcome::Completed(upload) => {
                    if participants.len() < k {
                        agg.push(slot, upload);
                        participants.push(ci);
                    } else {
                        surplus.push(ci);
                    }
                }
                ClientOutcome::Straggler { .. } => stragglers.push(ci),
                ClientOutcome::Failed { error, .. } => {
                    failures.push(ci);
                    first_err.get_or_insert(error);
                }
            }
        }
        if !tolerate {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        if participants.is_empty() {
            // Prefer the earliest concrete failure; a collapse with no
            // failure at all means every survivor straggled — name that
            // rather than misdiagnosing it as a selection problem.
            return Err(first_err.unwrap_or(FlError::RoundCollapsed {
                round,
                stragglers: stragglers.len(),
                failures: failures.len(),
            }));
        }
        // Robust variants need the previous global as a reference point
        // (norm clipping measures drift against it).
        let outcome = agg.finish_with(self.aggregator, Some(self.server.global()))?;
        // Reputation accrues from outcome history: committed updates earn
        // credit, shed ones (stragglers and failures alike) earn debit. A
        // no-op unless a `ReputationBook` is installed on the server.
        let completed: Vec<usize> = participants.iter().chain(surplus.iter()).copied().collect();
        let shed: Vec<usize> = stragglers.iter().chain(failures.iter()).copied().collect();
        self.server.note_round_outcomes(&completed, &shed);
        self.server.commit(outcome.weights);
        Ok(RoundReport {
            round,
            participants,
            surplus,
            stragglers,
            failures,
            mean_loss: outcome.mean_loss,
            protected_layers: protected,
            ledger,
        })
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        let _ = self.fleet.teardown();
    }
}

/// Says goodbye over every endpoint, *drops* every endpoint, then reaps
/// the client-side session backend, returning the first failure
/// encountered.
///
/// The order matters: dropping the server-side endpoints closes their
/// sockets/channels before the joins below, so a session whose goodbye
/// was lost (dead peer, injected fault, broken pipe) observes a
/// disconnect — the threaded path wakes from its blocking `recv`, the
/// mux path sees EOF on its next readiness event — and exits instead of
/// hanging the join forever. The mux join is additionally bounded by
/// [`DEFAULT_JOIN_GRACE`] plus the loops' shutdown flag, the same
/// watchdog discipline in a form one thread can apply to thousands of
/// sessions.
fn teardown_fleet(clients: Vec<RemoteClient>, sessions: &mut SessionBackend) -> Result<()> {
    let mut first_err = None;
    for mut client in clients {
        if let Err(e) = client.goodbye() {
            first_err.get_or_insert(e);
        }
        // `client` drops here, hanging up its transport.
    }
    match sessions {
        SessionBackend::Threads(handles) => {
            for session in handles.drain(..) {
                match session.join() {
                    Ok(Ok(_client)) => {}
                    Ok(Err(e)) => {
                        first_err.get_or_insert(e);
                    }
                    Err(_) => {
                        first_err.get_or_insert(FlError::Protocol {
                            reason: "client session thread panicked".to_owned(),
                        });
                    }
                }
            }
        }
        SessionBackend::Mux(fleet) => {
            if let Err(e) = fleet.join(DEFAULT_JOIN_GRACE) {
                first_err.get_or_insert(e);
            }
        }
    }
    first_err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradsec_data::SyntheticCifar100;
    use gradsec_nn::zoo;

    fn plan() -> TrainingPlan {
        TrainingPlan {
            rounds: 3,
            clients_per_round: 2,
            batches_per_cycle: 2,
            batch_size: 4,
            learning_rate: 0.05,
            seed: 1,
        }
    }

    fn dataset() -> Arc<SyntheticCifar100> {
        Arc::new(SyntheticCifar100::with_classes(64, 2, 2))
    }

    #[test]
    fn sequential_run_completes_all_rounds() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(3, dataset())
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        assert_eq!(fed.server().history().len(), 4); // initial + 3
        fed.shutdown().unwrap();
    }

    #[test]
    fn parallel_run_matches_round_count() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .engine(ExecutionEngine::new(4))
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        for r in &report.rounds {
            assert_eq!(r.participants.len(), 2);
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        let build = |engine: ExecutionEngine| {
            Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(4, dataset())
                .engine(engine)
                .build()
                .unwrap()
        };
        let mut seq = build(ExecutionEngine::sequential());
        let seq_report = seq.run().unwrap();
        for workers in [2usize, 4] {
            let mut par = build(ExecutionEngine::new(workers));
            let par_report = par.run().unwrap();
            assert_eq!(seq_report, par_report, "{workers}-worker report diverged");
            assert_eq!(
                seq.server().global(),
                par.server().global(),
                "{workers}-worker weights diverged"
            );
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_flat() {
        let mut flat = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(5, dataset())
            .build()
            .unwrap();
        let flat_report = flat.run().unwrap();
        for shards in [1usize, 2, 5, 9] {
            let mut sharded = Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(5, dataset())
                .shards(shards)
                .engine(ExecutionEngine::new(2))
                .build()
                .unwrap();
            assert_eq!(sharded.num_shards(), shards.min(5));
            assert_eq!(sharded.num_clients(), 5);
            let report = sharded.run().unwrap();
            assert_eq!(report, flat_report, "{shards}-shard report diverged");
            assert_eq!(
                sharded.server().global(),
                flat.server().global(),
                "{shards}-shard weights diverged"
            );
            sharded.shutdown().unwrap();
        }
    }

    #[test]
    fn shard_process_controls_are_inert_on_an_in_process_fleet() {
        let build = || {
            Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(4, dataset())
                .shards(2)
                .build()
                .unwrap()
        };
        let mut untouched = build();
        let mut poked = build();
        let err = poked.kill_shard(0).unwrap_err();
        assert!(matches!(err, FlError::BadConfig { .. }), "{err}");
        assert!(poked.shard_alive(0));
        assert_eq!(poked.bytes_on_wire(), (0, 0));
        // The refused kill left the fleet exactly as it was.
        assert_eq!(poked.run_round().unwrap(), untouched.run_round().unwrap());
        assert_eq!(poked.server().global(), untouched.server().global());
    }

    #[test]
    fn an_all_straggler_round_reports_collapse_not_selection_failure() {
        use crate::faults::{FaultPlan, LatencyModel};
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(3, dataset())
            .faults(
                FaultPlan::seeded(1)
                    .latency(LatencyModel::Fixed(10.0))
                    .deadline_s(1.0),
            )
            .build()
            .unwrap();
        let err = fed.run_round().unwrap_err();
        match err {
            FlError::RoundCollapsed {
                round: 0,
                stragglers,
                failures: 0,
            } => assert!(stragglers > 0),
            other => panic!("expected RoundCollapsed, got {other:?}"),
        }
    }

    #[test]
    fn backend_selection_reaches_every_replica() {
        let run = |backend: Option<BackendKind>| {
            let mut b = Federation::builder(plan())
                .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
                .clients(3, dataset());
            if let Some(kind) = backend {
                b = b.backend(kind);
            }
            let mut fed = b.build().unwrap();
            let report = fed.run().unwrap();
            let weights = fed.server().global().clone();
            fed.shutdown().unwrap();
            (report, weights)
        };
        // The builder default is whatever GRADSEC_BACKEND selects
        // (Reference when unset) — bit-identical to passing that kind
        // explicitly, so the comparison holds even when the suite runs
        // under a GRADSEC_BACKEND override.
        let (r_default, w_default) = run(None);
        let (r_env, w_env) = run(Some(BackendKind::from_env()));
        assert_eq!(r_default, r_env);
        assert_eq!(w_default, w_env);
        let (r_ref, w_ref) = run(Some(BackendKind::Reference));
        // The blocked backend completes the same plan and lands within
        // kernel-rounding distance of the reference run.
        let (r_blk, w_blk) = run(Some(BackendKind::Blocked));
        assert_eq!(r_blk.rounds_completed, r_ref.rounds_completed);
        for (a, b) in w_ref.iter().zip(w_blk.iter()) {
            assert!(a.w.approx_eq(&b.w, 1e-2));
            assert!(a.b.approx_eq(&b.b, 1e-2));
        }
    }

    #[test]
    fn out_of_range_scheduled_layers_are_clamped() {
        // A scheduler configured for a deeper model shelters what
        // exists instead of failing the round.
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .scheduler(|_: u64| vec![1, 6])
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        assert_eq!(r.protected_layers, vec![1]);
    }

    #[test]
    fn scheduler_reaches_downloads() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .scheduler(|round: u64| vec![round as usize % 2])
            .build()
            .unwrap();
        let r0 = fed.run_round().unwrap();
        assert_eq!(r0.protected_layers, vec![0]);
        let r1 = fed.run_round().unwrap();
        assert_eq!(r1.protected_layers, vec![1]);
    }

    #[test]
    fn mixed_fleet_excludes_non_tee() {
        let ds = dataset();
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .devices(
                vec![
                    DeviceProfile::trustzone(0),
                    DeviceProfile::legacy(1),
                    DeviceProfile::compromised(2),
                    DeviceProfile::trustzone(3),
                ],
                ds,
            )
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        assert!(r.participants.iter().all(|&i| i == 0 || i == 3));
    }

    #[test]
    fn builder_validates() {
        assert!(Federation::builder(plan()).build().is_err());
        let no_clients = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(4, 4, 2, 1).unwrap())
            .build();
        assert!(no_clients.is_err());
    }

    #[test]
    fn round_report_exports_json() {
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(2, dataset())
            .build()
            .unwrap();
        let r = fed.run_round().unwrap();
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(r#""round":0"#));
        assert!(json.contains(r#""participants":[0,1]"#));
        assert!(json.contains(r#""ledger":{"#));
        let report = FederationReport {
            rounds_completed: 1,
            rounds: vec![r],
        };
        assert!(report.to_json().contains(r#""rounds_completed":1"#));
    }

    #[test]
    fn clean_fleet_consumes_no_server_rng() {
        // Installing the adversary layer with a quiet plan (all
        // fractions zero) must leave every report and weight
        // bit-identical to a run that never heard of adversaries:
        // persona assignment draws from its own salted streams, never
        // the server's selection/screening RNG.
        let mut plain = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .build()
            .unwrap();
        let plain_report = plain.run().unwrap();
        let mut quiet = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(11))
            .build()
            .unwrap();
        let quiet_report = quiet.run().unwrap();
        assert_eq!(plain_report, quiet_report);
        assert_eq!(plain.server().global(), quiet.server().global());
        // A hostile fleet with reputation off still picks the same
        // participants every round: personas alter uploads, never the
        // server's sampling stream.
        let mut hostile = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(11).poisoners(0.5))
            .build()
            .unwrap();
        let hostile_report = hostile.run().unwrap();
        for (clean, dirty) in plain_report.rounds.iter().zip(hostile_report.rounds.iter()) {
            assert_eq!(clean.participants, dirty.participants);
        }
    }

    #[test]
    fn hostile_fleet_with_robust_aggregation_runs() {
        // End-to-end wiring check: personas, a robust aggregator, a
        // label-skewed partition and reputation all active at once.
        let mut fed = Federation::builder(plan())
            .model(|| zoo::tiny_mlp(3 * 32 * 32, 8, 2, 9).unwrap())
            .clients(4, dataset())
            .adversaries(AdversaryPlan::seeded(3).poisoners(0.3).colluders(0.3))
            .aggregator(Aggregator::Median)
            .partition(PartitionKind::ByLabel)
            .reputation(-2)
            .build()
            .unwrap();
        let report = fed.run().unwrap();
        assert_eq!(report.rounds_completed, 3);
        let log = fed.collusion_log().expect("adversarial run keeps a log");
        // With a 30% colluder band over 4 clients the coalition may be
        // empty; either way the log observes at most one snapshot per
        // round.
        assert!(log.rounds_observed() <= 3);
    }

    #[test]
    fn training_improves_global_accuracy() {
        // End-to-end sanity: the federated model should learn the 2-class
        // synthetic task measurably.
        let ds = dataset();
        let mut fed = Federation::builder(TrainingPlan {
            rounds: 15,
            clients_per_round: 3,
            batches_per_cycle: 4,
            batch_size: 8,
            learning_rate: 0.05,
            seed: 5,
        })
        .model(|| zoo::tiny_mlp(3 * 32 * 32, 16, 2, 21).unwrap())
        .clients(3, ds.clone())
        .build()
        .unwrap();
        fed.run().unwrap();
        let mut model = zoo::tiny_mlp(3 * 32 * 32, 16, 2, 21).unwrap();
        model.set_weights(fed.server().global()).unwrap();
        let (x, y) = gradsec_data::batch_of(ds.as_ref(), &(0..64).collect::<Vec<_>>());
        let acc = model.accuracy(&x, &y).unwrap();
        assert!(acc > 0.7, "federated accuracy only {acc}");
    }
}
