//! Multi-process fleets: shard-server processes behind one coordinator.
//!
//! A [`Federation`] normally hosts its fleet in this process. A
//! [`DistributedBuilder`] launches the same runner with each
//! [`ShardLayout`] shard promoted to its own OS process: it spawns
//! `shard-server` children (the thin binary in `src/bin/shard_server.rs`
//! over [`serve_shard`]), each hosting one contiguous client range behind
//! the existing envelope protocol, and [`Federation::run_round`] drives
//! screening and round execution over loopback TCP:
//!
//! ```text
//!  coordinator process                    shard-server processes
//!  ┌─────────────────────────┐   TCP     ┌───────────────────────────┐
//!  │ FlServer (RNG, model,   │◄────────► │ shard 0: clients [0, a)   │
//!  │ history, sampling)      │  envelope │   engine × W workers      │
//!  │ ProtectionScheduler     │◄────────► │ shard 1: clients [a, b)   │
//!  │ quote verification      │   one     │   engine × W workers      │
//!  │ PartialAggregate fold   │◄────────► │ shard 2: clients [b, n)   │
//!  │ RoundLedger merge       │  channel  │   engine × W workers      │
//!  └─────────────────────────┘  per shard└───────────────────────────┘
//! ```
//!
//! The determinism contract is the in-process one: every RNG consumption
//! happens on the coordinator ([`FlServer::screen_plan`] draws the
//! candidate sub-sample and the attestation nonces in global candidate
//! order, [`FlServer::sample_screened`] does the single shuffle), quote
//! *verification* stays on the coordinator against its own provisioning
//! registry, and shard replies come back tagged with *global* selection
//! slots and commit through the same round loop. A run over
//! `(S shard processes × W workers)` is therefore bit-identical to the
//! flat in-process reference — gated by `repro_distributed` and
//! `tests/integration_distributed.rs`.
//!
//! Shard-failure semantics: a shard process that crashes, hangs past the
//! reply deadline, or answers garbage is billed and excluded like a
//! straggler cohort — its picked clients become failed outcomes with
//! zero-cost ledger entries and the round commits from the surviving
//! shards. [`FlError::RoundCollapsed`] is raised only when *nothing*
//! commits. A dead shard stays dead (and is reaped at
//! [`shutdown`](Federation::shutdown)); later rounds simply screen its
//! clients as unreachable.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gradsec_data::{Dataset, SyntheticCifar100, SyntheticMicro};
use gradsec_nn::{zoo, BackendKind, Sequential};
use gradsec_tee::attestation::Measurement;
use gradsec_tee::cost::{ClientCycleCost, RoundLedger};
use gradsec_tee::crypto::sha256::sha256;

use crate::adversary::{Adversary, AdversaryPlan, ReputationBook};
use crate::aggregate::{Aggregator, PartialAggregate};
use crate::client::{DeviceProfile, FlClient};
use crate::codec::CodecKind;
use crate::config::{MuxOptions, PartitionKind, ShardLayout, TrainingPlan, TransportKind};
use crate::engine::{ClientOutcome, ExecutionEngine};
use crate::faults::FaultPlan;
use crate::message::{
    encode, negotiate_version, DatasetSpec, Envelope, MessageKind, ModelDownload, ModelSpec,
    ScreenProbe, ShardConfig, ShardConfigAck, ShardHello, ShardHelloAck, ShardOutcome,
    ShardOutcomeKind, ShardRound, ShardRoundReply, ShardScreen, ShardScreenReply,
    ENVELOPE_HEADER_LEN, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use crate::runner::{partition_dataset, wire_fleet, Federation, Fleet};
use crate::scheduler::{NoProtection, ProtectionScheduler};
use crate::selection::{verify_evidence, ScreenPlan, ScreeningOutcome};
use crate::server::FlServer;
use crate::trainer::PlainSgdTrainer;
use crate::transport::mux::DEFAULT_JOIN_GRACE;
use crate::transport::tcp::read_envelope;
use crate::transport::RemoteClient;
use crate::{FlError, Result};

/// How long `launch` waits for every spawned shard-server to connect
/// back before declaring the fleet dead on arrival.
const CONNECT_GRACE: Duration = Duration::from_secs(60);

/// Environment variable overriding where the `shard-server` binary
/// lives (used by CI and the repro gates to pin an already-built one).
pub const SHARD_SERVER_ENV: &str = "GRADSEC_SHARD_SERVER";

// ---------------------------------------------------------------------
// Shard channel: blocking envelope I/O over one TCP stream.
// ---------------------------------------------------------------------

/// One framed envelope channel between the coordinator and a
/// shard-server process: the envelope header doubles as the length
/// prefix, exactly as on the per-client TCP transport. Counts bytes in
/// both directions so the repro gates can report wire overhead; the
/// configured reply deadline rides on the socket's read timeout, so a
/// hung shard is detected rather than waited on forever.
struct ShardChannel {
    stream: TcpStream,
    peer: String,
    bytes_out: u64,
    bytes_in: u64,
}

impl ShardChannel {
    fn new(stream: TcpStream) -> Result<Self> {
        stream
            .set_nodelay(true)
            .map_err(|e| FlError::transport("configuring shard channel", e))?;
        let peer = match stream.peer_addr() {
            Ok(addr) => format!("shard channel {addr}"),
            Err(_) => "shard channel <unknown>".to_owned(),
        };
        Ok(ShardChannel {
            stream,
            peer,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    fn send(&mut self, envelope: &Envelope) -> Result<()> {
        let bytes = encode(envelope);
        self.stream
            .write_all(&bytes)
            .map_err(|e| FlError::transport(format!("sending to {}", self.peer), e))?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<Envelope> {
        let envelope = read_envelope(&mut self.stream, &self.peer)?;
        self.bytes_in += (ENVELOPE_HEADER_LEN + envelope.payload.len()) as u64;
        Ok(envelope)
    }
}

// ---------------------------------------------------------------------
// Shard-server binary resolution.
// ---------------------------------------------------------------------

/// Finds the `shard-server` binary: the [`SHARD_SERVER_ENV`] override,
/// then a sibling of the current executable (covers `cargo test`, whose
/// harness binaries live next to — or in `deps/` under — the bin
/// targets), and as a last resort a `cargo build` of the bin target
/// (covers `cargo run -p` of another package, which never builds this
/// crate's bins).
fn resolve_shard_server() -> Result<PathBuf> {
    if let Some(p) = std::env::var_os(SHARD_SERVER_ENV) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(FlError::BadConfig {
            reason: format!(
                "{SHARD_SERVER_ENV} points at a missing file: {}",
                p.display()
            ),
        });
    }
    let exe = std::env::current_exe()
        .map_err(|e| FlError::transport("locating current executable", e))?;
    let name = format!("shard-server{}", std::env::consts::EXE_SUFFIX);
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir.to_path_buf());
        // Test harness binaries live one level down, in target/<p>/deps.
        if dir.file_name().is_some_and(|n| n == "deps") {
            if let Some(parent) = dir.parent() {
                dirs.push(parent.to_path_buf());
            }
        }
    }
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    // Not built yet: build it. Profile follows the caller's own build.
    let release = exe.components().any(|c| c.as_os_str() == "release");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "-p", "gradsec-fl", "--bin", "shard-server"]);
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| FlError::transport("building shard-server", e))?;
    if !status.success() {
        return Err(FlError::BadConfig {
            reason: format!("cargo build of shard-server failed: {status}"),
        });
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            exe.ancestors()
                .find(|a| a.file_name().is_some_and(|n| n == "target"))
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    let built = target
        .join(if release { "release" } else { "debug" })
        .join(&name);
    if built.is_file() {
        Ok(built)
    } else {
        Err(FlError::BadConfig {
            reason: format!(
                "built shard-server not found at {} (set {SHARD_SERVER_ENV} to its path)",
                built.display()
            ),
        })
    }
}

// ---------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------

/// Configures and launches a [`Federation`] whose fleet lives in
/// shard-server processes.
///
/// Unlike [`FederationBuilder`](crate::runner::FederationBuilder) —
/// whose model/trainer factories are arbitrary closures — the
/// distributed builder takes *recipes* ([`DatasetSpec`], [`ModelSpec`])
/// that travel over the wire, because a shard-server process must
/// reconstruct the identical fleet from bytes alone. Shard servers
/// provision all-TrustZone [`DeviceProfile`]s and the plain SGD trainer
/// (the builder defaults); heterogeneous device mixes and custom
/// trainers stay in-process for now.
pub struct DistributedBuilder {
    plan: TrainingPlan,
    dataset: Option<DatasetSpec>,
    model: Option<ModelSpec>,
    clients: usize,
    shards: usize,
    workers: usize,
    backend: BackendKind,
    codec: CodecKind,
    faults: Option<FaultPlan>,
    adversaries: Option<AdversaryPlan>,
    aggregator: Aggregator,
    partition: PartitionKind,
    reputation: Option<ReputationBook>,
    screening_sample: Option<usize>,
    scheduler: Arc<dyn ProtectionScheduler>,
    measurement: Measurement,
    reply_timeout: Option<Duration>,
}

impl DistributedBuilder {
    /// Starts a builder for `plan`.
    pub fn new(plan: TrainingPlan) -> Self {
        DistributedBuilder {
            plan,
            dataset: None,
            model: None,
            clients: 0,
            shards: 1,
            workers: 1,
            backend: BackendKind::from_env(),
            codec: CodecKind::from_env(),
            faults: None,
            adversaries: None,
            aggregator: Aggregator::FedAvg,
            partition: PartitionKind::Iid,
            reputation: None,
            screening_sample: None,
            scheduler: Arc::new(NoProtection),
            measurement: Measurement(sha256(b"gradsec-ta-code-v1")),
            reply_timeout: None,
        }
    }

    /// Sets the fleet: `n` clients sharing the dataset `spec`
    /// (partitioned by the same global derivation the flat reference
    /// uses — IID sharding by default, label-skewed via
    /// [`partition`](Self::partition)).
    pub fn clients(mut self, n: usize, spec: DatasetSpec) -> Self {
        self.clients = n;
        self.dataset = Some(spec);
        self
    }

    /// Sets the model recipe every process builds.
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.model = Some(spec);
        self
    }

    /// Number of shard-server processes to spawn (clamped to the client
    /// count, like [`ShardLayout::new`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Engine worker threads *per shard process* (`0` = one per core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the kernel backend every shard process uses.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the update codec every shard's sessions negotiate
    /// (shipped by name in the [`ShardConfig`]; defaults to the
    /// `GRADSEC_CODEC` environment variable, falling back to
    /// [`CodecKind::Identity`]).
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Installs a deterministic fault plan (shipped to every shard;
    /// selection over-provisions by the plan's spare count, exactly as
    /// in-process).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a deterministic adversarial scenario (shipped to every
    /// shard; persona assignment is a pure function of the scenario
    /// seed and the *global* client id, so the hostile subset is
    /// identical to an in-process run over the same plan).
    pub fn adversaries(mut self, plan: AdversaryPlan) -> Self {
        self.adversaries = Some(plan);
        self
    }

    /// Selects the aggregation rule committed on the coordinator
    /// (defaults to plain FedAvg; robust variants defend against
    /// hostile uploads).
    pub fn aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Selects how the dataset is partitioned across clients (shipped
    /// by name in the [`ShardConfig`]; defaults to IID).
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.partition = partition;
        self
    }

    /// Enables reputation-filtered selection on the coordinator:
    /// clients whose accumulated outcome score falls below `threshold`
    /// stop being screened (see [`crate::adversary::ReputationBook`]).
    pub fn reputation(mut self, threshold: i64) -> Self {
        self.reputation = Some(ReputationBook::new(threshold));
        self
    }

    /// Caps per-round screening at `m` sub-sampled candidates (see
    /// [`FlServer::set_screening_sample`]).
    pub fn screening_sample(mut self, m: usize) -> Self {
        self.screening_sample = Some(m);
        self
    }

    /// Sets the protection scheduler driving every round's sheltered
    /// layer set.
    pub fn scheduler<S>(mut self, s: S) -> Self
    where
        S: ProtectionScheduler + 'static,
    {
        self.scheduler = Arc::new(s);
        self
    }

    /// Overrides the whitelisted TA measurement.
    pub fn measurement(mut self, m: Measurement) -> Self {
        self.measurement = m;
        self
    }

    /// Bounds how long the coordinator waits for any one shard reply; a
    /// shard that blows the deadline is billed and excluded like a
    /// crashed one. `None` (the default) waits indefinitely.
    pub fn reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = Some(timeout);
        self
    }

    /// Spawns the shard-server processes, performs the shard-control
    /// handshake and configuration, and returns the ready federation.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] on invalid configuration,
    /// [`FlError::Transport`] when spawning/connecting fails, and
    /// [`FlError::Protocol`] on a handshake violation.
    pub fn launch(self) -> Result<Federation> {
        self.plan.validate()?;
        if let Some(p) = &self.faults {
            p.validate()?;
        }
        if let Some(p) = &self.adversaries {
            p.validate()?;
        }
        self.aggregator.validate()?;
        let dataset = self.dataset.ok_or(FlError::BadConfig {
            reason: "distributed federation needs a dataset spec".to_owned(),
        })?;
        let model = self.model.ok_or(FlError::BadConfig {
            reason: "distributed federation needs a model spec".to_owned(),
        })?;
        if self.clients == 0 {
            return Err(FlError::BadConfig {
                reason: "distributed federation needs at least one client".to_owned(),
            });
        }
        let init_weights = build_model(&model)?.weights();
        let mut server = FlServer::new(self.plan, init_weights.clone(), self.measurement)?;
        if let Some(p) = &self.faults {
            server.overprovision(p.spare_count());
        }
        server.set_screening_sample(self.screening_sample);
        server.set_reputation(self.reputation);
        let layout = ShardLayout::new(self.clients, self.shards);
        // Every shard gets the same recipe; only its range differs.
        let config = ShardConfig {
            shard_index: 0,
            range_start: 0,
            range_end: 0,
            total_clients: layout.num_clients() as u64,
            dataset,
            model,
            init_weights,
            plan: self.plan,
            backend: self.backend.name().to_owned(),
            codec: self.codec.name().to_owned(),
            workers: self.workers as u64,
            measurement: self.measurement,
            faults: self.faults.clone(),
            partition: self.partition.name().to_owned(),
            adversaries: self.adversaries,
        };
        let mut shards = Vec::with_capacity(layout.num_shards());
        if let Err(e) = spawn_shards(&mut shards, &layout, &config, self.reply_timeout) {
            let _ = teardown(&mut shards);
            return Err(e);
        }
        Ok(Federation {
            server,
            layout,
            fleet: Fleet::Processes(shards),
            scheduler: self.scheduler,
            engine: ExecutionEngine::new(self.workers),
            faults: self.faults.map(Arc::new),
            aggregator: self.aggregator,
            // Colluders live in the shard processes; their observation log
            // is an in-process artifact.
            collusion: None,
        })
    }
}

/// Spawns one shard-server per layout shard into `shards`, accepts and
/// handshakes their connections, and configures each with its client
/// range. On error the caller tears down whatever `shards` holds.
fn spawn_shards(
    shards: &mut Vec<ShardSlot>,
    layout: &ShardLayout,
    config: &ShardConfig,
    reply_timeout: Option<Duration>,
) -> Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| FlError::transport("binding coordinator listener", e))?;
    let addr: SocketAddr = listener
        .local_addr()
        .map_err(|e| FlError::transport("reading coordinator address", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| FlError::transport("configuring coordinator listener", e))?;
    let binary = resolve_shard_server()?;
    for _ in 0..layout.num_shards() {
        let child = Command::new(&binary)
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| FlError::transport(format!("spawning {}", binary.display()), e))?;
        shards.push(ShardSlot {
            channel: None,
            child,
            reaped: false,
            deliberately_killed: false,
            retired_bytes: (0, 0),
        });
    }
    // Accept one connection per shard; identity is assigned by arrival
    // order (shard servers are symmetric until configured). Poll so a
    // child that died before connecting fails the launch instead of
    // hanging it.
    let deadline = Instant::now() + CONNECT_GRACE;
    for s in 0..shards.len() {
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    for slot in shards.iter_mut() {
                        if let Ok(Some(status)) = slot.child.try_wait() {
                            slot.reaped = true;
                            return Err(FlError::Protocol {
                                reason: format!("shard-server exited before connecting: {status}"),
                            });
                        }
                    }
                    if Instant::now() > deadline {
                        return Err(FlError::disconnected(
                            "waiting for shard-server connections",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(FlError::transport("accepting shard connection", e)),
            }
        };
        stream
            .set_nonblocking(false)
            .map_err(|e| FlError::transport("configuring shard stream", e))?;
        let mut channel = ShardChannel::new(stream)?;
        let hello: ShardHello = channel.recv()?.open(MessageKind::ShardHello)?;
        // Arrival order assigns shard identity, but the child handles sit
        // in *spawn* order — pair each connection with its process via the
        // hello's pid, or a later kill/teardown would target the wrong
        // child. Slots before `s` are already paired, so only the tail is
        // searched (and swapped while both channels are None).
        let k = shards[s..]
            .iter()
            .position(|slot| u64::from(slot.child.id()) == hello.pid)
            .map(|offset| s + offset)
            .ok_or(FlError::Protocol {
                reason: format!("connection from unknown shard-server pid {}", hello.pid),
            })?;
        shards.swap(s, k);
        let version =
            negotiate_version(hello.min_version, hello.max_version).ok_or(FlError::Protocol {
                reason: format!(
                    "shard-server speaks versions {}..={}, coordinator {}..={}",
                    hello.min_version, hello.max_version, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION
                ),
            })?;
        channel.send(&Envelope::pack(
            MessageKind::ShardHelloAck,
            &ShardHelloAck {
                version,
                shard_index: s as u64,
            },
        ))?;
        shards[s].channel = Some(channel);
    }
    // Configure all shards, then collect all acks: fleet wiring is the
    // expensive part and this pipelines it across processes.
    for (s, slot) in shards.iter_mut().enumerate() {
        let range = layout.range(s);
        let config = ShardConfig {
            shard_index: s as u64,
            range_start: range.start as u64,
            range_end: range.end as u64,
            ..config.clone()
        };
        slot.channel_mut()?
            .send(&Envelope::pack(MessageKind::ShardConfig, &config))?;
    }
    for (s, slot) in shards.iter_mut().enumerate() {
        let range = layout.range(s);
        let channel = slot.channel_mut()?;
        let ack: ShardConfigAck = channel.recv()?.open(MessageKind::ShardConfigAck)?;
        if ack.clients != range.len() as u64 {
            return Err(FlError::Protocol {
                reason: format!(
                    "shard {s} wired {} clients, expected {}",
                    ack.clients,
                    range.len()
                ),
            });
        }
        // From here on every read is a round reply, so the reply deadline
        // can sit on the socket for the channel's lifetime.
        channel
            .stream
            .set_read_timeout(reply_timeout)
            .map_err(|e| FlError::transport("setting shard read deadline", e))?;
    }
    Ok(())
}

/// One shard-server process as the coordinator tracks it: the control
/// channel (dropped once the shard is declared dead) and the child
/// process handle.
pub(crate) struct ShardSlot {
    channel: Option<ShardChannel>,
    child: Child,
    reaped: bool,
    deliberately_killed: bool,
    /// Bytes (out, in) the channel carried before it was retired.
    retired_bytes: (u64, u64),
}

impl ShardSlot {
    /// Whether the shard's process is still connected.
    pub(crate) fn alive(&self) -> bool {
        self.channel.is_some()
    }

    fn channel_mut(&mut self) -> Result<&mut ShardChannel> {
        self.channel
            .as_mut()
            .ok_or_else(|| FlError::disconnected("shard channel already retired"))
    }

    /// Envelope bytes `(sent, received)` over this shard's lifetime.
    fn bytes(&self) -> (u64, u64) {
        let (out, inn) = self.retired_bytes;
        match &self.channel {
            Some(ch) => (out + ch.bytes_out, inn + ch.bytes_in),
            None => (out, inn),
        }
    }

    /// Drops the channel, folding its byte counters into the retired
    /// totals. Idempotent.
    fn retire(&mut self) {
        if let Some(ch) = self.channel.take() {
            self.retired_bytes.0 += ch.bytes_out;
            self.retired_bytes.1 += ch.bytes_in;
        }
    }

    /// Sends `msg` if the shard is alive; a failed send retires it.
    fn send(&mut self, msg: &Envelope) {
        if let Some(ch) = &mut self.channel {
            if ch.send(msg).is_err() {
                self.retire();
            }
        }
    }

    /// Receives the shard's reply (under the channel's deadline) and opens
    /// it as `T`. Does *not* retire the channel on failure — the caller
    /// decides how a failure is billed.
    fn reply<T: crate::message::Wire>(&mut self, expect: MessageKind) -> Result<T> {
        self.channel_mut()?.recv()?.open(expect)
    }

    /// SIGKILLs the shard's process and retires its channel; shard `s` is
    /// named in errors.
    pub(crate) fn kill(&mut self, s: usize) -> Result<()> {
        self.deliberately_killed = true;
        self.child
            .kill()
            .map_err(|e| FlError::transport(format!("killing shard {s}"), e))?;
        // Reap now so the child never lingers as a zombie; the socket
        // stays open until retired below.
        let _ = self.child.wait();
        self.reaped = true;
        self.retire();
        Ok(())
    }
}

/// Total envelope bytes `(sent, received)` across every shard channel,
/// dead ones included.
pub(crate) fn bytes_on_wire(shards: &[ShardSlot]) -> (u64, u64) {
    shards
        .iter()
        .map(ShardSlot::bytes)
        .fold((0, 0), |(o, i), (bo, bi)| (o + bo, i + bi))
}

/// Screens the plan's candidates on their owning shard processes
/// (nonces drawn and evidence verified here, on the coordinator),
/// returning verdicts index-aligned with the candidates. Candidates on a
/// dead (or newly failing) shard screen as unreachable — the verdict an
/// in-process fleet gives a client whose endpoint is gone.
pub(crate) fn screen(
    shards: &mut [ShardSlot],
    layout: &ShardLayout,
    screen: &ScreenPlan,
    expected: Measurement,
) -> Vec<ScreeningOutcome> {
    // Partition this round's candidates by owning shard, remembering
    // each probe's position in the global candidate order so the outcome
    // vector can be reassembled index-aligned.
    let mut positions: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
    let mut probes: Vec<Vec<ScreenProbe>> = vec![Vec::new(); shards.len()];
    for (ci, (&g, ch)) in screen
        .candidates
        .iter()
        .zip(screen.challenges.iter())
        .enumerate()
    {
        let s = layout.shard_of(g);
        positions[s].push(ci);
        probes[s].push(ScreenProbe {
            local: (g - layout.range(s).start) as u64,
            challenge: *ch,
        });
    }
    let mut outcomes = vec![ScreeningOutcome::Unreachable; screen.candidates.len()];
    for (slot, probes) in shards.iter_mut().zip(probes) {
        if !probes.is_empty() {
            slot.send(&Envelope::pack(
                MessageKind::ShardScreen,
                &ShardScreen { probes },
            ));
        }
    }
    for (slot, positions) in shards.iter_mut().zip(&positions) {
        if positions.is_empty() || !slot.alive() {
            continue;
        }
        match slot.reply::<ShardScreenReply>(MessageKind::ShardScreenReply) {
            Ok(reply) if reply.evidence.len() == positions.len() => {
                for (&ci, evidence) in positions.iter().zip(reply.evidence) {
                    let g = screen.candidates[ci];
                    outcomes[ci] = match evidence {
                        None => ScreeningOutcome::Unreachable,
                        Some(resp) => verify_evidence(
                            &DeviceProfile::provisioned_key(g as u64),
                            resp.quote,
                            expected,
                            &screen.challenges[ci],
                        ),
                    };
                }
            }
            _ => slot.retire(),
        }
    }
    outcomes
}

/// Runs one round across the shard processes: sends every shard its
/// picks first, then collects the replies, so the shards train
/// concurrently. Returns the outcomes in `picked` order, the merged
/// ledger, and whether a whole shard cohort was lost.
pub(crate) fn execute(
    shards: &mut [ShardSlot],
    layout: &ShardLayout,
    picked: &[usize],
    download: &ModelDownload,
) -> (Vec<ClientOutcome>, RoundLedger, bool) {
    // With a contiguous layout and sorted picks, shard s's picks occupy
    // the contiguous global slot range starting at the prefix count —
    // that is each reply's slot_base.
    let split = layout.split_picks(picked);
    let slot_base: Vec<usize> = split
        .iter()
        .scan(0, |at, picks| {
            let base = *at;
            *at += picks.len();
            Some(base)
        })
        .collect();
    let mut slots: Vec<Option<ClientOutcome>> = (0..picked.len()).map(|_| None).collect();
    let mut ledger = RoundLedger::new();
    let mut cohort_failed = false;
    for ((slot, picks), &base) in shards.iter_mut().zip(&split).zip(&slot_base) {
        if !picks.is_empty() {
            slot.send(&Envelope::pack(
                MessageKind::ShardRound,
                &ShardRound {
                    download: download.clone(),
                    picks: picks.iter().map(|&p| p as u64).collect(),
                    slot_base: base as u64,
                },
            ));
        }
    }
    for (s, ((slot, picks), &base)) in shards.iter_mut().zip(&split).zip(&slot_base).enumerate() {
        if picks.is_empty() {
            continue;
        }
        let applied = slot.alive()
            && slot
                .reply::<ShardRoundReply>(MessageKind::ShardRoundReply)
                .and_then(|reply| {
                    apply_shard_reply(reply, base, picks.len(), &mut slots, &mut ledger)
                })
                .is_ok();
        if !applied {
            // The whole cohort is billed and excluded, straggler style:
            // failed outcomes with zero-cost ledger entries.
            slot.retire();
            cohort_failed = true;
            let range = layout.range(s);
            for (j, &local) in picks.iter().enumerate() {
                let client = (range.start + local) as u64;
                ledger.record(ClientCycleCost::unbilled(client));
                slots[base + j] = Some(ClientOutcome::Failed {
                    client,
                    error: FlError::ClientFailure {
                        client,
                        reason: format!("shard {s} process failed mid-round"),
                    },
                });
            }
        }
    }
    let outcomes = slots
        .into_iter()
        .enumerate()
        .map(|(slot, o)| {
            o.unwrap_or_else(|| {
                let client = picked[slot] as u64;
                ledger.record(ClientCycleCost::unbilled(client));
                ClientOutcome::Failed {
                    client,
                    error: FlError::ClientFailure {
                        client,
                        reason: "coordinator lost the client's outcome".to_owned(),
                    },
                }
            })
        })
        .collect();
    (outcomes, ledger, cohort_failed)
}

/// Tears the shard fleet down: sends every live shard a Goodbye, drops
/// the channels (so a shard that lost the goodbye observes EOF), then
/// waits for the child processes under the same watchdog discipline as
/// `MuxFleet::join` — bounded by [`DEFAULT_JOIN_GRACE`], kill-on-timeout,
/// first error surfaced (deliberately killed shards excepted).
/// Idempotent: a second call finds every channel retired and every child
/// reaped.
pub(crate) fn teardown(shards: &mut [ShardSlot]) -> Result<()> {
    let mut first_err: Option<FlError> = None;
    for slot in shards.iter_mut() {
        if let Some(ch) = slot.channel.as_mut() {
            if let Err(e) = ch.send(&Envelope::control(MessageKind::Goodbye)) {
                first_err.get_or_insert(e);
            }
        }
        // Dropping the channel closes the socket: a shard whose goodbye
        // was lost sees EOF and exits instead of hanging the wait below.
        slot.retire();
    }
    let deadline = Instant::now() + DEFAULT_JOIN_GRACE;
    loop {
        let mut all_done = true;
        for slot in shards.iter_mut() {
            if slot.reaped {
                continue;
            }
            match slot.child.try_wait() {
                Ok(Some(status)) => {
                    slot.reaped = true;
                    if !status.success() && !slot.deliberately_killed {
                        first_err.get_or_insert(FlError::Protocol {
                            reason: format!("shard-server exited with {status}"),
                        });
                    }
                }
                Ok(None) => all_done = false,
                Err(e) => {
                    slot.reaped = true;
                    first_err.get_or_insert(FlError::transport("waiting for shard-server", e));
                }
            }
        }
        if all_done {
            break;
        }
        if Instant::now() > deadline {
            for slot in shards.iter_mut() {
                if slot.reaped {
                    continue;
                }
                let _ = slot.child.kill();
                let _ = slot.child.wait();
                slot.reaped = true;
                if !slot.deliberately_killed {
                    first_err.get_or_insert(FlError::Protocol {
                        reason: "shard-server ignored goodbye past the join grace; killed"
                            .to_owned(),
                    });
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    first_err.map_or(Ok(()), Err)
}

/// Validates and applies one shard's round reply: every slot must fall
/// in the shard's `[slot_base, slot_base + picks)` window exactly once
/// (full coverage — the shard accounts every pick, success or not).
/// Nothing is written to `slots`/`ledger` unless the whole reply
/// validates, so a garbled reply degrades to a clean cohort failure.
fn apply_shard_reply(
    reply: ShardRoundReply,
    slot_base: usize,
    picks: usize,
    slots: &mut [Option<ClientOutcome>],
    ledger: &mut RoundLedger,
) -> Result<()> {
    let mut seen = vec![false; picks];
    let mut mark = |slot: usize| -> Result<()> {
        let local =
            slot.checked_sub(slot_base)
                .filter(|&l| l < picks)
                .ok_or(FlError::Protocol {
                    reason: format!(
                        "shard reply slot {slot} outside [{slot_base}, {})",
                        slot_base + picks
                    ),
                })?;
        if std::mem::replace(&mut seen[local], true) {
            return Err(FlError::Protocol {
                reason: format!("shard reply repeats slot {slot}"),
            });
        }
        Ok(())
    };
    for (slot, _) in reply.partial.terms() {
        mark(*slot)?;
    }
    for o in &reply.others {
        mark(o.slot as usize)?;
    }
    if !seen.iter().all(|&s| s) {
        return Err(FlError::Protocol {
            reason: "shard reply does not account every pick".to_owned(),
        });
    }
    for (slot, upload) in reply.partial.terms() {
        slots[*slot] = Some(ClientOutcome::Completed(upload.clone()));
    }
    for o in reply.others {
        let outcome = match o.kind {
            ShardOutcomeKind::Straggler { elapsed_s } => ClientOutcome::Straggler {
                client: o.client,
                elapsed_s,
            },
            ShardOutcomeKind::Failed { reason } => ClientOutcome::Failed {
                client: o.client,
                error: FlError::ClientFailure {
                    client: o.client,
                    reason,
                },
            },
        };
        slots[o.slot as usize] = Some(outcome);
    }
    ledger.merge(&reply.ledger);
    Ok(())
}

// ---------------------------------------------------------------------
// Shard-server side.
// ---------------------------------------------------------------------

/// Entry point for the `shard-server` binary: connects back to the
/// coordinator address in `args` and serves one shard until Goodbye.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] without an address argument and
/// propagates every serve failure.
pub fn shard_server_main(mut args: impl Iterator<Item = String>) -> Result<()> {
    let addr = args.next().ok_or(FlError::BadConfig {
        reason: "usage: shard-server <coordinator-addr>".to_owned(),
    })?;
    let stream = TcpStream::connect(&addr)
        .map_err(|e| FlError::transport(format!("connecting to coordinator {addr}"), e))?;
    serve_shard(stream)
}

/// The wired state one [`ShardConfig`] produces: the shard's handshaken
/// client endpoints (global ids), its engine and its fault plan.
struct ShardState {
    remotes: Vec<RemoteClient>,
    engine: ExecutionEngine,
    faults: Option<Arc<FaultPlan>>,
}

/// Serves one shard over an established coordinator connection:
/// handshake, configuration, then screen/round requests until Goodbye.
/// This is the whole shard-server process in library form — the binary
/// only parses its address argument.
///
/// # Errors
///
/// Propagates handshake, configuration and transport failures (the
/// binary turns them into a nonzero exit, which the coordinator's
/// teardown surfaces).
pub fn serve_shard(stream: TcpStream) -> Result<()> {
    let mut channel = ShardChannel::new(stream)?;
    channel.send(&Envelope::pack(
        MessageKind::ShardHello,
        &ShardHello::current(),
    ))?;
    let ack: ShardHelloAck = channel.recv()?.open(MessageKind::ShardHelloAck)?;
    if !(MIN_SUPPORTED_VERSION..=PROTOCOL_VERSION).contains(&ack.version) {
        return Err(FlError::Protocol {
            reason: format!("coordinator negotiated unsupported version {}", ack.version),
        });
    }
    let config: ShardConfig = match channel.recv()?.open(MessageKind::ShardConfig) {
        Ok(c) => c,
        Err(e) => {
            let _ = channel.send(&Envelope::error(e.to_string()));
            return Err(e);
        }
    };
    let mut state = match wire_shard(&config) {
        Ok(state) => state,
        Err(e) => {
            let _ = channel.send(&Envelope::error(e.to_string()));
            return Err(e);
        }
    };
    channel.send(&Envelope::pack(
        MessageKind::ShardConfigAck,
        &ShardConfigAck {
            clients: state.remotes.len() as u64,
        },
    ))?;
    loop {
        let request = channel.recv()?;
        match request.kind {
            MessageKind::ShardScreen => {
                let screen: ShardScreen = request.open(MessageKind::ShardScreen)?;
                let evidence = screen
                    .probes
                    .iter()
                    .map(|probe| {
                        state
                            .remotes
                            .get_mut(probe.local as usize)
                            .and_then(|client| client.attest(&probe.challenge).ok())
                    })
                    .collect();
                channel.send(&Envelope::pack(
                    MessageKind::ShardScreenReply,
                    &ShardScreenReply { evidence },
                ))?;
            }
            MessageKind::ShardRound => {
                let round: ShardRound = request.open(MessageKind::ShardRound)?;
                let reply = match run_shard_round(&mut state, &round) {
                    Ok(reply) => reply,
                    Err(e) => {
                        let _ = channel.send(&Envelope::error(e.to_string()));
                        return Err(e);
                    }
                };
                channel.send(&Envelope::pack(MessageKind::ShardRoundReply, &reply))?;
            }
            MessageKind::Goodbye => {
                // Mirror the in-process teardown: goodbye every client
                // endpoint before exiting.
                for client in &mut state.remotes {
                    let _ = client.goodbye();
                }
                return Ok(());
            }
            other => {
                let e = FlError::Protocol {
                    reason: format!("unexpected {other:?} on shard control channel"),
                };
                let _ = channel.send(&Envelope::error(e.to_string()));
                return Err(e);
            }
        }
    }
}

/// Materialises a [`DatasetSpec`] — both sides construct the identical
/// deterministic dataset from the recipe, so no sample crosses the wire.
fn build_dataset(spec: &DatasetSpec) -> Arc<dyn Dataset> {
    match *spec {
        DatasetSpec::Micro {
            len,
            classes,
            dim,
            seed,
        } => Arc::new(SyntheticMicro::new(
            len as usize,
            classes as usize,
            dim as usize,
            seed,
        )),
        DatasetSpec::Cifar { len, classes, seed } => Arc::new(SyntheticCifar100::with_classes(
            len as usize,
            classes as usize,
            seed,
        )),
    }
}

/// Materialises a [`ModelSpec`].
fn build_model(spec: &ModelSpec) -> Result<Sequential> {
    Ok(match *spec {
        ModelSpec::TinyMlp {
            inputs,
            hidden,
            outputs,
            seed,
        } => zoo::tiny_mlp(inputs as usize, hidden as usize, outputs as usize, seed)?,
        ModelSpec::LeNet5 { classes, seed } => zoo::lenet5_with(classes as usize, seed)?,
    })
}

/// Builds and handshakes the shard's client fleet from its config:
/// the *global* data partition re-derived and sub-ranged (so every
/// client's local dataset is bit-identical to the flat reference),
/// global client ids, all-TrustZone devices, plain SGD trainers, wired by
/// the in-process runner's own `wire_fleet` (fault wrapper installed
/// before the handshake).
fn wire_shard(config: &ShardConfig) -> Result<ShardState> {
    if config.range_start > config.range_end || config.range_end > config.total_clients {
        return Err(FlError::BadConfig {
            reason: format!(
                "shard range [{}, {}) outside fleet of {}",
                config.range_start, config.range_end, config.total_clients
            ),
        });
    }
    let backend = BackendKind::parse(&config.backend).ok_or_else(|| FlError::BadConfig {
        reason: format!("unknown kernel backend {:?}", config.backend),
    })?;
    let codec = CodecKind::parse(&config.codec).ok_or_else(|| FlError::BadConfig {
        reason: format!("unknown update codec {:?}", config.codec),
    })?;
    let dataset = build_dataset(&config.dataset);
    let mut prototype = build_model(&config.model)?;
    prototype.set_backend(backend);
    prototype.set_weights(&config.init_weights)?;
    // The *global* partition derivation, identical to an in-process
    // fleet's — every shard computes the full fleet's shards and keeps
    // only its range, so per-client data is layout-independent.
    let partition_kind =
        PartitionKind::parse(&config.partition).ok_or_else(|| FlError::BadConfig {
            reason: format!("unknown partition kind {:?}", config.partition),
        })?;
    let mut partition = partition_dataset(
        dataset.as_ref(),
        config.total_clients as usize,
        partition_kind,
        config.plan.seed,
    );
    let faults = config.faults.clone().map(Arc::new);
    // Personas re-derive from the shipped scenario plan and the global
    // client id — the hostile subset matches the coordinator's view
    // exactly. The collusion log stays `None` in shard processes: it is
    // an observability artifact, and colluders train honestly, so its
    // absence cannot perturb the committed weights.
    let adversaries = config.adversaries.clone().map(Arc::new);
    let fleet = (config.range_start..config.range_end)
        .map(|g| {
            let mut client = FlClient::new(
                g,
                DeviceProfile::trustzone(g),
                dataset.clone(),
                std::mem::take(&mut partition[g as usize]),
                prototype.replicate(),
                Box::new(PlainSgdTrainer),
            );
            if let Some(plan) = &adversaries {
                if let Some(persona) = plan.persona_of(g) {
                    client.set_adversary(Adversary {
                        persona,
                        plan: plan.clone(),
                        log: None,
                    });
                }
            }
            client
        })
        .collect();
    // Wired exactly as an in-process fleet is, fault wrapper included.
    let (remotes, _) = wire_fleet(
        fleet,
        TransportKind::InProcess,
        &MuxOptions::default(),
        faults.as_ref(),
        codec,
    )?;
    Ok(ShardState {
        remotes,
        engine: ExecutionEngine::new(config.workers as usize),
        faults,
    })
}

/// Executes one round request on the shard's engine and repackages the
/// outcomes at their *global* slots: completed updates into the
/// [`PartialAggregate`], stragglers/failures into the tagged overflow
/// list, the shard ledger as-is.
fn run_shard_round(state: &mut ShardState, round: &ShardRound) -> Result<ShardRoundReply> {
    let picks: Vec<usize> = round.picks.iter().map(|&p| p as usize).collect();
    let (outcomes, ledger) = state.engine.execute_cycles_with(
        &mut state.remotes,
        &picks,
        &round.download,
        state.faults.as_deref(),
    )?;
    let mut partial = PartialAggregate::new();
    let mut others = Vec::new();
    for (j, outcome) in outcomes.into_iter().enumerate() {
        let slot = round.slot_base as usize + j;
        match outcome {
            ClientOutcome::Completed(upload) => partial.push(slot, upload),
            ClientOutcome::Straggler { client, elapsed_s } => others.push(ShardOutcome {
                slot: slot as u64,
                client,
                kind: ShardOutcomeKind::Straggler { elapsed_s },
            }),
            ClientOutcome::Failed { client, error } => others.push(ShardOutcome {
                slot: slot as u64,
                client,
                kind: ShardOutcomeKind::Failed {
                    reason: error.to_string(),
                },
            }),
        }
    }
    Ok(ShardRoundReply {
        partial,
        others,
        ledger,
    })
}
