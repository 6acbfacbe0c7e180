//! The federated workloads: `train_lenet5`, `train_alexnet` and `fleet_1k`.
//!
//! The untraced run drives `Federation::run_round`, the path a user of the
//! library takes. The traced run assembles the same fleet by hand from the
//! library's public pieces, wraps the model's layers, the trainer and the
//! dataset, and drives each round through the public calls `run_round`
//! makes (`FlServer::select`, `FlServer::download`,
//! `ExecutionEngine::execute_cycles_with`, `PartialAggregate::finish_with`,
//! `FlServer::commit`), timing each one. Both runs must end on
//! bit-identical weights.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gradsec::core::trainer::{estimate_cycle, SecureTrainer};
use gradsec::core::window::MovingWindow;
use gradsec::core::ProtectionPolicy;
use gradsec::data::{split, Dataset, SyntheticCifar100, SyntheticMicro};
use gradsec::fl::aggregate::PartialAggregate;
use gradsec::fl::client::{DeviceProfile, FlClient};
use gradsec::fl::codec::{decode_weights, encode_weights};
use gradsec::fl::config::TrainingPlan;
use gradsec::fl::runner::{Federation, RoundReport};
use gradsec::fl::server::FlServer;
use gradsec::fl::transport::inprocess::LocalEndpoint;
use gradsec::fl::{
    message, Aggregator, ClientOutcome, CodecKind, ExecutionEngine, FlError, PartitionKind,
    ProtectionScheduler, RemoteClient, TransportKind,
};
use gradsec::nn::model::ModelWeights;
use gradsec::nn::{zoo, BackendKind, Sequential};
use gradsec::tee::attestation::Measurement;
use gradsec::tee::cost::CostModel;
use gradsec::tee::crypto::sha256::sha256;
use gradsec::tee::memory::DEFAULT_BUDGET;

use crate::util::{cpu_seconds, median, peak_rss_mib, same_bits, SetupClock};
use crate::wrap::{self, traced_model, TracedDataset, TracedTrainer};
use crate::{trace, Args, Outcome};

const MIB: f64 = 1024.0 * 1024.0;
/// Engine workers of every federated workload: one per core of the
/// 2-core reference host, and no more threads than `nproc` there.
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// LeNet-5 over the 100-class CIFAR stand-in.
    Lenet5,
    /// AlexNet over the 100-class CIFAR stand-in.
    Alexnet,
    /// `tiny_mlp(64, 64, 10)` over a 64-dimensional 10-class dataset.
    TinyMlp,
}

impl ModelKind {
    fn build(self, seed: u64) -> Sequential {
        match self {
            ModelKind::Lenet5 => zoo::lenet5(seed),
            ModelKind::Alexnet => zoo::alexnet(seed),
            ModelKind::TinyMlp => zoo::tiny_mlp(64, 64, 10, seed),
        }
        .expect("zoo models build")
    }

    fn dataset(self, len: usize, seed: u64) -> Arc<dyn Dataset> {
        match self {
            ModelKind::Lenet5 | ModelKind::Alexnet => Arc::new(SyntheticCifar100::new(len, seed)),
            ModelKind::TinyMlp => Arc::new(SyntheticMicro::new(len, 10, 64, seed)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Static GradSec over a fixed layer set.
    Static(&'static [usize]),
    /// Dynamic GradSec: a uniform moving window of this many layers.
    Window(usize),
}

/// What throughput counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Committed training samples.
    Samples,
    /// Completed client exchanges.
    Exchanges,
}

/// One federated workload, every knob explicit.
#[derive(Debug, Clone, Copy)]
pub struct FedSpec {
    model: ModelKind,
    clients: usize,
    per_round: usize,
    batches: usize,
    batch_size: usize,
    learning_rate: f32,
    pub codec: CodecKind,
    policy: PolicyKind,
    work: Work,
    /// Measured rounds at least, whatever `--seconds` says; also the
    /// fixed point after which peak RSS is read.
    min_rounds: usize,
    /// Rounds the determinism replay re-runs (two where the codec's first
    /// exchange is dense and the second a delta).
    replay_rounds: usize,
}

pub fn spec(name: &str) -> FedSpec {
    match name {
        "train_lenet5" => FedSpec {
            model: ModelKind::Lenet5,
            clients: 16,
            per_round: 8,
            batches: 10,
            batch_size: 32,
            learning_rate: 0.05,
            codec: CodecKind::Identity,
            policy: PolicyKind::Static(&[1, 4]),
            work: Work::Samples,
            min_rounds: 3,
            replay_rounds: 1,
        },
        "train_alexnet" => FedSpec {
            model: ModelKind::Alexnet,
            clients: 4,
            per_round: 2,
            batches: 4,
            // {L2} at batch 32 needs 4.35 MB of enclave: over the 4 MiB budget.
            batch_size: 16,
            learning_rate: 0.05,
            codec: CodecKind::Identity,
            policy: PolicyKind::Static(&[1]),
            work: Work::Samples,
            min_rounds: 3,
            replay_rounds: 1,
        },
        "fleet_1k" => FedSpec {
            model: ModelKind::TinyMlp,
            clients: 1000,
            per_round: 1000,
            batches: 1,
            batch_size: 16,
            learning_rate: 0.1,
            codec: CodecKind::DeltaTopK,
            policy: PolicyKind::Window(1),
            work: Work::Exchanges,
            min_rounds: 20,
            replay_rounds: 2,
        },
        other => unreachable!("not a federated workload: {other}"),
    }
}

impl FedSpec {
    fn plan(&self, seed: u64) -> TrainingPlan {
        TrainingPlan {
            rounds: u64::MAX,
            clients_per_round: self.per_round,
            batches_per_cycle: self.batches,
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            seed: seed.wrapping_add(2),
        }
    }

    fn dataset(&self, seed: u64) -> Arc<dyn Dataset> {
        self.model
            .dataset(self.clients * self.batches * self.batch_size, seed)
    }

    fn policy(&self, seed: u64) -> ProtectionPolicy {
        match self.policy {
            PolicyKind::Static(layers) => {
                ProtectionPolicy::static_layers(layers).expect("static layer set is valid")
            }
            PolicyKind::Window(size) => {
                let depth = self.model.build(0).num_layers();
                ProtectionPolicy::dynamic(
                    MovingWindow::uniform(size, depth, seed.wrapping_add(3))
                        .expect("window fits the model"),
                )
            }
        }
    }

    fn trainer(&self) -> SecureTrainer {
        SecureTrainer::new()
            .with_cost_model(CostModel::raspberry_pi3())
            .with_budget(DEFAULT_BUDGET)
    }

    /// Builds the federation the untraced run measures.
    fn federation(&self, seed: u64) -> Result<Federation, FlError> {
        let spec = *self;
        Federation::builder(self.plan(seed))
            .model(move || spec.model.build(seed.wrapping_add(1)))
            .clients(self.clients, self.dataset(seed))
            .trainer(move |_| Box::new(spec.trainer()))
            .scheduler(self.policy(seed))
            .engine(ExecutionEngine::new(WORKERS))
            .backend(BackendKind::Tiled)
            .codec(self.codec)
            .transport(TransportKind::InProcess)
            .aggregator(Aggregator::FedAvg)
            .partition(PartitionKind::Iid)
            .build()
    }
}

/// The measurement the federation builder whitelists by default.
fn genuine_ta() -> Measurement {
    Measurement(sha256(b"gradsec-ta-code-v1"))
}

/// The same fleet `FederationBuilder::build` assembles for the spec, put
/// together by hand with tracing wrappers in place.
struct TracedFleet {
    server: FlServer,
    clients: Vec<RemoteClient>,
    scheduler: ProtectionPolicy,
    engine: ExecutionEngine,
}

impl TracedFleet {
    fn build(spec: &FedSpec, seed: u64) -> Result<Self, FlError> {
        let plan = spec.plan(seed);
        let data: Arc<dyn Dataset> = Arc::new(TracedDataset::new(spec.dataset(seed)));
        let mut prototype = traced_model(&spec.model.build(seed.wrapping_add(1)));
        prototype.set_backend(BackendKind::Tiled);
        let clients = split::shard(data.len(), spec.clients, plan.seed)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let id = i as u64;
                let client = FlClient::new(
                    id,
                    DeviceProfile::trustzone(id),
                    data.clone(),
                    shard,
                    prototype.replicate(),
                    Box::new(TracedTrainer::new(Box::new(spec.trainer()), id)),
                );
                RemoteClient::connect_with(Box::new(LocalEndpoint::new(client)), spec.codec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TracedFleet {
            server: FlServer::new(plan, prototype.weights(), genuine_ta())?,
            clients,
            scheduler: spec.policy(seed),
            engine: ExecutionEngine::new(WORKERS),
        })
    }

    /// One round, as `Federation::run_round` runs it without a fault plan,
    /// with every phase a span.
    fn round(&mut self) -> Result<RoundReport, FlError> {
        let _round = trace::span("fl.round");
        let round = self.server.round();
        let picked = {
            let _s = trace::span("fl.select");
            self.server.select(&mut self.clients)?
        };
        let n_layers = self.server.global().num_layers();
        let mut protected = self.scheduler.layers_for_round(round);
        protected.retain(|&l| l < n_layers);
        let download = {
            let _s = trace::span("fl.download");
            self.server.download(protected.clone())
        };
        let (outcomes, ledger) = {
            let s = trace::span("fl.execute");
            let _workers = trace::cross_parent(s.id());
            self.engine
                .execute_cycles_with(&mut self.clients, &picked, &download, None)?
        };
        let mut agg = PartialAggregate::new();
        let mut participants = Vec::new();
        for (slot, (outcome, &ci)) in outcomes.into_iter().zip(picked.iter()).enumerate() {
            match outcome {
                ClientOutcome::Completed(upload) => {
                    agg.push(slot, upload);
                    participants.push(ci);
                }
                ClientOutcome::Failed { error, .. } => return Err(error),
                ClientOutcome::Straggler { client, .. } => {
                    return Err(FlError::ClientFailure {
                        client,
                        reason: "straggled without a fault plan".to_owned(),
                    })
                }
            }
        }
        let outcome = {
            let _s = trace::span("fl.aggregate");
            agg.finish_with(Aggregator::FedAvg, Some(self.server.global()))?
        };
        self.server.note_round_outcomes(&participants, &[]);
        {
            let _s = trace::span("fl.commit");
            self.server.commit(outcome.weights);
        }
        Ok(RoundReport {
            round,
            participants,
            surplus: Vec::new(),
            stragglers: Vec::new(),
            failures: Vec::new(),
            mean_loss: outcome.mean_loss,
            protected_layers: protected,
            ledger,
        })
    }
}

impl Drop for TracedFleet {
    fn drop(&mut self) {
        for client in &mut self.clients {
            let _ = client.goodbye();
        }
    }
}

/// Every round a run drove: its result and wall time.
#[derive(Default)]
struct RoundLog {
    rounds: Vec<(Result<RoundReport, String>, f64)>,
}

impl RoundLog {
    fn push(&mut self, result: Result<RoundReport, FlError>, secs: f64) {
        self.rounds.push((result.map_err(|e| e.to_string()), secs));
    }

    /// Rounds after the warm-up round.
    fn measured(&self) -> &[(Result<RoundReport, String>, f64)] {
        &self.rounds[1.min(self.rounds.len())..]
    }

    fn measured_times(&self) -> Vec<f64> {
        self.measured().iter().map(|(_, s)| *s).collect()
    }

    fn measured_secs(&self) -> f64 {
        self.measured().iter().map(|(_, s)| s).sum()
    }

    fn reports(&self) -> impl Iterator<Item = &RoundReport> {
        self.rounds.iter().filter_map(|(r, _)| r.as_ref().ok())
    }
}

/// Drives `round` once as warm-up, then until at least `min_rounds`
/// rounds and `seconds` of round time are measured, or until a round
/// fails. `after_min` runs once, right after the `min_rounds`-th measured
/// round; `between` runs between two rounds with the earlier one's wall
/// time, outside every round's timing.
fn drive(
    mut round: impl FnMut() -> Result<RoundReport, FlError>,
    seconds: f64,
    min_rounds: usize,
    mut after_min: impl FnMut(),
    mut between: impl FnMut(f64),
) -> RoundLog {
    let mut log = RoundLog::default();
    loop {
        let t = Instant::now();
        let r = round();
        let failed = r.is_err();
        let secs = t.elapsed().as_secs_f64();
        log.push(r, secs);
        if failed {
            return log;
        }
        let measured = log.rounds.len() - 1;
        if measured == min_rounds {
            after_min();
        }
        if measured >= min_rounds && log.measured_secs() >= seconds {
            return log;
        }
        between(secs);
    }
}

pub fn run(spec: &FedSpec, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    }
}

fn run_untraced(spec: &FedSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupClock::default();
    let mut fed = setups
        .time(|| spec.federation(args.seed))
        .map_err(|e| e.to_string())?;
    let mut rss = 0.0;
    let mut resampled = Ok(());
    let log = drive(
        || fed.run_round(),
        args.seconds,
        spec.min_rounds,
        || rss = peak_rss_mib(),
        |busy| {
            if resampled.is_ok() {
                resampled = setups.resample(busy, || spec.federation(args.seed));
            }
        },
    );
    resampled.map_err(|e| format!("set-up between rounds: {e}"))?;
    check_rounds(spec, &log, &mut out);
    // Determinism: a second federation on the same seed must replay the
    // first rounds bit for bit.
    let k = spec.replay_rounds.min(log.rounds.len());
    let expected = fed.server().history().snapshot(k).cloned();
    drop(fed);
    let mut replay = spec.federation(args.seed).map_err(|e| e.to_string())?;
    let mut same = true;
    for (r, _) in &log.rounds[..k] {
        let again = replay.run_round().map_err(|e| e.to_string());
        same &= again == *r;
    }
    let weights_same = expected.is_some_and(|w| same_bits(&w, replay.server().global()));
    out.check(
        "replay_bit_identical",
        same && weights_same,
        format!(
            "{k} round(s) replayed on a fresh federation: reports {same}, weights {weights_same}"
        ),
    );
    let measured = log.measured();
    let secs = log.measured_times();
    // All committed work over all round time: unlike the median latency,
    // every slow round counts in full.
    let work: usize = measured
        .iter()
        .filter_map(|(r, _)| r.as_ref().ok())
        .map(|r| match spec.work {
            Work::Samples => r.participants.len() * spec.batches * spec.batch_size,
            Work::Exchanges => r.participants.len(),
        })
        .sum();
    let (setup_s, setup_n) = setups.median();
    println!(
        "rounds measured: {} (+1 warm-up), {:.3} s of round time: {:.3?}",
        measured.len(),
        log.measured_secs(),
        secs
    );
    println!("set-up: median {setup_s:.6} s over {setup_n} builds");
    println!(
        "peak RSS: {rss:.1} MiB after {} rounds, {:.1} MiB at exit",
        spec.min_rounds + 1,
        peak_rss_mib()
    );
    out.metric("setup_s", setup_s);
    out.metric("latency_p50_s", median(&secs));
    out.metric("throughput_per_s", work as f64 / log.measured_secs());
    Ok(out)
}

/// The correctness checks every federated run makes, plus the
/// attempted/failed counts.
fn check_rounds(spec: &FedSpec, log: &RoundLog, out: &mut Outcome) {
    let mut committed = true;
    for (r, _) in &log.rounds {
        out.attempted += spec.per_round as u64;
        match r {
            Ok(rep) => {
                let shed = rep.stragglers.len() + rep.failures.len();
                out.failed += shed as u64;
                committed &= rep.participants.len() == spec.per_round
                    && rep.surplus.is_empty()
                    && shed == 0
                    && rep.ledger.len() == spec.per_round;
            }
            Err(e) => {
                out.failed += spec.per_round as u64;
                committed = false;
                eprintln!("round failed: {e}");
            }
        }
    }
    out.check(
        "every_round_commits",
        committed,
        format!("{} rounds of {} clients", log.rounds.len(), spec.per_round),
    );
    let losses: Vec<f32> = log.reports().map(|r| r.mean_loss).collect();
    let finite = !losses.is_empty() && losses.iter().all(|l| l.is_finite());
    let (first, last) = (
        losses.first().copied().unwrap_or(f32::NAN),
        losses.last().copied().unwrap_or(f32::NAN),
    );
    out.check(
        "loss_finite_and_falls",
        finite && last < first,
        format!("first {first:.5}, last {last:.5}"),
    );
    // The ledger's simulated bill must equal the analytical estimate.
    let model = spec.model.build(0);
    let cost = CostModel::raspberry_pi3();
    let mut estimates = BTreeMap::new();
    let mut billed = true;
    let mut worst = 0.0f64;
    let mut peak_mismatch = None;
    for rep in log.reports() {
        let (time, peak) = *estimates
            .entry(rep.protected_layers.clone())
            .or_insert_with(|| {
                estimate_cycle(
                    &model,
                    &rep.protected_layers,
                    spec.batches,
                    spec.batch_size,
                    &cost,
                )
                .expect("protected layers lie inside the model")
            });
        for e in rep.ledger.entries() {
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
            let err = rel(e.time.user_s, time.user_s)
                .max(rel(e.time.kernel_s, time.kernel_s))
                .max(rel(e.time.alloc_s, time.alloc_s));
            worst = worst.max(err);
            billed &= err <= 1e-9 && e.tee_peak_bytes == peak;
            if e.tee_peak_bytes != peak && peak_mismatch.is_none() {
                peak_mismatch = Some((rep.round, e.tee_peak_bytes, peak));
            }
        }
    }
    let peaks = match peak_mismatch {
        None => "TEE peaks equal".to_owned(),
        Some((round, got, want)) => {
            format!("round {round} billed a TEE peak of {got} B, estimated {want} B")
        }
    };
    out.check(
        "ledger_matches_estimate",
        billed,
        format!("worst relative time error {worst:.2e}; {peaks}"),
    );
}

fn run_traced(spec: &FedSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Untraced reference over half the time budget.
    let mut fed = spec.federation(args.seed).map_err(|e| e.to_string())?;
    let cpu0 = cpu_seconds();
    let wall0 = Instant::now();
    let mut rss = 0.0;
    let plain = drive(
        || fed.run_round(),
        args.seconds / 2.0,
        spec.min_rounds,
        || rss = peak_rss_mib(),
        |_| {},
    );
    let cpu_util = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let plain_weights = fed.server().global().clone();
    drop(fed);
    // The same rounds again, traced.
    let mut fleet = TracedFleet::build(spec, args.seed).map_err(|e| e.to_string())?;
    trace::set_enabled(true);
    let mut traced = RoundLog::default();
    let mut previous: Option<ModelWeights> = None;
    let mut probes = Ok(());
    for op in 0..plain.rounds.len() as u64 {
        trace::set_op(op);
        let global = fleet.server.global().clone();
        let t = Instant::now();
        let r = fleet.round();
        traced.push(r, t.elapsed().as_secs_f64());
        if op > 0 && probes.is_ok() {
            probes = probe_codecs(spec.codec, op, &global, previous.as_ref());
        }
        if spec.codec == CodecKind::DeltaTopK {
            previous = Some(global);
        }
    }
    trace::set_enabled(false);
    check_rounds(spec, &traced, &mut out);
    out.check(
        "codec_probes_decode",
        probes.is_ok(),
        probes.map_or_else(|e| e.to_string(), |()| "every probe decoded".to_owned()),
    );
    let same_reports = plain
        .rounds
        .iter()
        .zip(&traced.rounds)
        .all(|((a, _), (b, _))| a == b);
    let same_weights = same_bits(&plain_weights, fleet.server.global());
    out.check(
        "traced_bit_identical",
        same_reports && same_weights,
        format!(
            "{} rounds: reports {same_reports}, weights {same_weights}",
            traced.rounds.len()
        ),
    );
    let (spans, leaves) = trace::take();
    let ops = traced.rounds.len() as u64 - 1;
    per_layer(spec, &traced, &spans, &leaves, &mut out);
    out.metric("proc.cpu_util", cpu_util);
    out.metric("proc.peak_rss_mib", rss);
    out.metric("bench.ops", ops as f64);
    let untraced = median(&plain.measured_times());
    let traced_p50 = median(&traced.measured_times());
    out.metric("trace.overhead_frac", traced_p50 / untraced - 1.0);
    crate::write_trace(args, &spans, ops as usize)?;
    Ok(out)
}

/// Times the codec and wire encodings of one round's global model.
fn probe_codecs(
    codec: CodecKind,
    op: u64,
    global: &ModelWeights,
    previous: Option<&ModelWeights>,
) -> Result<(), FlError> {
    let reference = previous.map(|w| (op - 1, w));
    let enc = {
        let s = trace::span("fl.codec.encode");
        let enc = encode_weights(codec, op, global, reference);
        s.amount(enc.wire_bytes() as f64);
        enc
    };
    {
        let _s = trace::span("fl.codec.decode");
        std::hint::black_box(decode_weights(&enc, previous)?);
    }
    let bytes = {
        let s = trace::span("fl.wire.encode");
        let bytes = message::encode(global);
        s.amount(bytes.len() as f64);
        bytes
    };
    let _s = trace::span("fl.wire.decode");
    let back: ModelWeights = message::decode(&bytes)?;
    std::hint::black_box(back);
    Ok(())
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

fn per_layer(
    spec: &FedSpec,
    log: &RoundLog,
    spans: &[trace::Span],
    leaves: &BTreeMap<(&'static str, u64), trace::Leaf>,
    out: &mut Outcome,
) {
    let measured = |s: &&trace::Span| s.op >= 1;
    let rounds = log.measured().len().max(1) as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_round_median = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(measured)
            .filter(|s| s.name == name)
            .map(|s| secs(s.dur_ns()))
            .collect();
        median(&v)
    };
    for (metric, span) in [
        ("fl.select_s", "fl.select"),
        ("fl.download_s", "fl.download"),
        ("fl.execute_s", "fl.execute"),
        ("fl.aggregate_s", "fl.aggregate"),
        ("fl.commit_s", "fl.commit"),
        ("fl.codec.encode_s", "fl.codec.encode"),
        ("fl.codec.decode_s", "fl.codec.decode"),
        ("fl.wire.encode_s", "fl.wire.encode"),
        ("fl.wire.decode_s", "fl.wire.decode"),
    ] {
        out.metric(metric, per_round_median(span));
    }
    let codec_bytes: Vec<f64> = spans
        .iter()
        .filter(measured)
        .filter(|s| s.name == "fl.codec.encode")
        .map(|s| s.amount)
        .collect();
    out.metric("fl.codec.bytes", median(&codec_bytes));
    // Exchange overhead and engine idleness, per execute span.
    let mut overhead = Vec::new();
    let (mut busy_ns, mut capacity_ns) = (0u64, 0u64);
    let cycles: Vec<&trace::Span> = spans
        .iter()
        .filter(measured)
        .filter(|s| s.name == wrap::CYCLE)
        .collect();
    let workers = WORKERS.min(spec.per_round) as u64;
    for exec in spans
        .iter()
        .filter(measured)
        .filter(|s| s.name == "fl.execute")
    {
        let mine: Vec<(u64, u64)> = cycles
            .iter()
            .filter(|c| c.parent == exec.id)
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        busy_ns += mine.iter().map(|(s, e)| e - s).sum::<u64>();
        capacity_ns += workers * exec.dur_ns();
        let covered = covered_ns(mine, exec.start_ns, exec.end_ns);
        overhead.push(secs(exec.dur_ns().saturating_sub(covered)));
    }
    out.metric("fl.exchange_overhead_s", median(&overhead));
    out.metric(
        "fl.engine_idle_frac",
        1.0 - busy_ns as f64 / capacity_ns.max(1) as f64,
    );
    let cycle_s: Vec<f64> = cycles.iter().map(|c| secs(c.dur_ns())).collect();
    let cycle_self: Vec<f64> = cycles.iter().map(|c| secs(c.self_ns())).collect();
    out.metric("core.cycle_s", median(&cycle_s));
    out.metric("core.cycle_self_s", median(&cycle_self));
    wrap::layer_metrics(spans.iter().filter(measured), rounds, out);
    let sample_ns: u64 = leaves
        .iter()
        .filter(|((name, op), _)| *name == wrap::SAMPLE && *op >= 1)
        .map(|(_, l)| l.total_ns)
        .sum();
    out.metric("data.sample_s", secs(sample_ns) / rounds);
    // The simulated TEE bill of the same cycles, from the ledgers.
    let mut sim = Vec::new();
    let mut peak = 0usize;
    let mut wire = Vec::new();
    for (r, _) in log.measured() {
        if let Ok(rep) = r {
            sim.extend(rep.ledger.entries().iter().map(|e| e.time.total_s()));
            peak = peak.max(rep.ledger.max_tee_peak_bytes());
            wire.push(rep.ledger.total_wire().encoded_bytes() as f64 / MIB);
        }
    }
    out.metric("tee.sim_cycle_s", median(&sim));
    out.metric("tee.peak_mib", peak as f64 / MIB);
    out.metric("fl.wire_mib_per_round", median(&wire));
}
