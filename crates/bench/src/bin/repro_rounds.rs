//! Runs a small protected federation and exports every round's report —
//! participants, mean loss, protected layers and the TEE ledger — as JSON
//! (`target/rounds.json` plus stdout), demonstrating the per-round export
//! path repro pipelines consume. Then runs the **multiplexed-transport
//! gate**: kilo-session (and, under `GRADSEC_FULL=1`, ~10k-session)
//! loopback fleets where every `TransportKind::TcpMux` configuration —
//! (1,2,4 workers) × (1,4 shards), plus a fixed-fault-seed run — must be
//! bit-identical to the flat in-process reference and to threaded TCP,
//! and the mux round must not fall below threaded-TCP throughput at the
//! kilo-session tier. The gate table (wall clocks, `sessions_per_core`,
//! mux-vs-threaded ratio) is written to `target/transport_overhead.json`
//! — the same file the `transport_overhead` criterion bench writes for
//! local runs; in CI this gate's table is the one that ships as the
//! artifact (the repro_kernels/kernel_scaling precedent).
//!
//! A **codec gate** follows: the identity codec must keep the encoded
//! payload path bit-identical to the dense reference (including over the
//! mux transport), and the lossy codecs (`int8`, `delta-topk`) must
//! shrink the steady-state round's bytes at least 3× while their final
//! weights stay within pinned divergence bounds of the identity run.
//! Per-codec bytes-per-round and compression ratios are spliced into
//! `target/transport_overhead.json` as the `codecs` column.
//!
//! Exits non-zero when any mux configuration diverges from the
//! reference, when the faulted mux run diverges from faulted threaded
//! TCP, when the kilo-session mux round is slower than
//! `GRADSEC_MUX_SLACK` × the threaded round, or when a codec breaks
//! bit-identity, the byte bar or its error bound.
//!
//! Environment:
//!
//! * `GRADSEC_TRANSPORT=tcp|mux` — drive the export rounds over loopback
//!   TCP (threaded or multiplexed) instead of the in-process transport
//!   (the JSON is bit-identical any way).
//! * `GRADSEC_ROUNDS=n` — override the export round count (default 5).
//! * `GRADSEC_MUX_GATE=0` — skip the mux gate (export only).
//! * `GRADSEC_MUX_SESSIONS=1000,10000` — override the gate fleet sizes
//!   (each clamped to what `RLIMIT_NOFILE` can hold: two descriptors per
//!   loopback session plus headroom).
//! * `GRADSEC_MUX_SLACK=1.25` — throughput bar: the kilo-session mux
//!   round may take at most this multiple of the threaded round.
//!   Deliberately tolerant per push — shared CI runners compress
//!   relative timings; tighten locally to compare architectures.

use std::sync::Arc;
use std::time::Instant;

use gradsec_core::trainer::SecureTrainer;
use gradsec_core::ProtectionPolicy;
use gradsec_data::{SyntheticCifar100, SyntheticMicro};
use gradsec_fl::config::{TrainingPlan, TransportKind};
use gradsec_fl::runner::{Federation, FederationBuilder, FederationReport};
use gradsec_fl::transport::poller::{fd_soft_limit, raise_fd_soft_limit};
use gradsec_fl::{CodecKind, ExecutionEngine, FaultPlan, LatencyModel, MuxOptions};
use gradsec_nn::model::ModelWeights;
use gradsec_nn::zoo;
use gradsec_tee::cost::json_number;

const DIM: usize = 8;
const FAULT_SEED: u64 = 0xFA417;
const MUX_WORKERS: [usize; 3] = [1, 2, 4];
const MUX_SHARDS: [usize; 2] = [1, 4];

/// The codec gate's model width: wide enough that per-tensor metadata
/// (dims, scales, indices) cannot mask the 3× byte reduction the lossy
/// codecs must deliver.
const CODEC_DIM: usize = 32;
/// Rounds per codec-gate run: the delta codec's first exchange is dense
/// (no committed view yet), so the byte bar is measured on the *last*
/// round, in steady state.
const CODEC_ROUNDS: u64 = 3;
/// Byte bar: lossy codecs must shrink the last round's payload at least
/// this factor vs. the dense column.
const CODEC_MIN_RATIO: f64 = 3.0;
/// Pinned compression-error bounds: max |w - w_ref| between a lossy
/// run's final global weights and the identity reference, after
/// `CODEC_ROUNDS` seeded rounds. Deterministic per seed; bounds carry
/// ~2× slack over the observed divergence.
const INT8_MAX_DIVERGENCE: f32 = 0.02;
const TOPK_MAX_DIVERGENCE: f32 = 0.10;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn transport_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::InProcess => "in-process",
        TransportKind::Tcp => "loopback-TCP",
        TransportKind::TcpMux => "multiplexed-TCP",
    }
}

/// The per-round export demo (unchanged shape: LeNet-5, protected
/// layers, JSON to `target/rounds.json`).
fn export_rounds() {
    let transport = match std::env::var("GRADSEC_TRANSPORT").as_deref() {
        Ok("tcp") => TransportKind::Tcp,
        Ok("mux") => TransportKind::TcpMux,
        _ => TransportKind::InProcess,
    };
    let rounds = env_u64("GRADSEC_ROUNDS", 5);
    let data = Arc::new(SyntheticCifar100::with_classes(96, 2, 5));
    let policy = ProtectionPolicy::static_layers(&[1, 4]).expect("valid layer set");
    let mut fed = Federation::builder(TrainingPlan {
        rounds,
        clients_per_round: 3,
        batches_per_cycle: 2,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::lenet5_with(2, 13).expect("LeNet-5 builds"))
    .clients(4, data)
    .trainer(|_| Box::new(SecureTrainer::new()))
    .scheduler(policy)
    .transport(transport)
    .build()
    .expect("federation builds");
    eprintln!(
        "Running {rounds} protected rounds over the {} transport…",
        transport_name(transport)
    );
    let report = fed.run().expect("federation runs");
    fed.shutdown().expect("clean teardown");
    let json = report.to_json();
    write_json("rounds.json", &json);
    println!("{json}");
}

/// Gate fleet sizes: kilo-session per push, ~10k under `GRADSEC_FULL=1`,
/// each clamped to what the file-descriptor limit can hold (a loopback
/// session burns two descriptors — the mux socket and the server's
/// accepted end — plus headroom for listeners, stdio and the allocator).
fn gate_fleets() -> Vec<usize> {
    let requested: Vec<usize> = std::env::var("GRADSEC_MUX_SESSIONS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| {
            if gradsec_bench::Profile::from_env().is_full() {
                vec![1_000, 10_000]
            } else {
                vec![1_000]
            }
        });
    let cap = raise_fd_soft_limit()
        .or_else(fd_soft_limit)
        .map(|fds| (fds.saturating_sub(64) / 2) as usize)
        .unwrap_or(usize::MAX);
    requested
        .into_iter()
        .map(|n| {
            let clamped = n.min(cap).max(1);
            if clamped < n {
                eprintln!(
                    "clamping {n}-session tier to {clamped}: RLIMIT_NOFILE holds \
                     {cap} loopback sessions"
                );
            }
            clamped
        })
        .collect()
}

fn gate_builder(clients: usize) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(FAULT_SEED)
        .dropout(0.10)
        .drop_messages(0.05)
        .garble_replies(0.02)
        .latency(LatencyModel::Exponential { mean_s: 0.5 })
        .spare(24)
}

/// A faulted gate round selects a sub-cohort so the over-provisioned
/// selection has spares to promote when the seeded faults shed clients.
fn faulted_builder(clients: usize) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: 1,
        clients_per_round: (clients / 16).max(1),
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(DIM, 4, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .faults(fault_plan())
}

fn finish(mut fed: Federation, start: Instant) -> (FederationReport, ModelWeights, f64) {
    let report = fed.run().expect("gate round completes");
    let wall = start.elapsed().as_secs_f64();
    let weights = fed.server().global().clone();
    fed.shutdown().expect("clean teardown");
    (report, weights, wall)
}

fn run_flat(
    builder: FederationBuilder,
    transport: TransportKind,
    workers: usize,
) -> (FederationReport, ModelWeights, f64) {
    let start = Instant::now();
    let fed = builder
        .transport(transport)
        .engine(ExecutionEngine::new(workers))
        .build()
        .expect("gate fleet builds");
    finish(fed, start)
}

struct MuxRow {
    workers: usize,
    shards: usize,
    wall_s: f64,
    identical: bool,
}

/// One gate tier: reference + threaded TCP + the mux matrix + the
/// faulted pair. Returns the JSON row and whether everything held.
fn gate_tier(sessions: usize, slack: f64) -> (String, bool, bool) {
    eprintln!("{sessions}-session tier: flat in-process reference…");
    let (ref_report, ref_weights, inproc_wall) =
        run_flat(gate_builder(sessions), TransportKind::InProcess, 1);
    eprintln!("  in-process: {inproc_wall:.3}s; threaded TCP…");
    let (tcp_report, tcp_weights, tcp_wall) =
        run_flat(gate_builder(sessions), TransportKind::Tcp, 1);
    let tcp_identical = tcp_report == ref_report && tcp_weights == ref_weights;
    eprintln!(
        "  threaded TCP: {tcp_wall:.3}s ({})",
        verdict(tcp_identical)
    );

    let mut all_identical = tcp_identical;
    let mut rows: Vec<MuxRow> = Vec::new();
    for workers in MUX_WORKERS {
        for shards in MUX_SHARDS {
            let start = Instant::now();
            let mut fed = gate_builder(sessions)
                .transport(TransportKind::TcpMux)
                .shards(shards)
                .engine(ExecutionEngine::new(workers))
                .build()
                .expect("mux fleet builds");
            let report = fed.run().expect("mux round completes");
            let wall_s = start.elapsed().as_secs_f64();
            let identical = report == ref_report && fed.server().global() == &ref_weights;
            fed.shutdown().expect("clean mux teardown");
            all_identical &= identical;
            eprintln!(
                "  mux {workers} workers x {shards} shards: {wall_s:.3}s ({})",
                verdict(identical)
            );
            rows.push(MuxRow {
                workers,
                shards,
                wall_s,
                identical,
            });
        }
    }

    // Fixed fault seed: the faulted mux round must match the faulted
    // threaded round bit for bit (every fault decision is a pure
    // function of seed/client/message, never of who drives the socket).
    let (ftcp_report, ftcp_weights, _) = run_flat(faulted_builder(sessions), TransportKind::Tcp, 2);
    let (fmux_report, fmux_weights, _) =
        run_flat(faulted_builder(sessions), TransportKind::TcpMux, 2);
    let faulted_identical = fmux_report == ftcp_report && fmux_weights == ftcp_weights;
    all_identical &= faulted_identical;
    eprintln!("  faulted mux vs threaded: {}", verdict(faulted_identical));

    // Throughput bar: the flat 1-worker mux round vs its threaded twin.
    let mux_flat_wall = rows
        .iter()
        .find(|r| r.workers == 1 && r.shards == 1)
        .map(|r| r.wall_s)
        .unwrap_or(f64::INFINITY);
    let ratio = mux_flat_wall / tcp_wall;
    let throughput_ok = ratio <= slack;
    eprintln!(
        "  mux/threaded wall ratio: {ratio:.3} (bar {slack:.2}) ({})",
        if throughput_ok { "ok" } else { "TOO SLOW" }
    );

    let loops = MuxOptions::default().effective_loops();
    let mux_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"{{"workers":{},"shards":{},"wall_s":{},"identical":{}}}"#,
                r.workers,
                r.shards,
                json_number(r.wall_s),
                r.identical
            )
        })
        .collect();
    let row = format!(
        r#"{{"sessions":{sessions},"event_loops":{loops},"sessions_per_core":{},"inprocess_wall_s":{},"threaded_wall_s":{},"mux_flat_wall_s":{},"mux_vs_threaded":{},"threaded_identical":{tcp_identical},"faulted_identical":{faulted_identical},"mux":[{}]}}"#,
        sessions.div_ceil(loops),
        json_number(inproc_wall),
        json_number(tcp_wall),
        json_number(mux_flat_wall),
        json_number(ratio),
        mux_rows.join(",")
    );
    (row, all_identical, throughput_ok)
}

fn codec_builder(clients: usize, codec: CodecKind) -> FederationBuilder {
    let data = Arc::new(SyntheticMicro::new(2 * clients, 2, CODEC_DIM, 5));
    Federation::builder(TrainingPlan {
        rounds: CODEC_ROUNDS,
        clients_per_round: clients,
        batches_per_cycle: 1,
        batch_size: 2,
        learning_rate: 0.05,
        seed: 7,
    })
    .model(|| zoo::tiny_mlp(CODEC_DIM, 16, 2, 13).expect("tiny MLP builds"))
    .clients(clients, data)
    .codec(codec)
}

fn max_abs_diff(a: &ModelWeights, b: &ModelWeights) -> f32 {
    a.iter()
        .zip(b.iter())
        .flat_map(|(x, y)| {
            x.w.data()
                .iter()
                .zip(y.w.data())
                .chain(x.b.data().iter().zip(y.b.data()))
        })
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f32, f32::max)
}

/// The update-codec gate: identity stays bit-identical to the dense
/// reference across transports, and each lossy codec must shrink the
/// steady-state round by [`CODEC_MIN_RATIO`] while its final weights
/// stay within the pinned divergence bound. Returns the JSON rows and
/// whether every bar held.
fn codec_gate(sessions: usize) -> (String, bool) {
    eprintln!("codec gate ({sessions} clients, {CODEC_ROUNDS} rounds)…");
    let start = Instant::now();
    let (ref_report, ref_weights, _) = finish(
        codec_builder(sessions, CodecKind::Identity)
            .build()
            .expect("identity fleet builds"),
        start,
    );
    let ref_wire = ref_report
        .rounds
        .last()
        .expect("reference ran rounds")
        .ledger
        .total_wire();

    // Identity over the mux transport: the encoded path must keep the
    // byte-for-byte report/weight identity every other gate relies on.
    let start = Instant::now();
    let (mux_report, mux_weights, _) = finish(
        codec_builder(sessions, CodecKind::Identity)
            .transport(TransportKind::TcpMux)
            .build()
            .expect("identity mux fleet builds"),
        start,
    );
    let identity_identical = mux_report == ref_report
        && mux_weights == ref_weights
        && ref_wire.encoded_bytes() == ref_wire.raw_bytes();
    eprintln!("  identity over mux: {}", verdict(identity_identical));

    let mut ok = identity_identical;
    let mut rows = vec![format!(
        r#"{{"codec":"identity","last_round_encoded_bytes":{},"last_round_raw_bytes":{},"compression_ratio":{},"divergence":0,"ok":{identity_identical}}}"#,
        ref_wire.encoded_bytes(),
        ref_wire.raw_bytes(),
        json_number(ref_wire.compression_ratio()),
    )];
    for (codec, bound) in [
        (CodecKind::Int8, INT8_MAX_DIVERGENCE),
        (CodecKind::DeltaTopK, TOPK_MAX_DIVERGENCE),
    ] {
        let start = Instant::now();
        let (report, weights, _) = finish(
            codec_builder(sessions, codec)
                .build()
                .expect("lossy fleet builds"),
            start,
        );
        let wire = report
            .rounds
            .last()
            .expect("lossy run completed rounds")
            .ledger
            .total_wire();
        let ratio = wire.compression_ratio();
        let divergence = max_abs_diff(&weights, &ref_weights);
        let row_ok = report.rounds_completed == ref_report.rounds_completed
            && ratio >= CODEC_MIN_RATIO
            && divergence <= bound;
        ok &= row_ok;
        eprintln!(
            "  {}: last-round bytes {} vs {} dense ({ratio:.2}x, bar {CODEC_MIN_RATIO:.1}x), \
             divergence {divergence:.5} (bound {bound}) ({})",
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            if row_ok { "ok" } else { "FAILED" }
        );
        rows.push(format!(
            r#"{{"codec":"{}","last_round_encoded_bytes":{},"last_round_raw_bytes":{},"compression_ratio":{},"divergence":{},"ok":{row_ok}}}"#,
            codec.name(),
            wire.encoded_bytes(),
            wire.raw_bytes(),
            json_number(ratio),
            json_number(divergence as f64),
        ));
    }
    (rows.join(","), ok)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}

fn write_json(name: &str, json: &str) {
    let target = gradsec_bench::workspace_target();
    let path = target.join(name);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    export_rounds();
    if std::env::var("GRADSEC_MUX_GATE").as_deref() == Ok("0") {
        eprintln!("GRADSEC_MUX_GATE=0: skipping the multiplexed-transport gate");
        return;
    }
    let slack = std::env::var("GRADSEC_MUX_SLACK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.25_f64);
    let mut all_identical = true;
    let mut throughput_ok = true;
    let mut tiers = Vec::new();
    let fleets = gate_fleets();
    for &sessions in &fleets {
        let (row, identical, fast_enough) = gate_tier(sessions, slack);
        all_identical &= identical;
        // The throughput bar binds at the kilo-session tier and up;
        // tinier (fd-clamped) tiers still gate bit-identity.
        if sessions >= 1_000 {
            throughput_ok &= fast_enough;
        }
        tiers.push(row);
    }
    let (codec_rows, codec_ok) = codec_gate(fleets.first().copied().unwrap_or(1_000));
    let json = format!(
        r#"{{"source":"repro_rounds mux gate","slack":{},"all_bit_identical":{all_identical},"throughput_ok":{throughput_ok},"codec_gate_ok":{codec_ok},"codecs":[{codec_rows}],"fleets":[{}]}}"#,
        json_number(slack),
        tiers.join(",")
    );
    write_json("transport_overhead.json", &json);
    println!("{json}");
    if !all_identical {
        eprintln!("FAIL: a mux configuration diverged from the reference");
        std::process::exit(1);
    }
    if !throughput_ok {
        eprintln!("FAIL: the mux round fell below threaded-TCP throughput");
        std::process::exit(1);
    }
    if !codec_ok {
        eprintln!("FAIL: a codec broke bit-identity, the byte bar or its error bound");
        std::process::exit(1);
    }
}
