//! The `dria_lenet5` workload: deep-leakage-from-gradients reconstruction
//! of one CIFAR stand-in image from `lenet5_smooth`'s gradients, with
//! every gradient visible and with L2 sheltered by GradSec.
//!
//! Two attack streams run side by side, one thread each (one per core of
//! the 2-core reference host): one reconstructs with every gradient
//! visible, the other with L2 protected, each over and over on its own
//! copy of the model. How many model passes one reconstruction takes
//! depends on the seed (L-BFGS line searches: 1,800 to 4,600 passes), so
//! the timing metrics are per model pass, read from each stream's pass
//! clock in chunks of 64 passes within one reconstruction:
//! `latency_p50_s` is each stream's median seconds per pass over those
//! chunks, averaged over the two streams (their passes differ in cost,
//! so one median over both would jump between the two), and
//! `throughput_per_s` each stream's chunked passes over their time,
//! summed. Both streams stop once the first of them has ended, and only
//! chunks that ended before then count, so every figure is taken while
//! both streams run. In the untraced run the attacked models' layers are
//! wrapped with the recorder off, so that passes are counted. The traced
//! run alternates reconstructions on unwrapped models with the same ones
//! on wrapped models, recording; its spans split each reconstruction into
//! layer passes and the attack's own work (gradient differences, weight
//! perturbations and swaps).

use std::convert::Infallible;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use gradsec::attacks::dria::{run_dria, DriaConfig, DriaOptimizer, DriaOutcome};
use gradsec::data::{one_hot, Dataset, SyntheticCifar100};
use gradsec::nn::{zoo, BackendKind, Sequential};
use gradsec::tensor::Tensor;

use crate::util::{cpu_seconds, median, peak_rss_mib, SetupClock};
use crate::wrap::{self, traced_model};
use crate::{trace, Args, Outcome};

const ITERATIONS: usize = 600;
/// L-BFGS iterations of the untimed reconstruction each stream thread
/// starts with, to warm its scratch buffers and the allocator.
const WARMUP_ITERATIONS: usize = 10;
/// The protected set of each stream: everything visible, then L2
/// sheltered.
const STREAMS: [&[usize]; 2] = [&[], &[1]];
/// Image index of the target within the seeded dataset.
const TARGET: usize = 3;
/// Sheltering L2 must multiply the reconstruction's ImageLoss at least
/// this many times over the unprotected one (paper Fig. 5: the attack
/// succeeds unprotected and collapses with L2 in the enclave).
const PROTECTION_GAIN: f32 = 3.0;
/// The protected reconstruction must stay at least this far from the
/// target image.
const SHELTERED_LOSS: f32 = 5.0;

/// One attack stream: its own model copy, the victim's sample and the
/// layers sheltered from the attacker.
struct Attack {
    model: Sequential,
    /// Whether `model`'s layers are wrapped in [`wrap::TracedLayer`].
    wrapped: bool,
    target: Tensor,
    label: Tensor,
    cfg: DriaConfig,
    protected: &'static [usize],
}

/// Builds both streams' models and the victim's sample from the seed;
/// `wrapped` puts every layer in a [`wrap::TracedLayer`].
fn setup(seed: u64, wrapped: bool) -> Vec<Attack> {
    let ds = SyntheticCifar100::new(64, seed);
    let mut model = zoo::lenet5_smooth(seed.wrapping_add(1)).expect("LeNet-5 builds");
    model.set_backend(BackendKind::Tiled);
    let s = ds.sample(TARGET);
    let target = s.image.reshape(&[1, 3, 32, 32]).expect("image shape");
    let label = one_hot(&[s.label], ds.num_classes());
    STREAMS
        .iter()
        .map(|&protected| Attack {
            model: if wrapped {
                traced_model(&model)
            } else {
                model.replicate()
            },
            wrapped,
            target: target.clone(),
            label: label.clone(),
            cfg: DriaConfig {
                iterations: ITERATIONS,
                optimizer: DriaOptimizer::Lbfgs,
                seed,
                ..DriaConfig::default()
            },
            protected,
        })
        .collect()
}

/// One reconstruction: its outcome, wall time and model passes.
struct Attempt {
    result: Result<DriaOutcome, String>,
    secs: f64,
    end: Instant,
    passes: u64,
}

/// When the streams of one run end: every stream runs at least one
/// round of its turns; the first to end one after `seconds` stamps
/// `stop`, and the others end their current round.
struct Deadline {
    seconds: f64,
    stop: OnceLock<Instant>,
}

impl Deadline {
    fn new(seconds: f64) -> Self {
        Deadline {
            seconds,
            stop: OnceLock::new(),
        }
    }
}

/// Runs one stream's reconstructions, taking `turns` in turn, until
/// `deadline` says so, and stops early after a failed one. Every stream
/// first runs a short untimed reconstruction and waits at `ready` for the
/// others; the last to arrive runs `on_ready` before any starts. With
/// `setups`, the full set-up is sampled again between two
/// reconstructions.
fn drive(
    turns: &mut [&mut Attack],
    stream: u64,
    deadline: &Deadline,
    ready: &Barrier,
    on_ready: &(dyn Fn() + Sync),
    mut setups: Option<(&mut SetupClock, u64)>,
) -> Vec<Attempt> {
    let first = &mut turns[0];
    let warmup = DriaConfig {
        iterations: WARMUP_ITERATIONS,
        ..first.cfg
    };
    // Only its side effects on this thread matter; a failure would show
    // again in the timed reconstructions.
    let _ = run_dria(
        &mut first.model,
        &first.target,
        &first.label,
        first.protected,
        &warmup,
    );
    if ready.wait().is_leader() {
        on_ready();
    }
    ready.wait();
    let mut done: Vec<Attempt> = Vec::new();
    let start = Instant::now();
    loop {
        let op = done.len();
        let failed = done.last().is_some_and(|a| a.result.is_err());
        let round_done = op > 0 && op.is_multiple_of(turns.len());
        let finished = failed
            || round_done
                && (deadline.stop.get().is_some()
                    || start.elapsed().as_secs_f64() >= deadline.seconds);
        if finished {
            // The first stream to end stamps the stop; later ones leave it.
            let _ = deadline.stop.set(Instant::now());
            return done;
        }
        if let (Some((clock, seed)), Some(last)) = (setups.as_mut(), done.last()) {
            let seed = *seed;
            clock
                .resample(last.secs, || Ok::<_, Infallible>(setup(seed, true)))
                .unwrap_or_else(|e| match e {});
        }
        let attack = &mut turns[op % turns.len()];
        // Reconstruction `op` of stream `stream` is operation 2·op + stream.
        trace::set_thread_op(2 * op as u64 + stream);
        wrap::restart_chunk(stream);
        let passes0 = wrap::thread_passes();
        let t = Instant::now();
        let result = {
            let _s = attack.wrapped.then(|| trace::span("attacks.dria"));
            run_dria(
                &mut attack.model,
                &attack.target,
                &attack.label,
                attack.protected,
                &attack.cfg,
            )
        };
        let end = Instant::now();
        done.push(Attempt {
            result: result.map_err(|e| e.to_string()),
            secs: (end - t).as_secs_f64(),
            end,
            passes: wrap::thread_passes() - passes0,
        });
    }
}

/// Runs `work` once per stream, each on its own thread, with the
/// stream's index, and collects what each returns.
fn per_stream<A: Send, T: Send>(
    streams: Vec<A>,
    work: impl Fn(u64, A) -> T + Sync,
) -> Result<Vec<T>, String> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(i, a)| s.spawn(move || work(i as u64, a)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "an attack thread panicked".to_owned()))
            .collect()
    })
}

fn same_outcome(a: &Result<DriaOutcome, String>, b: &Result<DriaOutcome, String>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.image_loss.to_bits() == y.image_loss.to_bits()
                && x.final_objective.to_bits() == y.final_objective.to_bits()
                && x.reconstructed.dims() == y.reconstructed.dims()
                && x.reconstructed
                    .data()
                    .iter()
                    .zip(y.reconstructed.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// The attack's correctness checks, plus the attempted/failed counts.
fn check(streams: &[Vec<Attempt>], out: &mut Outcome) {
    for a in streams.iter().flatten() {
        out.attempted += 1;
        if let Err(e) = &a.result {
            out.failed += 1;
            eprintln!("reconstruction failed: {e}");
        }
    }
    let loss = |stream: usize| match streams[stream].first().map(|a| &a.result) {
        Some(Ok(o)) => o.image_loss,
        _ => f32::NAN,
    };
    let (leaked, sheltered) = (loss(0), loss(1));
    out.check(
        "dria_unprotected_leaks",
        leaked * PROTECTION_GAIN <= sheltered,
        format!(
            "ImageLoss {leaked:.4} unprotected vs {sheltered:.4} protected \
             (gain >= {PROTECTION_GAIN}; below 1: {})",
            leaked < 1.0
        ),
    );
    out.check(
        "dria_l2_protected_resists",
        sheltered > SHELTERED_LOSS,
        format!("ImageLoss {sheltered:.4} > {SHELTERED_LOSS}"),
    );
    // Every repeat of a reconstruction on the same seed reproduces the
    // stream's first bit for bit.
    let repeats = streams
        .iter()
        .all(|s| s.iter().all(|a| same_outcome(&a.result, &s[0].result)));
    out.check(
        "dria_repeats_bit_identical",
        repeats,
        format!(
            "{} reconstructions",
            streams.iter().map(Vec::len).sum::<usize>()
        ),
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ready = Barrier::new(STREAMS.len());
    if !args.trace {
        let mut setups = SetupClock::default();
        let mut attacks = setups
            .time(|| Ok::<_, Infallible>(setup(args.seed, true)))
            .unwrap_or_else(|e| match e {});
        let deadline = Deadline::new(args.seconds);
        let streams: Vec<_> = attacks
            .iter_mut()
            .map(|a| (a, SetupClock::default()))
            .collect();
        let runs = per_stream(streams, |i, (attack, mut clock)| {
            let done = drive(
                &mut [attack],
                i,
                &deadline,
                &ready,
                &|| {},
                Some((&mut clock, args.seed)),
            );
            (done, clock)
        })?;
        let done: Vec<Vec<Attempt>> = runs
            .into_iter()
            .map(|(done, clock)| {
                setups.absorb(clock);
                done
            })
            .collect();
        let stop = *deadline.stop.get().expect("every stream ended");
        let chunks = wrap::take_chunks(stop);
        check(&done, &mut out);
        for (stream, attempts) in done.iter().enumerate() {
            for a in attempts {
                println!(
                    "stream {stream} (protected {:?}): {:.3} s, {} passes",
                    STREAMS[stream], a.secs, a.passes
                );
            }
        }
        // Per stream: the median seconds per pass, and the chunked passes
        // over their time.
        let (medians, rates): (Vec<f64>, Vec<f64>) = (0..STREAMS.len() as u64)
            .map(|stream| {
                let mine: Vec<f64> = chunks
                    .iter()
                    .filter(|c| c.stream == stream)
                    .map(|c| c.secs_per_pass)
                    .collect();
                (median(&mine), mine.len() as f64 / mine.iter().sum::<f64>())
            })
            .unzip();
        for (stream, (m, r)) in medians.iter().zip(&rates).enumerate() {
            println!("stream {stream}: median {m:.6} s per pass, {r:.1} passes/s");
        }
        let (setup_s, setup_n) = setups.median();
        println!(
            "pass clock: {} chunks of {} passes before the first stream ended",
            chunks.len(),
            wrap::CHUNK_PASSES
        );
        println!("set-up: median {setup_s:.6} s over {setup_n} builds");
        if rates.iter().any(|r| !r.is_finite()) {
            return Err("a stream made no whole chunk of passes before the first ended".to_owned());
        }
        out.metric("setup_s", setup_s);
        out.metric(
            "latency_p50_s",
            medians.iter().sum::<f64>() / medians.len() as f64,
        );
        out.metric("throughput_per_s", rates.iter().sum());
        return Ok(out);
    }
    // Each stream alternates an untraced reconstruction on unwrapped
    // models with the same one on wrapped models, recorded, so that both
    // kinds meet the same host and allocator state.
    let mut plain_attacks = setup(args.seed, false);
    let mut attacks = setup(args.seed, true);
    let deadline = Deadline::new(args.seconds);
    let cpu0 = cpu_seconds();
    let wall0 = Instant::now();
    let streams: Vec<_> = plain_attacks.iter_mut().zip(attacks.iter_mut()).collect();
    let runs = per_stream(streams, |i, (plain, traced)| {
        let on_ready = || trace::set_enabled(true);
        drive(&mut [plain, traced], i, &deadline, &ready, &on_ready, None)
    });
    trace::set_enabled(false);
    let cpu_util = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    wrap::take_chunks(Instant::now());
    // Even turns ran unwrapped, odd ones wrapped.
    let (plain, traced): (Vec<Vec<Attempt>>, Vec<Vec<Attempt>>) = runs?
        .into_iter()
        .map(|done| {
            let (plain, traced): (Vec<_>, Vec<_>) =
                done.into_iter().enumerate().partition(|(k, _)| k % 2 == 0);
            let strip = |v: Vec<(usize, Attempt)>| v.into_iter().map(|(_, a)| a).collect();
            (strip(plain), strip(traced))
        })
        .unzip();
    check(&traced, &mut out);
    let same = plain.iter().zip(&traced).all(|(p, t)| {
        p.len() == t.len()
            && p.iter()
                .zip(t)
                .all(|(a, b)| same_outcome(&a.result, &b.result))
    });
    let ops: usize = traced.iter().map(Vec::len).sum();
    out.check(
        "traced_bit_identical",
        same,
        format!("{ops} reconstructions"),
    );
    let (spans, _) = trace::take();
    let self_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "attacks.dria")
        .map(|s| s.self_ns() as f64 / 1e9)
        .collect();
    out.metric("attacks.dria.self_s", median(&self_s));
    let passes: Vec<f64> = traced.iter().flatten().map(|a| a.passes as f64).collect();
    out.metric("attacks.dria.passes", median(&passes));
    wrap::layer_metrics(spans.iter(), ops.max(1) as f64, &mut out);
    out.metric("proc.cpu_util", cpu_util);
    out.metric("proc.peak_rss_mib", rss);
    out.metric("bench.ops", ops as f64);
    // Only pairs that ended before the first stream stopped: a stream
    // running alone after that runs faster.
    let stop = *deadline.stop.get().expect("every stream ended");
    let (plain_s, traced_s) = plain
        .iter()
        .zip(&traced)
        .flat_map(|(p, t)| p.iter().zip(t))
        .filter(|(_, t)| t.end <= stop)
        .fold((0.0, 0.0), |(p, t), (a, b)| (p + a.secs, t + b.secs));
    out.metric("trace.overhead_frac", traced_s / plain_s - 1.0);
    crate::write_trace(args, &spans, ops)?;
    Ok(out)
}
