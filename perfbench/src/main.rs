//! The GradSec reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_lenet5 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one named workload against the library's public API, checks its
//! outputs, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is repeated with tracing wrappers around the library's traits and
//! the metrics are the per-layer split (see `README.md`). A failed check
//! makes the process exit non-zero.

mod dria;
mod fed;
mod trace;
mod util;
mod wrap;

use std::collections::BTreeMap;
use std::process::ExitCode;

use gradsec::tensor::backend::{Tiled, TiledIsa};

/// End-to-end metrics every `--trace 0` run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics every `--trace 1` run reports, with their units.
/// A layer a workload does not exercise reports 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("fl.select_s", "s"),
        ("fl.download_s", "s"),
        ("fl.execute_s", "s"),
        ("fl.aggregate_s", "s"),
        ("fl.commit_s", "s"),
        ("fl.exchange_overhead_s", "s"),
        ("fl.engine_idle_frac", "frac"),
        ("fl.codec.encode_s", "s"),
        ("fl.codec.decode_s", "s"),
        ("fl.codec.bytes", "bytes"),
        ("fl.wire.encode_s", "s"),
        ("fl.wire.decode_s", "s"),
        ("fl.wire_mib_per_round", "MiB"),
        ("core.cycle_s", "s"),
        ("core.cycle_self_s", "s"),
        ("tee.sim_cycle_s", "s"),
        ("tee.peak_mib", "MiB"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for l in 1..=wrap::MAX_LAYERS {
        m.push((format!("nn.L{l}.fwd_s"), "s"));
        m.push((format!("nn.L{l}.bwd_s"), "s"));
        m.push((format!("nn.L{l}.gflops"), "GFLOP/s"));
    }
    for (n, u) in [
        ("data.sample_s", "s"),
        ("attacks.dria.passes", "count"),
        ("attacks.dria.self_s", "s"),
        ("proc.cpu_util", "cores"),
        ("proc.peak_rss_mib", "MiB"),
        ("trace.overhead_frac", "frac"),
        ("bench.ops", "count"),
    ] {
        m.push((n.to_owned(), u));
    }
    m
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["train_lenet5", "train_alexnet", "fleet_1k", "dria_lenet5"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run found: its checks, counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}

/// The configuration every result is pinned to. The library reads
/// `GRADSEC_BACKEND` and `GRADSEC_CODEC` as builder defaults and `Tiled`
/// reads `GRADSEC_TILED_ISA`; the benchmark overrides all three (and also
/// passes backend and codec to the builder explicitly), so the caller's
/// environment cannot change what is measured.
fn pin_environment(codec: &str) {
    let isa = if TiledIsa::Avx2.available() {
        TiledIsa::Avx2
    } else {
        TiledIsa::Portable
    };
    std::env::set_var("GRADSEC_BACKEND", "tiled");
    std::env::set_var("GRADSEC_CODEC", codec);
    std::env::set_var("GRADSEC_TILED_ISA", isa.name());
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Writes the traced run's spans as Chrome trace-event JSON to
/// `perfbench/out/trace_<workload>_seed<seed>.json`.
pub fn write_trace(args: &Args, spans: &[trace::Span], ops: usize) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}_seed{}.json", args.workload, args.seed));
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"measured_ops\":{ops}}}",
        args.workload, args.seed
    );
    trace::write_chrome(&path, spans, 200_000, &meta)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "dria_lenet5" => dria::run(args),
        name => fed::run(&fed::spec(name), args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let codec = match args.workload.as_str() {
        "dria_lenet5" => "identity",
        name => fed::spec(name).codec.name(),
    };
    pin_environment(codec);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "{{\"config\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"backend\":\"tiled\",\"tiled_isa\":\"{}\",\"codec\":\"{}\",\
         \"transport\":\"in-process\",\"nproc\":{},\"rustc\":\"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Tiled::auto().isa().name(),
        codec,
        nproc,
        json_escape(env!("PERFBENCH_RUSTC")),
    );
    let host0 = util::host_ticks();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let (total, steal) = {
        let (t1, s1) = util::host_ticks();
        (t1.saturating_sub(host0.0), s1.saturating_sub(host0.1))
    };
    if total > 0 {
        // Time the hypervisor ran other guests slows every figure here.
        println!(
            "host steal during the run: {:.1}% of CPU time",
            100.0 * steal as f64 / total as f64
        );
    }
    for (name, ok, detail) in &outcome.checks {
        println!(
            "check {:<28} {} {}",
            name,
            if *ok { "ok  " } else { "FAIL" },
            detail
        );
    }
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut parts = Vec::with_capacity(expected.len());
    for (name, unit) in &expected {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        parts.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            value
        ));
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !expected.iter().any(|(n, _)| n == *k))
    {
        eprintln!("perfbench: internal error: unlisted metric {extra}");
        return ExitCode::from(1);
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: {} attempted no operation", args.workload);
        return ExitCode::from(1);
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        parts.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
