//! Statistics and `/proc` readers.

use std::time::{Duration, Instant};

/// The median of `xs` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn proc_file(name: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{name}")).unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    proc_file("status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds of the whole process so far, every thread
/// included (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = proc_file("stat");
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so fields 14/15 sit at 11/12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The host's CPU time so far, all CPUs summed, and the part of it the
/// hypervisor gave to other guests (`/proc/stat`: the first `cpu` line,
/// in ticks; `steal` is its eighth field). Zeros where `/proc` is absent.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // Fields 9 and 10 (guest time) are already counted in user time.
    let total = ticks.iter().take(8).sum();
    (total, ticks.get(7).copied().unwrap_or(0))
}

/// Bitwise equality of two weight sets.
pub fn same_bits(
    a: &gradsec::nn::model::ModelWeights,
    b: &gradsec::nn::model::ModelWeights,
) -> bool {
    a.num_layers() == b.num_layers()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            let eq = |s: &gradsec::tensor::Tensor, t: &gradsec::tensor::Tensor| {
                s.dims() == t.dims()
                    && s.data()
                        .iter()
                        .zip(t.data())
                        .all(|(u, v)| u.to_bits() == v.to_bits())
            };
            eq(&x.w, &y.w) && eq(&x.b, &y.b)
        })
}

/// Share of the measured time a run also spends setting up again, so
/// that `setup_s` is a median over samples spread across the whole run:
/// the speed of the 2-core reference host drifts by 15–30% over a few
/// seconds, so samples from one short window see one state of it.
const SETUP_SHARE: f64 = 0.05;

/// Set-up times sampled throughout a run.
#[derive(Debug, Default)]
pub struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    /// Runs and times one `build`, and returns what it built.
    pub fn time<T, E>(&mut self, build: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t = Instant::now();
        let built = build()?;
        self.times.push(t.elapsed().as_secs_f64());
        Ok(built)
    }

    /// After an operation that took `busy_s`, builds and drops again at
    /// least once and until set-up has taken `SETUP_SHARE` of that time.
    pub fn resample<T, E>(
        &mut self,
        busy_s: f64,
        mut build: impl FnMut() -> Result<T, E>,
    ) -> Result<(), E> {
        let until = Instant::now() + Duration::from_secs_f64(SETUP_SHARE * busy_s);
        loop {
            drop(self.time(&mut build)?);
            if Instant::now() >= until {
                return Ok(());
            }
        }
    }

    /// Merges another clock's samples into this one.
    pub fn absorb(&mut self, other: SetupClock) {
        self.times.extend(other.times);
    }

    /// Median set-up time and the number of samples.
    pub fn median(&self) -> (f64, usize) {
        (median(&self.times), self.times.len())
    }
}
