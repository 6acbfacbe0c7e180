//! Tracing wrappers around the library's extension traits.
//!
//! Each wrapper delegates every call unchanged and only opens a span
//! around the calls whose cost the traced run splits out, so a wrapped
//! federation computes bit-identical results.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gradsec::core::trainer::layer_fwd_macs;
use gradsec::data::{Dataset, Sample};
use gradsec::fl::trainer::{CycleStats, LocalTrainer};
use gradsec::nn::activation::Activation;
use gradsec::nn::layer::{Layer, LayerKind};
use gradsec::nn::{BackendKind, Sequential};
use gradsec::tensor::Tensor;

use crate::trace;

/// The deepest model any workload runs (AlexNet's eight layers).
pub const MAX_LAYERS: usize = 8;

/// Span names per layer, 1-based as in the paper (`L1` is index 0).
pub const FWD: [&str; MAX_LAYERS] = [
    "nn.L1.fwd",
    "nn.L2.fwd",
    "nn.L3.fwd",
    "nn.L4.fwd",
    "nn.L5.fwd",
    "nn.L6.fwd",
    "nn.L7.fwd",
    "nn.L8.fwd",
];
pub const BWD: [&str; MAX_LAYERS] = [
    "nn.L1.bwd",
    "nn.L2.bwd",
    "nn.L3.bwd",
    "nn.L4.bwd",
    "nn.L5.bwd",
    "nn.L6.bwd",
    "nn.L7.bwd",
    "nn.L8.bwd",
];

pub const CYCLE: &str = "core.cycle";
pub const SAMPLE: &str = "data.sample";

/// Passes per sample of the pass clock.
pub const CHUNK_PASSES: u64 = 64;

thread_local! {
    /// Forward passes through layer L1 of any wrapped model on this
    /// thread, counted whether or not tracing is on (one model pass each).
    static THREAD_PASSES: Cell<u64> = const { Cell::new(0) };
    /// This thread's pass clock, off until [`restart_chunk`].
    static CLOCK: Cell<Option<PassClock>> = const { Cell::new(None) };
}

/// One thread's pass clock: its stream tag, and when the current chunk's
/// first pass started with the passes started since.
#[derive(Debug, Clone, Copy)]
struct PassClock {
    stream: u64,
    chunk: Option<(Instant, u64)>,
}

/// One whole chunk of `CHUNK_PASSES` passes made by one thread.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub stream: u64,
    pub end: Instant,
    pub secs_per_pass: f64,
}

/// Every whole chunk of every thread since the last [`take_chunks`].
static CHUNKS: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

/// Model passes the calling thread has made so far.
pub fn thread_passes() -> u64 {
    THREAD_PASSES.with(Cell::get)
}

/// Tags the calling thread's chunks with `stream` and drops its
/// unfinished chunk, so that the next pass starts a new one. Called at
/// the start of each operation, so that no chunk spans work between two
/// operations.
pub fn restart_chunk(stream: u64) {
    CLOCK.with(|c| {
        c.set(Some(PassClock {
            stream,
            chunk: None,
        }))
    });
}

/// The chunks recorded since the last call that ended no later than
/// `until`.
pub fn take_chunks(until: Instant) -> Vec<Chunk> {
    let mut chunks = std::mem::take(
        &mut *CHUNKS
            .lock()
            .expect("pass clock poisoned by a panicking thread"),
    );
    chunks.retain(|c| c.end <= until);
    chunks
}

fn count_pass() {
    THREAD_PASSES.with(|c| c.set(c.get() + 1));
    CLOCK.with(|c| {
        let Some(PassClock { stream, chunk }) = c.get() else {
            return;
        };
        let now = Instant::now();
        let next = match chunk {
            Some((start, CHUNK_PASSES)) => {
                CHUNKS
                    .lock()
                    .expect("pass clock poisoned by a panicking thread")
                    .push(Chunk {
                        stream,
                        end: now,
                        secs_per_pass: (now - start).as_secs_f64() / CHUNK_PASSES as f64,
                    });
                Some((now, 1))
            }
            Some((start, n)) => Some((start, n + 1)),
            None => Some((now, 1)),
        };
        c.set(Some(PassClock {
            stream,
            chunk: next,
        }));
    });
}

/// A layer whose forward and backward passes are spans carrying their
/// FLOP count (2 per MAC; backward costs twice the forward MACs, the
/// convention `gradsec_core::trainer::layer_cycle_macs` uses).
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    index: usize,
    fwd_macs_per_sample: f64,
}

impl TracedLayer {
    fn new(inner: Box<dyn Layer>, index: usize) -> Self {
        let fwd_macs_per_sample = layer_fwd_macs(inner.as_ref()) as f64;
        TracedLayer {
            inner,
            index,
            fwd_macs_per_sample,
        }
    }
}

fn batch_of(t: &Tensor) -> f64 {
    t.dims().first().copied().unwrap_or(1) as f64
}

impl Layer for TracedLayer {
    fn kind(&self) -> LayerKind {
        self.inner.kind()
    }
    fn backend(&self) -> BackendKind {
        self.inner.backend()
    }
    fn set_backend(&mut self, backend: BackendKind) {
        self.inner.set_backend(backend);
    }
    fn activation(&self) -> Activation {
        self.inner.activation()
    }
    fn input_elems(&self) -> usize {
        self.inner.input_elems()
    }
    fn output_elems(&self) -> usize {
        self.inner.output_elems()
    }
    fn preact_elems(&self) -> usize {
        self.inner.preact_elems()
    }
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
    fn forward(&mut self, input: &Tensor) -> gradsec::nn::Result<Tensor> {
        if self.index == 0 {
            count_pass();
        }
        let span = trace::span(FWD[self.index]);
        span.amount(2.0 * self.fwd_macs_per_sample * batch_of(input));
        self.inner.forward(input)
    }
    fn backward(&mut self, delta_out: &Tensor) -> gradsec::nn::Result<Tensor> {
        let span = trace::span(BWD[self.index]);
        span.amount(4.0 * self.fwd_macs_per_sample * batch_of(delta_out));
        self.inner.backward(delta_out)
    }
    fn weights(&self) -> (&Tensor, &Tensor) {
        self.inner.weights()
    }
    fn weights_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        self.inner.weights_mut()
    }
    fn grads(&self) -> Option<(&Tensor, &Tensor)> {
        self.inner.grads()
    }
    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }
    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(TracedLayer {
            inner: self.inner.clone_box(),
            index: self.index,
            fwd_macs_per_sample: self.fwd_macs_per_sample,
        })
    }
}

/// Rebuilds `model` with every layer wrapped in a [`TracedLayer`]; the
/// weights and backend carry over unchanged.
pub fn traced_model(model: &Sequential) -> Sequential {
    assert!(
        model.num_layers() <= MAX_LAYERS,
        "the benchmark names at most {MAX_LAYERS} layers"
    );
    let mut traced = Sequential::new(model.loss());
    for (index, layer) in model.iter().enumerate() {
        traced.push(Box::new(TracedLayer::new(layer.clone_box(), index)));
    }
    traced
}

/// A local trainer whose cycles are `core.cycle` spans tagged with the
/// client id.
pub struct TracedTrainer {
    inner: Box<dyn LocalTrainer>,
    client: u64,
}

impl TracedTrainer {
    pub fn new(inner: Box<dyn LocalTrainer>, client: u64) -> Self {
        TracedTrainer { inner, client }
    }
}

impl LocalTrainer for TracedTrainer {
    fn train_cycle(
        &mut self,
        model: &mut Sequential,
        dataset: &dyn Dataset,
        batches: &[Vec<usize>],
        learning_rate: f32,
        protected_layers: &[usize],
    ) -> gradsec::fl::Result<CycleStats> {
        trace::set_client(self.client);
        let result = {
            let _span = trace::span(CYCLE);
            self.inner
                .train_cycle(model, dataset, batches, learning_rate, protected_layers)
        };
        trace::set_client(trace::NO_CLIENT);
        result
    }
}

/// A dataset whose `sample` calls are timed as `data.sample` leaves.
pub struct TracedDataset {
    inner: Arc<dyn Dataset>,
}

impl TracedDataset {
    pub fn new(inner: Arc<dyn Dataset>) -> Self {
        TracedDataset { inner }
    }
}

impl Dataset for TracedDataset {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn image_dims(&self) -> (usize, usize, usize) {
        self.inner.image_dims()
    }
    fn sample(&self, index: usize) -> Sample {
        trace::leaf(SAMPLE, || self.inner.sample(index))
    }
}

/// Reports each layer's forward and backward busy seconds per operation
/// and its achieved GFLOP/s, from the layer spans among `spans`.
pub fn layer_metrics<'a>(
    spans: impl Iterator<Item = &'a trace::Span>,
    ops: f64,
    out: &mut crate::Outcome,
) {
    let mut fwd = [0u64; MAX_LAYERS];
    let mut bwd = [0u64; MAX_LAYERS];
    let mut flops = [0f64; MAX_LAYERS];
    for s in spans {
        if let Some(l) = FWD.iter().position(|&n| n == s.name) {
            fwd[l] += s.dur_ns();
            flops[l] += s.amount;
        } else if let Some(l) = BWD.iter().position(|&n| n == s.name) {
            bwd[l] += s.dur_ns();
            flops[l] += s.amount;
        }
    }
    for l in 0..MAX_LAYERS {
        let secs = |ns: u64| ns as f64 / 1e9;
        let busy = secs(fwd[l] + bwd[l]);
        out.metric(&format!("nn.L{}.fwd_s", l + 1), secs(fwd[l]) / ops);
        out.metric(&format!("nn.L{}.bwd_s", l + 1), secs(bwd[l]) / ops);
        out.metric(
            &format!("nn.L{}.gflops", l + 1),
            if busy > 0.0 {
                flops[l] / busy / 1e9
            } else {
                0.0
            },
        );
    }
}
