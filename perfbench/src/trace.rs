//! The span recorder behind the traced run.
//!
//! Spans are opened and closed from the benchmark's own wrappers around
//! calls into the library, never from inside it. Each thread keeps a stack
//! of open spans; closing a span charges its duration to its parent's
//! child time, so a span's self time is exact. Finished spans collect in a
//! per-thread buffer that is flushed to the global sink whenever the
//! thread's stack empties (once per client cycle on an engine worker).
//!
//! Leaf timings that fire thousands of times per round (`data.sample`)
//! are folded into per-operation counters instead of stored spans.
//!
//! When recording is off, `span` costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// No span: the parent of a root span.
pub const NONE: u64 = 0;
/// No client: spans outside a client cycle.
pub const NO_CLIENT: u64 = u64::MAX;

// The atomics below publish only their own values (a flag, counters and
// ids), never other data, so relaxed ordering is enough; worker threads
// read `CROSS_PARENT` after being spawned, which orders the store first.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// The operation (round or reconstruction) index spans are tagged with.
static OP: AtomicU64 = AtomicU64::new(0);
/// The span that roots opened on other threads hang under (the
/// coordinator's `fl.execute` span while workers run client cycles).
static CROSS_PARENT: AtomicU64 = AtomicU64::new(NONE);
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    leaves: BTreeMap::new(),
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by child spans and leaves on the same thread.
    pub child_ns: u64,
    pub tid: u64,
    pub op: u64,
    pub client: u64,
    /// A work amount attached to the span (FLOPs, bytes), or 0.
    pub amount: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Count and total time of one leaf timing within one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leaf {
    pub count: u64,
    pub total_ns: u64,
}

struct Sink {
    spans: Vec<Span>,
    leaves: BTreeMap<(&'static str, u64), Leaf>,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    amount: f64,
}

struct Local {
    tid: u64,
    client: u64,
    /// This thread's own operation index, overriding `OP`.
    op: Option<u64>,
    stack: Vec<Open>,
    done: Vec<Span>,
    leaves: BTreeMap<(&'static str, u64), Leaf>,
}

impl Local {
    fn drain_into(&mut self, sink: &mut Sink) {
        sink.spans.append(&mut self.done);
        for (key, leaf) in std::mem::take(&mut self.leaves) {
            let acc = sink.leaves.entry(key).or_default();
            acc.count += leaf.count;
            acc.total_ns += leaf.total_ns;
        }
    }

    fn flush(&mut self) {
        if self.done.is_empty() && self.leaves.is_empty() {
            return;
        }
        let mut sink = SINK
            .lock()
            .expect("trace sink poisoned by a panicking thread");
        self.drain_into(&mut sink);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Runs at thread exit; a poisoned sink only loses this thread's
        // tail, which the flush-on-empty-stack rule keeps empty anyway.
        if let Ok(mut sink) = SINK.lock() {
            self.drain_into(&mut sink);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        client: NO_CLIENT,
        op: None,
        stack: Vec::new(),
        done: Vec::new(),
        leaves: BTreeMap::new(),
    });
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags every span opened from now on with operation index `op`.
pub fn set_op(op: u64) {
    OP.store(op, Ordering::Relaxed);
}

/// Tags spans this thread opens from now on with operation index `op`,
/// whatever `set_op` says (for threads that each run their own
/// operations).
pub fn set_thread_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = Some(op));
}

/// Sets the client id spans on this thread are tagged with.
pub fn set_client(client: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().client = client);
    }
}

/// An open span; closes when dropped.
pub struct Guard {
    active: bool,
}

impl Guard {
    /// Attaches a work amount (FLOPs, bytes) to the span.
    pub fn amount(&self, amount: f64) {
        if self.active {
            LOCAL.with(|l| {
                if let Some(open) = l.borrow_mut().stack.last_mut() {
                    open.amount += amount;
                }
            });
        }
    }

    /// This span's id, for spans other threads open under it.
    pub fn id(&self) -> u64 {
        if !self.active {
            return NONE;
        }
        LOCAL.with(|l| l.borrow().stack.last().map_or(NONE, |o| o.id))
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            if let Some(parent) = l.stack.last_mut() {
                parent.child_ns += dur;
            }
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                child_ns: open.child_ns,
                tid: l.tid,
                op: l.op.unwrap_or_else(|| OP.load(Ordering::Relaxed)),
                client: l.client,
                amount: open.amount,
            };
            l.done.push(span);
            if l.stack.is_empty() {
                l.flush();
            }
        });
    }
}

/// Opens a span named `name` under the innermost open span of this thread
/// (or, for a thread's root span, under the current cross-thread parent).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { active: false };
    }
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l
            .stack
            .last()
            .map_or_else(|| CROSS_PARENT.load(Ordering::Relaxed), |o| o.id);
        l.stack.push(Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns,
            child_ns: 0,
            amount: 0.0,
        });
    });
    Guard { active: true }
}

/// Makes `parent` the span that root spans on other threads attach to
/// until the returned guard drops.
pub fn cross_parent(parent: u64) -> CrossGuard {
    CROSS_PARENT.store(parent, Ordering::Relaxed);
    CrossGuard
}

pub struct CrossGuard;

impl Drop for CrossGuard {
    fn drop(&mut self) {
        CROSS_PARENT.store(NONE, Ordering::Relaxed);
    }
}

/// Times `f` as a leaf: its duration counts as child time of the
/// enclosing span and accumulates into the per-operation `name` counter.
pub fn leaf<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    let dur = now_ns().saturating_sub(start);
    let op = OP.load(Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += dur;
        }
        let acc = l.leaves.entry((name, op)).or_default();
        acc.count += 1;
        acc.total_ns += dur;
        if l.stack.is_empty() {
            l.flush();
        }
    });
    out
}

/// Everything recorded so far: finished spans (in flush order) and the
/// leaf counters keyed by `(name, op)`.
pub fn take() -> (Vec<Span>, BTreeMap<(&'static str, u64), Leaf>) {
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut sink = SINK
        .lock()
        .expect("trace sink poisoned by a panicking thread");
    (
        std::mem::take(&mut sink.spans),
        std::mem::take(&mut sink.leaves),
    )
}

/// Writes `spans` as Chrome trace-event JSON (opens in Perfetto or
/// `chrome://tracing`), keeping at most `cap` events, earliest first.
pub fn write_chrome(
    path: &std::path::Path,
    spans: &[Span],
    cap: usize,
    meta: &str,
) -> std::io::Result<()> {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let kept = ordered.len().min(cap);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    for (i, s) in ordered[..kept].iter().enumerate() {
        let client = if s.client == NO_CLIENT {
            "null".to_owned()
        } else {
            s.client.to_string()
        };
        write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"client\":{},\"self_us\":{:.3}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op,
            client,
            s.self_ns() as f64 / 1e3,
        )?;
    }
    write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events_total\":{},\"events_written\":{},\"run\":{}}}}}",
        ordered.len(),
        kept,
        meta
    )?;
    out.flush()
}
