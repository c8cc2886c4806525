//! Spans for the traced run: recorded around calls into each layer's
//! public functions, kept in memory, written out when the run ends.
//!
//! A span is a layer's name, start, end and parent, plus the thread it ran
//! on. Per-packet and per-flow calls are far too many to keep one by one,
//! so a [`Probe`] folds the calls of one layer on one thread into a single
//! aggregate span: `start` is the first call's start, `end` the last
//! call's end, `busy` the summed duration of the `calls` calls. A span of
//! one call has `busy == end - start`.
//!
//! Self time is a span's busy time minus the busy time of its children
//! (calls nested inside it). Each thread has one root span: `run` on the
//! thread that drives the run, `engine.shard` on each worker thread of a
//! multi-shard engine. A root's self time is the time its thread spent
//! outside every traced call: engine glue and channel waits.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A timestamp for span boundaries, in ticks. On x86-64 this is the time
/// stamp counter: a read costs a few ns against ~25 ns for
/// `Instant::now`, which matters at two reads per packet. [`TraceLog`]
/// converts ticks to ns with a rate measured over the run, which assumes
/// a constant-rate TSC (the `constant_tsc` CPU flag).
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC only reads the time stamp counter; it touches no memory.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    now_ns()
}

/// A small per-process number for the calling thread.
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

macro_rules! layers {
    ($($variant:ident => $name:literal, $parent:expr;)*) => {
        /// Every span name the traced run records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        impl Layer {
            /// All layers, in declaration order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant),*];

            /// The span name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }

            /// The layer whose calls contain this one's (`None` for the
            /// thread roots). On a thread where that layer has no
            /// containing span, the next ancestor (finally the thread
            /// root) is the parent instead.
            pub fn parent(self) -> Option<Layer> {
                match self {
                    $(Layer::$variant => $parent,)*
                }
            }
        }
    };
}

layers! {
    Run => "run", None;
    Shard => "engine.shard", None;
    CaptureRead => "capture.read", Some(Layer::Run);
    CaptureOpen => "capture.open", Some(Layer::Run);
    WorldSetup => "worldgen.setup", Some(Layer::Run);
    Fill => "capture.fill", Some(Layer::Run);
    Route => "capture.route", Some(Layer::Run);
    Absorb => "capture.absorb", Some(Layer::Shard);
    GenSession => "worldgen.gen_session", Some(Layer::Shard);
    Finish => "capture.finish", Some(Layer::Shard);
    Observe => "engine.observe", Some(Layer::Shard);
    Classify => "core.classify", Some(Layer::Observe);
    Machine => "core.machine", Some(Layer::Observe);
    Materialize => "capture.materialize", Some(Layer::Observe);
    Label => "analysis.label", Some(Layer::Observe);
    Record => "analysis.record", Some(Layer::Observe);
    RenderJsonl => "analysis.render_jsonl", Some(Layer::Observe);
    RenderLine => "analysis.render_line", Some(Layer::Observe);
    ShardMerge => "analysis.shard_merge", Some(Layer::Run);
    AggPartial => "analysis.agg_partial", Some(Layer::Run);
    AggRead => "analysis.agg_read", Some(Layer::AggPartial);
    AggDecode => "analysis.agg_decode", Some(Layer::AggPartial);
    AggFold => "analysis.agg_fold", Some(Layer::AggPartial);
    RenderReport => "analysis.render_report", Some(Layer::Run);
    SortWrite => "output.sort_write", Some(Layer::Run);
}

impl Layer {
    /// True for the per-thread roots.
    pub fn is_root(self) -> bool {
        self.parent().is_none()
    }
}

/// One span as written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// [`thread_id`] of the thread that made the calls.
    pub thread: u32,
    /// Start of the first call ([`now`] ticks while recording, ns since
    /// the log's creation once taken).
    pub start: u64,
    /// End of the last call.
    pub end: u64,
    /// Summed duration of the calls.
    pub busy: u64,
    /// Number of calls folded into this span.
    pub calls: u64,
}

impl Span {
    /// A span of one call.
    pub fn single(layer: Layer, thread: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            thread,
            start,
            end,
            busy: end.saturating_sub(start),
            calls: 1,
        }
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Arena bytes of the `FlowBatch`es handed to observe.
    pub arena_bytes: u64,
    /// Generator calls that produced a flow.
    pub kept: u64,
    /// Bytes of `.agg` partials decoded.
    pub agg_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.arena_bytes += o.arena_bytes;
        self.kept += o.kept;
        self.agg_bytes += o.agg_bytes;
    }
}

/// The in-memory trace of one run, shared by every thread of the run.
pub struct TraceLog {
    main: u32,
    /// [`now`] and `now_ns` read together at creation.
    origin: (u64, u64),
    inner: Mutex<(Vec<Span>, Counts)>,
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::new()
    }
}

impl TraceLog {
    /// A log whose `run` root belongs to the calling thread.
    pub fn new() -> TraceLog {
        TraceLog {
            main: thread_id(),
            origin: (now(), now_ns()),
            inner: Mutex::new((Vec::new(), Counts::default())),
        }
    }

    /// The thread that owns the `run` root.
    pub fn main_thread(&self) -> u32 {
        self.main
    }

    /// Append finished spans and counts.
    pub fn push(&self, spans: impl IntoIterator<Item = Span>, counts: &Counts) {
        let mut g = self.inner.lock().expect("a tracing thread panicked");
        g.0.extend(spans);
        g.1.add(counts);
    }

    /// Take everything recorded so far, with times converted from ticks
    /// to ns since the log's creation.
    pub fn take(&self) -> (Vec<Span>, Counts) {
        let (tick1, ns1) = (now(), now_ns());
        let (tick0, ns0) = self.origin;
        let ns_per_tick = (ns1 - ns0) as f64 / (tick1 - tick0).max(1) as f64;
        let at = |t: u64| (t.saturating_sub(tick0) as f64 * ns_per_tick) as u64;
        let mut g = self.inner.lock().expect("a tracing thread panicked");
        let spans = std::mem::take(&mut g.0)
            .into_iter()
            .map(|s| Span {
                start: at(s.start),
                end: at(s.end),
                busy: (s.busy as f64 * ns_per_tick) as u64,
                ..s
            })
            .collect();
        (spans, std::mem::take(&mut g.1))
    }
}

/// Per-thread span aggregation. A disabled probe reads no clock.
pub struct Probe {
    on: bool,
    thread: u32,
    spans: Vec<Option<Span>>,
    /// Counts to publish with the spans.
    pub counts: Counts,
}

impl Probe {
    /// A probe for the calling thread.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            thread: thread_id(),
            spans: vec![None; Layer::ALL.len()],
            counts: Counts::default(),
        }
    }

    /// Whether this probe records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Time one call of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = now();
        let r = f();
        self.add(layer, t0, now());
        r
    }

    /// Time one call of `layer` that starts at `*t` (the end of the
    /// previous call), and move `*t` to its end: back-to-back calls share
    /// one clock read.
    #[inline]
    pub fn lap<R>(&mut self, layer: Layer, t: &mut u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let r = f();
        let end = now();
        self.add(layer, *t, end);
        *t = end;
        r
    }

    /// Fold one call of `layer` that ran from `t0` to `t1`.
    #[inline]
    pub fn add(&mut self, layer: Layer, t0: u64, t1: u64) {
        let slot = &mut self.spans[layer as usize];
        match slot {
            Some(s) => {
                s.end = t1;
                s.busy += t1.saturating_sub(t0);
                s.calls += 1;
            }
            None => *slot = Some(Span::single(layer, self.thread, t0, t1)),
        }
    }

    /// Publish the aggregated spans and counts, leaving the probe empty.
    pub fn flush(&mut self, log: &TraceLog) {
        let spans = self.spans.iter_mut().filter_map(Option::take);
        log.push(spans, &std::mem::take(&mut self.counts));
    }
}

/// Spans linked to their parents, with self times.
pub struct Tree {
    /// The spans, roots stretched to cover their thread's other spans.
    pub spans: Vec<Span>,
    /// Index of each span's parent (`None` for roots).
    pub parent: Vec<Option<usize>>,
    /// Busy time minus the busy time of the children.
    pub self_ns: Vec<u64>,
}

impl Tree {
    /// Link `spans`: each non-root span's parent is the shortest span on
    /// its thread whose layer is its nearest ancestor layer present there
    /// and whose interval contains it; failing that, its thread's root.
    pub fn build(mut spans: Vec<Span>) -> Tree {
        // A root ends when the last call on its thread ends.
        for i in 0..spans.len() {
            if spans[i].layer.is_root() {
                let t = spans[i].thread;
                let end = spans.iter().filter(|s| s.thread == t).map(|s| s.end).max();
                let root = &mut spans[i];
                root.end = root.end.max(end.unwrap_or(0));
                root.busy = root.end.saturating_sub(root.start);
            }
        }
        let parent: Vec<Option<usize>> = spans
            .iter()
            .map(|s| {
                let mut up = s.layer.parent()?;
                loop {
                    let found = spans
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| {
                            p.thread == s.thread
                                && p.layer == up
                                && p.start <= s.start
                                && s.end <= p.end
                        })
                        .min_by_key(|(_, p)| p.end - p.start);
                    if let Some((j, _)) = found {
                        return Some(j);
                    }
                    match up.parent() {
                        Some(next) => up = next,
                        None => {
                            return spans
                                .iter()
                                .position(|p| p.thread == s.thread && p.layer.is_root())
                        }
                    }
                }
            })
            .collect();
        let mut child_busy = vec![0u64; spans.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_busy[*p] += spans[i].busy;
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_busy)
            .map(|(s, c)| s.busy.saturating_sub(*c))
            .collect();
        Tree {
            spans,
            parent,
            self_ns,
        }
    }

    /// Share of the roots' time spent inside traced layer calls: summed
    /// self time of every non-root span over summed root duration.
    pub fn coverage(&self) -> f64 {
        let (mut inside, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(&self.self_ns) {
            if s.layer.is_root() {
                total += s.busy;
            } else {
                inside += own;
            }
        }
        if total == 0 {
            0.0
        } else {
            inside as f64 / total as f64
        }
    }

    /// Summed busy time and calls of `layer` over all threads.
    pub fn busy(&self, layer: Layer) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(b, c), s| (b + s.busy, c + s.calls))
    }

    /// Summed self time of `layer` over all threads.
    pub fn self_time(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, own)| own)
            .sum()
    }

    /// Write the spans as tab-separated lines: run, workload, id, parent
    /// (-1 for roots), thread, name, start, end, busy, calls, self.
    pub fn write_tsv(
        &self,
        out: &mut impl std::io::Write,
        workload: &str,
        run: u64,
    ) -> std::io::Result<()> {
        writeln!(
            out,
            "run\tworkload\tid\tparent\tthread\tname\tstart_ns\tend_ns\tbusy_ns\tcalls\tself_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = self.parent[i].map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{run}\t{workload}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread,
                s.layer.name(),
                s.start,
                s.end,
                s.busy,
                s.calls,
                self.self_ns[i]
            )?;
        }
        Ok(())
    }
}
