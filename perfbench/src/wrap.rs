//! Delegating [`FlowSource`] / [`SourceShard`] wrappers that time every
//! call the engine makes into a source, and change nothing else: each
//! method forwards to the wrapped one with the same arguments, so the
//! engine sees the same items, routes, outputs and counters.

use std::cell::RefCell;

use tamperscope::capture::{EngineConfig, FlowSource, ShardStats, SourceShard};
use tamperscope::obs::ScopeMetrics;

use crate::trace::{now, thread_id, Layer, Probe, Span, TraceLog};

/// A traced [`FlowSource`]. `fill` and `route` run on the reader thread
/// and land in its spans; shards are wrapped in [`TracedShard`].
pub struct TracedSource<'a, S> {
    inner: S,
    log: &'a TraceLog,
    absorb: Layer,
    probe: RefCell<Probe>,
}

impl<'a, S> TracedSource<'a, S> {
    /// Wrap `inner`. Shard `absorb` calls are recorded as `absorb` spans:
    /// [`Layer::Absorb`] for captures, [`Layer::GenSession`] for a
    /// simulator source whose absorb is the generator call.
    pub fn new(inner: S, log: &'a TraceLog, absorb: Layer) -> TracedSource<'a, S> {
        TracedSource {
            inner,
            log,
            absorb,
            probe: RefCell::new(Probe::new(true)),
        }
    }
}

impl<S> Drop for TracedSource<'_, S> {
    fn drop(&mut self) {
        self.probe.get_mut().flush(self.log);
    }
}

impl<'a, S: FlowSource> FlowSource for TracedSource<'a, S> {
    type Item = S::Item;
    type Out = S::Out;
    type Shard = TracedShard<'a, S::Shard>;

    fn prepare(&mut self, shards: usize) {
        self.inner.prepare(shards);
    }

    fn fill(&mut self, out: &mut Vec<S::Item>, max: usize) -> bool {
        let t0 = now();
        let more = self.inner.fill(out, max);
        self.probe.get_mut().add(Layer::Fill, t0, now());
        more
    }

    fn route(&self, index: u64, item: &S::Item, shards: usize) -> Option<usize> {
        let t0 = now();
        let r = self.inner.route(index, item, shards);
        self.probe.borrow_mut().add(Layer::Route, t0, now());
        r
    }

    fn shard(&self, cfg: &EngineConfig) -> TracedShard<'a, S::Shard> {
        TracedShard {
            inner: self.inner.shard(cfg),
            log: self.log,
            absorb: self.absorb,
            created: now(),
            probe: None,
        }
    }

    fn final_stamp(&self) -> u64 {
        self.inner.final_stamp()
    }

    fn corrupt_tail(&self) -> bool {
        self.inner.corrupt_tail()
    }
}

/// A traced [`SourceShard`]. Its probe is created on the thread that
/// first calls it; when the engine drops the shard (on that thread), it
/// publishes its spans and, on a worker thread, the thread's
/// `engine.shard` root.
pub struct TracedShard<'a, W> {
    inner: W,
    log: &'a TraceLog,
    absorb: Layer,
    created: u64,
    probe: Option<Probe>,
}

impl<W> TracedShard<'_, W> {
    fn probe(&mut self) -> &mut Probe {
        self.probe.get_or_insert_with(|| Probe::new(true))
    }
}

impl<W> Drop for TracedShard<'_, W> {
    fn drop(&mut self) {
        let Some(mut probe) = self.probe.take() else {
            return;
        };
        let me = thread_id();
        if me != self.log.main_thread() {
            // Stretched to the thread's last span when the tree is built.
            let root = Span::single(Layer::Shard, me, self.created, now());
            self.log.push([root], &Default::default());
        }
        probe.flush(self.log);
    }
}

impl<W: SourceShard> SourceShard for TracedShard<'_, W> {
    type Item = W::Item;
    type Out = W::Out;

    fn absorb(
        &mut self,
        index: u64,
        item: W::Item,
        stats: &mut ShardStats,
        emit: &mut Vec<W::Out>,
        sm: &mut ScopeMetrics,
    ) {
        let before = emit.len();
        let t0 = now();
        self.inner.absorb(index, item, stats, emit, sm);
        let t1 = now();
        let layer = self.absorb;
        let probe = self.probe();
        probe.add(layer, t0, t1);
        if layer == Layer::GenSession {
            probe.counts.kept += (emit.len() - before) as u64;
        }
    }

    fn finish(
        &mut self,
        final_stamp: u64,
        stats: &mut ShardStats,
        emit: &mut Vec<W::Out>,
        sm: &mut ScopeMetrics,
    ) {
        let t0 = now();
        self.inner.finish(final_stamp, stats, emit, sm);
        let t1 = now();
        self.probe().add(Layer::Finish, t0, t1);
    }

    fn high_water(&self) -> usize {
        self.inner.high_water()
    }
}
