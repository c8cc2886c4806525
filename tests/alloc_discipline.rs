//! Allocation discipline: the steady-state analyze path must not touch
//! the heap. A warm [`FlowMachine`] replaying the golden corpus performs
//! **zero** allocations on every flow whose verdict carries no trigger
//! domain — the machine's scratch buffers (packets, order, rsts, dedup)
//! reuse capacity from earlier flows and payload `Bytes` clone by
//! refcount. Flows that *do* yield a domain pay exactly the waived
//! verdict-owned string and nothing else grows between passes.
//!
//! Rendering is budgeted the same way: a `classify --jsonl` line and a
//! default verdict line each cost exactly one heap request (the line)
//! when rendered on their own, and none when appended to a warm shard
//! buffer. The whole per-flow observe step `tamperscope classify` runs
//! (classify, label, aggregate, render) has a per-flow budget too.
//! Session generation has a mean budget per `WorldSim::gen_session` call.
//!
//! This is the runtime counterpart of tamperlint's static `hot-path-alloc`
//! rule: the lint proves no allocation *constructor* is reachable from the
//! hot roots, this test proves the surviving (waived, per-flow) sites
//! really amortize to zero once the machine is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tamperscope::analysis::{
    capture_collector, capture_meta, flow_to_jsonl, flow_to_line, write_jsonl, write_line,
    RESERVOIR_CAP,
};
use tamperscope::capture::{
    run_source, EngineConfig, EvictionCause, FlowBatch, FlowRecord, FlowTuple, OfflineConfig,
    PcapMemSource,
};
use tamperscope::core::{BatchClassifier, ClassifierConfig, FlowMachine};
use tamperscope::worldgen::{WorldConfig, WorldSim};

/// A counting pass-through allocator: every heap request bumps a counter
/// owned by the requesting thread. Libtest runs tests on parallel
/// threads, so a measured section reads only its own thread's count and
/// never sees another test's allocations.
struct CountingAlloc;

thread_local! {
    // Const-initialised with no destructor: reading or bumping it never
    // allocates, so it is safe to touch from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn
    // down; nothing is measured then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap requests made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One closed flow of the golden corpus.
struct Closed {
    flow: FlowRecord,
    first_index: u64,
    cause: EvictionCause,
}

/// The golden corpus as closed flows, in first-seen order.
fn golden_flows() -> Vec<Closed> {
    let bytes = std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join("golden.pcap"),
    )
    .expect("tests/fixtures/golden.pcap present");
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads: 1,
        ..EngineConfig::default()
    };
    let src = PcapMemSource::new(bytes.into()).expect("golden corpus header");
    let (mut flows, _stats) = run_source(
        src,
        &cfg,
        Vec::new,
        |sink: &mut Vec<Closed>, batch: FlowBatch| {
            for (i, span) in batch.spans().iter().enumerate() {
                sink.push(Closed {
                    flow: batch.materialize(i),
                    first_index: span.first_index,
                    cause: span.cause,
                });
            }
        },
        |a, mut b| a.append(&mut b),
    );
    flows.sort_by_key(|cf| cf.first_index);
    assert!(!flows.is_empty(), "golden corpus yielded no flows");
    flows
}

#[test]
fn warm_machine_analyzes_the_golden_corpus_without_allocating() {
    let flows = golden_flows();
    let mut machine = FlowMachine::new(ClassifierConfig::default());

    // Warm pass: scratch buffers grow to the corpus' high-water marks.
    // Record which flows legitimately allocate a verdict-owned trigger
    // domain.
    let mut warm_verdicts = Vec::with_capacity(flows.len());
    let mut has_domain = Vec::with_capacity(flows.len());
    for cf in &flows {
        let analysis = machine.analyze(&cf.flow);
        has_domain.push(analysis.trigger.domain.is_some());
        warm_verdicts.push(analysis.classification);
    }

    // Steady state: a second pass over the domain-free flows must not
    // allocate at all — those flows exercise the full parse/reorder/
    // classify path with zero heap traffic once the machine is warm.
    let measured: Vec<_> = flows
        .iter()
        .zip(&has_domain)
        .filter(|(_, d)| !**d)
        .map(|(cf, _)| cf)
        .collect();
    assert!(
        measured.len() >= flows.len() / 2,
        "expected most golden flows to be domain-free ({} of {})",
        measured.len(),
        flows.len()
    );
    let before = allocations();
    for cf in &measured {
        let analysis = machine.analyze(&cf.flow);
        assert!(
            analysis.trigger.domain.is_none(),
            "domain appeared on re-analysis"
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state FlowMachine::analyze allocated {} time(s) over {} domain-free flows",
        after - before,
        measured.len()
    );

    // Domain-bearing flows are bounded too: each re-analysis may allocate
    // only the verdict-owned host/SNI string (at most a handful of heap
    // requests per flow — never unbounded growth between passes).
    let domain_flows: Vec<_> = flows
        .iter()
        .zip(&has_domain)
        .filter(|(_, d)| **d)
        .map(|(cf, _)| cf)
        .collect();
    let before = allocations();
    for cf in &domain_flows {
        assert!(machine.analyze(&cf.flow).trigger.domain.is_some());
    }
    let after = allocations();
    let per_flow_budget = 4 * domain_flows.len() as u64;
    assert!(
        after - before <= per_flow_budget,
        "domain-bearing flows allocated {} time(s); budget {} ({} flows)",
        after - before,
        per_flow_budget,
        domain_flows.len()
    );

    // The measured pass produced the same verdicts the warm pass did.
    let verdicts: Vec<_> = flows
        .iter()
        .map(|cf| machine.analyze(&cf.flow).classification)
        .collect();
    assert_eq!(verdicts, warm_verdicts, "verdicts drifted between passes");
}

/// Pack closed flows into one columnar [`FlowBatch`], the shape the
/// batched engine hands to per-shard sinks.
fn batch_of(flows: &[&Closed]) -> FlowBatch {
    let mut batch = FlowBatch::new();
    for cf in flows {
        let start = batch.packet_count() as u32;
        for p in &cf.flow.packets {
            batch.push_packet(
                p.ts_sec,
                p.flags,
                p.seq,
                p.ack,
                p.ip_id,
                p.ttl,
                p.window,
                &p.payload,
                p.has_tcp_options,
            );
        }
        batch.push_flow(
            FlowTuple {
                client_ip: cf.flow.client_ip,
                server_ip: cf.flow.server_ip,
                src_port: cf.flow.src_port,
                dst_port: cf.flow.dst_port,
            },
            start,
            cf.first_index,
            cf.flow.observation_end_sec,
            cf.flow.truncated,
            cf.cause,
        );
    }
    batch
}

#[test]
fn warm_batch_classifier_processes_a_batch_without_allocating() {
    let flows = golden_flows();
    let mut machine = FlowMachine::new(ClassifierConfig::default());
    // Domain-bearing flows legitimately allocate their verdict-owned
    // host string; the zero-alloc guarantee covers everything else.
    let domain_free: Vec<&Closed> = flows
        .iter()
        .filter(|cf| machine.analyze(&cf.flow).trigger.domain.is_none())
        .collect();
    assert!(
        domain_free.len() >= flows.len() / 2,
        "expected most golden flows to be domain-free ({} of {})",
        domain_free.len(),
        flows.len()
    );
    let batch = batch_of(&domain_free);
    let mut clf = BatchClassifier::new(ClassifierConfig::default());

    // Warm pass: the classifier's scratch and output buffers grow to the
    // batch's high-water marks.
    let warm: Vec<_> = clf
        .classify_batch(&batch)
        .iter()
        .map(|a| a.classification)
        .collect();
    assert_eq!(warm.len(), domain_free.len());

    // Steady state: re-classifying a whole batch is allocation-free — the
    // engine's per-batch hot loop makes zero heap requests once warm.
    let before = allocations();
    let n = clf.classify_batch(&batch).len();
    let after = allocations();
    assert_eq!(n, domain_free.len());
    assert_eq!(
        after - before,
        0,
        "warm BatchClassifier::classify_batch allocated {} time(s) over a {}-flow batch",
        after - before,
        n
    );

    // And the batch path agrees with the per-flow machine, flow for flow.
    let again: Vec<_> = clf
        .classify_batch(&batch)
        .iter()
        .map(|a| a.classification)
        .collect();
    assert_eq!(again, warm, "verdicts drifted between batch passes");
}

/// Heap requests made by `f` on the calling thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// Heap requests per rendered `classify --jsonl` line: the line itself.
/// Every field is written into the line's one pre-sized buffer, and the
/// IP-ID/TTL deltas come from the analysis; a per-field `format!` or a
/// re-sort of the packets would show up here.
const JSONL_ALLOCS_PER_LINE: u64 = 1;

/// Heap requests per rendered default `classify` verdict line: the line.
const VERDICT_LINE_ALLOCS_PER_LINE: u64 = 1;

#[test]
fn rendering_a_verdict_line_allocates_only_the_line() {
    let flows = golden_flows();
    let mut machine = FlowMachine::new(ClassifierConfig::default());
    let mut with_domain = 0;
    for cf in &flows {
        let analysis = machine.analyze(&cf.flow);
        with_domain += usize::from(analysis.trigger.domain.is_some());
        let (allocs, line) = counted(|| flow_to_jsonl(&cf.flow, &analysis));
        assert_eq!(
            allocs, JSONL_ALLOCS_PER_LINE,
            "flow_to_jsonl made {allocs} heap request(s) for {line}"
        );
        let (allocs, line) = counted(|| flow_to_line(&cf.flow, &analysis));
        assert_eq!(
            allocs, VERDICT_LINE_ALLOCS_PER_LINE,
            "flow_to_line made {allocs} heap request(s) for {line:?}"
        );
    }
    // The budget covers lines that carry an SNI/Host domain too.
    assert!(with_domain > 0, "golden corpus has no domain-bearing flow");

    // Appended to a warm shard buffer, as `classify` renders, no line
    // makes a heap request at all.
    let analyses: Vec<_> = flows.iter().map(|cf| machine.analyze(&cf.flow)).collect();
    let mut buf = String::new();
    let render_all = |buf: &mut String| {
        buf.clear();
        for (cf, a) in flows.iter().zip(&analyses) {
            let tuple = cf.flow.tuple();
            let n = cf.flow.packets.len();
            write_jsonl(buf, &tuple, n, cf.flow.truncated, a);
            buf.push('\n');
            write_line(buf, &tuple, n, a);
            buf.push('\n');
        }
    };
    render_all(&mut buf);
    let (allocs, ()) = counted(|| render_all(&mut buf));
    assert_eq!(
        allocs, 0,
        "rendering into a warm buffer made {allocs} heap request(s)"
    );
}

/// Heap requests per flow for the observe step of `tamperscope classify`
/// on domain-free flows, once warm: classify the span, label it, record
/// it into the aggregate and render its line into the shard buffer — all
/// from the batch's column slices, with no owning record built.
const OBSERVE_ALLOCS_PER_FLOW: u64 = 0;

#[test]
fn observing_a_domain_free_flow_stays_within_its_allocation_budget() {
    let flows = golden_flows();
    let mut machine = FlowMachine::new(ClassifierConfig::default());
    let domain_free: Vec<&Closed> = flows
        .iter()
        .filter(|cf| machine.analyze(&cf.flow).trigger.domain.is_none())
        .collect();
    let batch = batch_of(&domain_free);
    let cfg = ClassifierConfig::default();
    let mut clf = BatchClassifier::new(cfg);
    let mut col = capture_collector(cfg, 0);
    let mut buf = String::new();
    let mut observe = |buf: &mut String| {
        buf.clear();
        for (i, span) in batch.spans().iter().enumerate() {
            let analysis = clf.classify_span(&batch, i);
            let tuple = batch.tuple(span);
            let cols = batch.flow_cols(i);
            col.record_view(&capture_meta(tuple, &cols), tuple, &cols, &analysis);
            write_jsonl(buf, tuple, cols.len(), span.truncated, &analysis);
            buf.push('\n');
            write_line(buf, tuple, cols.len(), &analysis);
            buf.push('\n');
        }
    };
    // Warm: the evidence reservoirs grow (amortized, by doubling) until
    // each holds its cap of samples; every golden flow lands one sample
    // per pass in the reservoirs of its class.
    for _ in 0..=RESERVOIR_CAP {
        observe(&mut buf);
    }
    let passes = 4u64;
    let (allocs, ()) = counted(|| {
        for _ in 0..passes {
            observe(&mut buf);
        }
    });
    let n = passes * domain_free.len() as u64;
    assert!(
        allocs <= OBSERVE_ALLOCS_PER_FLOW * n,
        "the observe step made {allocs} heap request(s) over {n} domain-free flows"
    );
}

/// Mean heap requests per `WorldSim::gen_session` call over the first
/// 2000 sessions of the seed-1 standard world (rejected sessions count
/// in the denominator). The simulator keeps its event payloads in a
/// per-session slab behind a key-only heap, hands arriving packets to
/// the endpoints by reference, and shares response bytes; re-adding a
/// per-arrival packet clone or a per-segment body copy breaks the budget.
const GEN_SESSION_ALLOCS_PER_SESSION: f64 = 35.0;

#[test]
fn generating_a_world_session_stays_within_its_allocation_budget() {
    let sim = WorldSim::new(WorldConfig {
        seed: 1,
        ..WorldConfig::default()
    });
    let sessions = 2000u64;
    let (allocs, kept) = counted(|| (0..sessions).filter_map(|i| sim.gen_session(i)).count());
    assert!(kept > 0, "no session survived sampling");
    let mean = allocs as f64 / sessions as f64;
    assert!(
        mean <= GEN_SESSION_ALLOCS_PER_SESSION,
        "gen_session made {mean:.2} heap requests per session; budget {GEN_SESSION_ALLOCS_PER_SESSION}"
    );
}
