//! Allocation discipline: the steady-state analyze path must not touch
//! the heap. A warm [`FlowMachine`] replaying the golden corpus performs
//! **zero** allocations on every flow whose verdict carries no trigger
//! domain — the machine's scratch buffers (packets, order, rsts, dedup)
//! reuse capacity from earlier flows and payload `Bytes` clone by
//! refcount. Flows that *do* yield a domain pay exactly the waived
//! verdict-owned string and nothing else grows between passes.
//!
//! Rendering is budgeted the same way: a `classify --jsonl` line costs a
//! fixed number of heap requests (the line and the two RST-delta
//! packet-order vectors) and a default verdict line costs exactly one.
//! Session generation has a mean budget per `WorldSim::gen_session` call.
//!
//! This is the runtime counterpart of tamperlint's static `hot-path-alloc`
//! rule: the lint proves no allocation *constructor* is reachable from the
//! hot roots, this test proves the surviving (waived, per-flow) sites
//! really amortize to zero once the machine is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tamperscope::analysis::{flow_to_jsonl, flow_to_line};
use tamperscope::capture::{
    run_engine, ClosedFlow, EngineConfig, FlowBatch, FlowTuple, OfflineConfig,
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

/// The golden corpus as closed flows, in first-seen order.
fn golden_flows() -> Vec<ClosedFlow> {
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
    let (mut flows, _stats) = run_engine(
        bytes.as_slice(),
        &cfg,
        Vec::new,
        |sink: &mut Vec<ClosedFlow>, closed: ClosedFlow| sink.push(closed),
        |a, mut b| a.append(&mut b),
    )
    .expect("golden corpus replays");
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
fn batch_of(flows: &[&ClosedFlow]) -> FlowBatch {
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
    let domain_free: Vec<&ClosedFlow> = flows
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

/// Heap requests per rendered `classify --jsonl` line: the line itself
/// plus the two packet-order vectors behind `max_rst_ipid_delta` and
/// `max_rst_ttl_delta`. Every field is written into the line's one
/// pre-sized buffer; a per-field `format!` would show up here.
const JSONL_ALLOCS_PER_LINE: u64 = 3;

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
