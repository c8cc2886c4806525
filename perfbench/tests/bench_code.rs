//! Tests of the benchmark's own code: seeded inputs, the delegating
//! wrappers, the self-time arithmetic and the metric names.

use std::path::PathBuf;

use perfbench::compose::{self, Format, RunInfo};
use perfbench::metrics::{per_layer, PER_LAYER};
use perfbench::recipe::{generate, Layout};
use perfbench::trace::{Layer, Span, TraceLog, Tree};

/// A capture written to a file of this test's own.
fn capture_file(name: &str, layout: Layout, sessions: u64, seed: u64) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.pcap"));
    std::fs::write(&path, generate(layout, sessions, seed, 2).bytes).unwrap();
    path
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for layout in [Layout::Sampled, Layout::Dense] {
        let a = generate(layout, 400, 7, 1);
        let b = generate(layout, 400, 7, 2);
        let c = generate(layout, 400, 8, 2);
        assert_eq!(
            fnv1a(&a.bytes),
            fnv1a(&b.bytes),
            "{layout:?}: thread count changed the bytes"
        );
        assert_ne!(
            fnv1a(&a.bytes),
            fnv1a(&c.bytes),
            "{layout:?}: the seed did not change the bytes"
        );
        assert_eq!(a.flows, 400, "every session delivers a packet");
    }
    // Same sessions, different schedule.
    assert_ne!(
        fnv1a(&generate(Layout::Sampled, 400, 7, 1).bytes),
        fnv1a(&generate(Layout::Dense, 400, 7, 1).bytes)
    );
}

/// The engine counters that do not depend on scheduling.
fn deterministic(info: &RunInfo) -> tamperscope::capture::EngineStats {
    tamperscope::capture::EngineStats {
        channel_stalls: 0,
        ..info.stats
    }
}

#[test]
fn wrapped_run_source_matches_unwrapped_at_1_and_2_threads() {
    for (layout, format) in [
        (Layout::Sampled, Format::Jsonl),
        (Layout::Dense, Format::Lines),
    ] {
        let cap = capture_file(&format!("wrap-{layout:?}"), layout, 3000, 3);
        for threads in [1, 2] {
            let mut plain = Vec::new();
            let a = compose::classify(&cap, format, threads, &mut plain, None).unwrap();
            let mut traced = Vec::new();
            let log = TraceLog::new();
            let b = compose::classify(&cap, format, threads, &mut traced, Some(&log)).unwrap();
            assert_eq!(
                plain, traced,
                "{layout:?} at {threads} threads: output bytes differ"
            );
            assert_eq!(
                deterministic(&a),
                deterministic(&b),
                "{layout:?} at {threads} threads"
            );
            assert_eq!(a.flows, 3000);
            assert_eq!(a.shard_flows, b.shard_flows);
            assert_eq!(a.shard_flows.len(), threads);
            let (spans, _) = log.take();
            let tree = Tree::build(spans);
            let (_, absorbs) = tree.busy(Layer::Absorb);
            assert_eq!(absorbs, a.stats.records, "one absorb span call per record");
            let cov = tree.coverage();
            assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
        }
    }
}

#[test]
fn traced_world_report_matches_untraced() {
    for threads in [1, 2] {
        let mut plain = Vec::new();
        let a = compose::world_report(3000, 5, threads, &mut plain, None).unwrap();
        let mut traced = Vec::new();
        let log = TraceLog::new();
        let b = compose::world_report(3000, 5, threads, &mut traced, Some(&log)).unwrap();
        assert_eq!(plain, traced, "{threads} threads");
        assert_eq!(deterministic(&a), deterministic(&b));
        let (spans, counts) = log.take();
        let tree = Tree::build(spans);
        assert_eq!(
            tree.busy(Layer::GenSession).1,
            3000,
            "one generator call per session"
        );
        assert_eq!(counts.kept, a.stats.ingest.flows);
    }
}

fn span(layer: Layer, thread: u32, start: u64, end: u64, busy: u64, calls: u64) -> Span {
    Span {
        layer,
        thread,
        start,
        end,
        busy,
        calls,
    }
}

#[test]
fn self_time_on_a_hand_built_tree() {
    let spans = vec![
        // Main thread: run [0, 100] with a read, an aggregated observe
        // holding two children, and a fill with no children.
        span(Layer::Run, 1, 0, 100, 100, 1),
        span(Layer::CaptureRead, 1, 0, 10, 10, 1),
        span(Layer::Observe, 1, 20, 90, 50, 4),
        span(Layer::Classify, 1, 21, 80, 20, 4),
        span(Layer::RenderJsonl, 1, 25, 89, 10, 4),
        span(Layer::Fill, 1, 12, 95, 5, 3),
        // A worker thread whose root only covers [30, 40] when recorded:
        // it is stretched to its last span's end (70).
        span(Layer::Shard, 2, 30, 40, 10, 1),
        span(Layer::Absorb, 2, 31, 70, 25, 9),
        // Two single calls of one layer: each child goes under the
        // instance that contains it.
        span(Layer::AggPartial, 3, 0, 10, 10, 1),
        span(Layer::AggPartial, 3, 10, 30, 20, 1),
        span(Layer::AggDecode, 3, 12, 20, 8, 1),
        span(Layer::Run, 3, 0, 30, 30, 1),
    ];
    let tree = Tree::build(spans);
    let own = |i: usize| tree.self_ns[i];
    assert_eq!(
        tree.parent,
        vec![
            None,
            Some(0),
            Some(0),
            Some(2),
            Some(2),
            Some(0),
            None,
            Some(6),
            Some(11),
            Some(11),
            Some(9),
            None
        ]
    );
    assert_eq!(own(0), 100 - 10 - 50 - 5);
    assert_eq!(own(2), 50 - 20 - 10);
    assert_eq!(own(3), 20);
    assert_eq!(tree.spans[6].end, 70);
    assert_eq!(own(6), 40 - 25);
    assert_eq!(own(9), 20 - 8);
    assert_eq!(own(8), 10);
    // Non-root self time over root time.
    let inside = 10 + 20 + 20 + 10 + 5 + 25 + 10 + 12 + 8;
    let roots = 100 + 40 + 30;
    assert!((tree.coverage() - inside as f64 / roots as f64).abs() < 1e-12);
}

fn json_names(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |chunk: &str, key: &str| {
        let at = chunk.find(&format!("\"{key}\"")).expect("key present");
        let rest = &chunk[at + key.len() + 2..];
        let open = rest.find('"').unwrap() + 1;
        let close = open + rest[open..].find('"').unwrap();
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|c| (field(c, "name"), field(c, "unit")))
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_the_emitted_set() {
    let e2e = json_names("end_to_end");
    let layers = json_names("per_layer");
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert!(!layers.is_empty() && layers.len() <= 128);
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    let listed: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        layers, listed,
        "BENCHMARK.json per_layer must list PER_LAYER in order"
    );
    // The traced run emits every per-layer metric but the overhead, which
    // needs the untraced binary's wall time.
    let tree = Tree::build(vec![span(Layer::Run, 1, 0, 10, 10, 1)]);
    let emitted: Vec<&str> = per_layer(&tree, &Default::default(), &RunInfo::default())
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let expected: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n != "trace.overhead_share")
        .collect();
    assert_eq!(emitted, expected);
}
