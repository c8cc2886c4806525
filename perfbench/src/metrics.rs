//! Per-layer metrics of one traced run, computed from its span tree.

use crate::compose::RunInfo;
use crate::trace::{Counts, Layer, Tree};

/// Every per-layer metric the traced run reports, with its unit, in the
/// order of `BENCHMARK.json`. A metric whose layer does not run on a
/// workload reads 0 there. `trace.overhead_share` needs the untraced
/// binary's wall time, so `run.py` fills it in.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("capture.fill.ns_per_record", "ns"),
    ("capture.route.ns_per_record", "ns"),
    ("capture.absorb.ns_per_packet", "ns"),
    ("capture.table.high_water", "count"),
    ("capture.finish.s", "s"),
    ("capture.engine.channel_stalls", "count"),
    ("capture.engine.shard_wait_s", "s"),
    ("capture.engine.shard_skew", "ratio"),
    ("core.classify.ns_per_flow", "ns"),
    ("core.machine.ns_per_flow", "ns"),
    ("capture.materialize.ns_per_flow", "ns"),
    ("capture.batch.arena_bytes_per_flow", "B"),
    ("analysis.label.ns_per_flow", "ns"),
    ("analysis.record.ns_per_flow", "ns"),
    ("analysis.shard_merge.s", "s"),
    ("analysis.render_jsonl.ns_per_flow", "ns"),
    ("analysis.render_line.ns_per_flow", "ns"),
    ("output.sort_write.s", "s"),
    ("worldgen.gen_session.ns_per_session", "ns"),
    ("worldgen.gen_session.kept_share", "ratio"),
    ("worldgen.setup.s", "s"),
    ("analysis.agg_read.s", "s"),
    ("analysis.agg_decode.ns_per_byte", "ns"),
    ("analysis.agg_fold.us_per_partial", "us"),
    ("analysis.agg_partial.p50_us", "us"),
    ("analysis.agg_partial.p95_us", "us"),
    ("analysis.render_report.s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The metrics of [`PER_LAYER`] except `trace.overhead_share`.
pub fn per_layer(tree: &Tree, counts: &Counts, info: &RunInfo) -> Vec<(&'static str, f64)> {
    let per_call = |l: Layer| {
        let (busy, calls) = tree.busy(l);
        ratio(busy as f64, calls as f64)
    };
    let secs = |l: Layer| tree.busy(l).0 as f64 / 1e9;
    let records = info.stats.records as f64;
    let skew = match (info.shard_flows.iter().max(), info.shard_flows.iter().min()) {
        (Some(&max), Some(&min)) => ratio(max as f64, min as f64),
        _ => 0.0,
    };
    let mut partials: Vec<u64> = tree
        .spans
        .iter()
        .filter(|s| s.layer == Layer::AggPartial)
        .map(|s| s.busy)
        .collect();
    let p50 = percentile(&mut partials, 50.0) as f64 / 1e3;
    let p95 = percentile(&mut partials, 95.0) as f64 / 1e3;
    vec![
        (
            "capture.fill.ns_per_record",
            ratio(tree.busy(Layer::Fill).0 as f64, records),
        ),
        (
            "capture.route.ns_per_record",
            ratio(tree.busy(Layer::Route).0 as f64, records),
        ),
        ("capture.absorb.ns_per_packet", per_call(Layer::Absorb)),
        ("capture.table.high_water", info.stats.max_live_flows as f64),
        ("capture.finish.s", secs(Layer::Finish)),
        (
            "capture.engine.channel_stalls",
            info.stats.channel_stalls as f64,
        ),
        (
            "capture.engine.shard_wait_s",
            tree.self_time(Layer::Shard) as f64 / 1e9,
        ),
        ("capture.engine.shard_skew", skew),
        ("core.classify.ns_per_flow", per_call(Layer::Classify)),
        ("core.machine.ns_per_flow", per_call(Layer::Machine)),
        (
            "capture.materialize.ns_per_flow",
            per_call(Layer::Materialize),
        ),
        (
            "capture.batch.arena_bytes_per_flow",
            ratio(
                counts.arena_bytes as f64,
                tree.busy(Layer::Materialize).1 as f64,
            ),
        ),
        ("analysis.label.ns_per_flow", per_call(Layer::Label)),
        ("analysis.record.ns_per_flow", per_call(Layer::Record)),
        ("analysis.shard_merge.s", secs(Layer::ShardMerge)),
        (
            "analysis.render_jsonl.ns_per_flow",
            per_call(Layer::RenderJsonl),
        ),
        (
            "analysis.render_line.ns_per_flow",
            per_call(Layer::RenderLine),
        ),
        ("output.sort_write.s", secs(Layer::SortWrite)),
        (
            "worldgen.gen_session.ns_per_session",
            per_call(Layer::GenSession),
        ),
        (
            "worldgen.gen_session.kept_share",
            ratio(counts.kept as f64, tree.busy(Layer::GenSession).1 as f64),
        ),
        ("worldgen.setup.s", secs(Layer::WorldSetup)),
        ("analysis.agg_read.s", secs(Layer::AggRead)),
        (
            "analysis.agg_decode.ns_per_byte",
            ratio(
                tree.busy(Layer::AggDecode).0 as f64,
                counts.agg_bytes as f64,
            ),
        ),
        (
            "analysis.agg_fold.us_per_partial",
            per_call(Layer::AggFold) / 1e3,
        ),
        ("analysis.agg_partial.p50_us", p50),
        ("analysis.agg_partial.p95_us", p95),
        ("analysis.render_report.s", secs(Layer::RenderReport)),
        ("trace.coverage", tree.coverage()),
    ]
}
