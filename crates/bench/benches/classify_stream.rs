//! Throughput of the streaming classification engine across shard counts.
//!
//! Synthesizes a ≥100k-flow capture in memory, replays it through the
//! columnar batch path ([`PcapMemSource`] → [`BatchClassifier`]) at
//! 1/2/4/8 shards, checks the outputs agree, and records flows/sec per
//! shard count in `BENCH_classify_stream.json` at the repo root (set
//! `BENCH_OUT_PATH` to write elsewhere).
//!
//! A single-threaded `control` row rides along: the same
//! [`PcapMemSource`] ingest, but each flow is materialized, classified by
//! a per-flow [`FlowMachine`], labeled and aggregated into a
//! [`Collector`]. Its classify, label and aggregate half differs from
//! the batched row's on purpose; its ingest half (framing, `PacketView`
//! parsing, the `ColumnarFlowTable`) is shared. It is recorded together
//! with the batched figure of the same run, so `cargo xtask ci` can tell
//! host load (both slow down) from a batch-classify regression (only the
//! batched row does). An ingest regression slows both rows alike, so the
//! ratio does not see it; only the absolute floor does.
//!
//! Thread counts above the host's core count are skipped outright and
//! recorded with `"skipped_oversubscribed": true` — timing an 8-shard
//! run on a 1-core box produces a speedup column that reads as a
//! regression when it is really just scheduler noise.

use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use tamper_analysis::{capture_collector, label_capture_flow, Collector};
use tamper_capture::{
    run_source, EngineConfig, EngineStats, FlowBatch, OfflineConfig, PcapMemSource, PcapWriter,
};
use tamper_core::{BatchClassifier, ClassifierConfig, FlowMachine};
use tamper_wire::{PacketBuilder, TcpFlags};

const FLOWS: u32 = 120_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn synth_capture(n_flows: u32) -> Vec<u8> {
    let server = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
    let mut w = PcapWriter::new(Vec::with_capacity(n_flows as usize * 320)).expect("header");
    let mut record = 0u32;
    for i in 0..n_flows {
        let client = IpAddr::V4(Ipv4Addr::new(
            (10 + (i >> 16)) as u8,
            (i >> 8) as u8,
            i as u8,
            1,
        ));
        let sport = 20_000 + (i % 40_000) as u16;
        let dport = if i % 3 == 0 { 80 } else { 443 };
        let t = 100 + i / 64; // ~64 flows start per capture second
        let mut f = |ts: u32, flags, seq: u32, payload: &[u8]| {
            let frame = PacketBuilder::new(client, server, sport, dport)
                .flags(flags)
                .seq(seq)
                .ack(if seq > 100 { 500 } else { 0 })
                .ttl(52)
                .ip_id((seq ^ i) as u16)
                .payload(bytes::Bytes::copy_from_slice(payload))
                .build()
                .emit();
            w.write_frame(ts, record % 1_000_000, &frame)
                .expect("frame");
            record += 1;
        };
        match i % 4 {
            0 => {
                f(t, TcpFlags::SYN, 100, b"");
                f(t, TcpFlags::ACK, 101, b"");
                f(
                    t + 1,
                    TcpFlags::PSH_ACK,
                    101,
                    b"GET / HTTP/1.1\r\nHost: x.example\r\n\r\n",
                );
                f(t + 2, TcpFlags::FIN_ACK, 137, b"");
            }
            1 => f(t, TcpFlags::SYN, 100, b""),
            2 => {
                f(t, TcpFlags::SYN, 100, b"");
                f(t, TcpFlags::RST, 101, b"");
            }
            _ => {
                f(t, TcpFlags::SYN, 100, b"");
                f(t, TcpFlags::ACK, 101, b"");
                f(t + 1, TcpFlags::PSH_ACK, 101, b"hello");
                f(t + 1, TcpFlags::RST_ACK, 106, b"");
            }
        }
    }
    w.into_inner()
}

/// Per-shard accumulator for the batched run: classify whole batches
/// over the column slices and keep only aggregate counts, so the sink
/// cost reflects classification, not rendering.
struct BatchSink {
    clf: BatchClassifier,
    flows: u64,
    tampered: u64,
}

fn run_batched(bytes: &bytes::Bytes, threads: usize) -> (u64, u64, EngineStats) {
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads,
        ..EngineConfig::default()
    };
    let clf_cfg = ClassifierConfig::default();
    let src = PcapMemSource::new(bytes.clone()).expect("pcap header");
    let (sink, stats) = run_source(
        src,
        &cfg,
        || BatchSink {
            clf: BatchClassifier::new(clf_cfg),
            flows: 0,
            tampered: 0,
        },
        |sink: &mut BatchSink, batch: FlowBatch| {
            for analysis in sink.clf.classify_batch(&batch) {
                sink.flows += 1;
                sink.tampered += u64::from(analysis.is_possibly_tampered());
            }
        },
        |a, b| {
            a.flows += b.flows;
            a.tampered += b.tampered;
        },
    );
    (sink.flows, sink.tampered, stats)
}

/// Per-shard accumulator for the control run: one per-flow machine and a
/// collector.
struct ControlSink {
    machine: FlowMachine,
    col: Collector,
}

fn run_control(bytes: &bytes::Bytes) -> (Collector, EngineStats) {
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads: 1,
        ..EngineConfig::default()
    };
    let clf_cfg = ClassifierConfig::default();
    let src = PcapMemSource::new(bytes.clone()).expect("pcap header");
    let (sink, stats) = run_source(
        src,
        &cfg,
        || ControlSink {
            machine: FlowMachine::new(clf_cfg),
            col: capture_collector(clf_cfg, 0),
        },
        |sink: &mut ControlSink, batch: FlowBatch| {
            for i in 0..batch.flow_count() {
                let lf = label_capture_flow(batch.materialize(i));
                let analysis = sink.machine.analyze(&lf.flow);
                sink.col.observe_analyzed(&lf, &analysis);
            }
        },
        |a, b| a.col.merge(b.col),
    );
    (sink.col, stats)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("synthesizing {FLOWS} flows...");
    let bytes = bytes::Bytes::from(synth_capture(FLOWS));
    eprintln!("capture: {} MiB on {cores} core(s)", bytes.len() >> 20);

    // Control run, single shard. Also the reference verdict counts the
    // batched runs must reproduce.
    let (control_col, control_stats) = run_control(&bytes);
    let control_start = Instant::now();
    let (control_col2, _) = run_control(&bytes);
    let control_secs = control_start.elapsed().as_secs_f64();
    assert_eq!(control_col.total, control_col2.total);
    let control_fps = control_stats.ingest.flows as f64 / control_secs;
    eprintln!("control 1-thread: {control_secs:.3}s, {control_fps:.0} flows/s");

    // Warm up page cache / allocator on the batched path, and pin the
    // batched verdicts to the control ones.
    let (base_flows, base_tampered, base_stats) = run_batched(&bytes, 1);
    assert_eq!(base_flows, control_col.total, "flow totals diverged");
    assert_eq!(
        base_tampered, control_col.possibly_tampered,
        "batched and control verdict counts disagree"
    );

    let mut rows = Vec::new();
    let mut base_secs = 0f64;
    let mut base_fps = 0f64;
    for &threads in &THREAD_COUNTS {
        if threads > cores {
            eprintln!("threads {threads}: skipped (host has {cores} core(s))");
            rows.push(format!(
                "    {{\"threads\": {threads}, \"skipped_oversubscribed\": true}}"
            ));
            continue;
        }
        let start = Instant::now();
        let (flows, tampered, stats) = run_batched(&bytes, threads);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            flows, base_flows,
            "flow totals diverged at {threads} shards"
        );
        assert_eq!(
            tampered, base_tampered,
            "verdicts diverged at {threads} shards"
        );
        assert_eq!(stats.ingest.flows, base_stats.ingest.flows);
        let fps = stats.ingest.flows as f64 / secs;
        if threads == 1 {
            base_secs = secs;
            base_fps = fps;
        }
        let speedup = base_secs / secs;
        eprintln!("threads {threads}: {secs:.3}s, {fps:.0} flows/s, {speedup:.2}x vs 1",);
        rows.push(format!(
            "    {{\"threads\": {threads}, \"secs\": {secs:.4}, \"flows_per_sec\": {fps:.0}, \"speedup_vs_1\": {speedup:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"classify_stream\",\n  \"flows\": {},\n  \"records\": {},\n  \"cores\": {cores},\n  \"control\": {{\"threads\": 1, \"secs\": {control_secs:.4}, \"flows_per_sec\": {control_fps:.0}, \"batched_flows_per_sec\": {base_fps:.0}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        base_stats.ingest.flows,
        base_stats.records,
        rows.join(",\n"),
    );
    let path = std::env::var("BENCH_OUT_PATH").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_classify_stream.json"
        )
        .to_string()
    });
    std::fs::write(&path, &json).expect("write BENCH_classify_stream.json");
    println!("{json}");
}
