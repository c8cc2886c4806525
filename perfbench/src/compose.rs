//! The benchmark's library compositions of `tamperscope classify`,
//! `report` and `merge`: the same public calls, in the same order, with
//! the same arguments as `src/bin/tamperscope.rs`, so they write the same
//! bytes. With a [`TraceLog`] every call into a layer is timed; without
//! one they record nothing.

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use tamperscope::analysis::{
    capture_collector, config_fingerprint, decode_agg, flow_to_jsonl, label_capture_flow,
    merge_checked, report, Collector, PartialAggregate,
};
use tamperscope::capture::FlowRecord;
use tamperscope::capture::{
    run_source, EngineConfig, EngineStats, FlowBatch, OfflineConfig, PcapMemSource, SimSource,
};
use tamperscope::core::{BatchClassifier, ClassifierConfig, FlowAnalysis, FlowMachine};
use tamperscope::worldgen::{generate_lists, world_fingerprint, WorldConfig, WorldSim};

use crate::trace::{now, Layer, Probe, Span, TraceLog};
use crate::wrap::TracedSource;

/// `classify` output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The default verdict lines.
    Lines,
    /// `--jsonl`.
    Jsonl,
}

/// What a composition reports besides its output bytes.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// The engine's counters.
    pub stats: EngineStats,
    /// Flows observed by each shard, in shard order.
    pub shard_flows: Vec<u64>,
    /// Flows in the command's result: verdict lines, or the report's
    /// `total`.
    pub flows: u64,
}

/// The binary's verdict-line format (`classify` without `--jsonl`).
fn verdict_line(flow: &FlowRecord, analysis: &FlowAnalysis) -> String {
    let verdict = match analysis.signature() {
        Some(sig) => format!("TAMPERED  {sig}"),
        None if analysis.is_possibly_tampered() => "possibly tampered".to_owned(),
        None => "clean".to_owned(),
    };
    let domain = analysis.trigger.domain.as_deref().unwrap_or("-");
    format!(
        "{}:{} -> :{}  [{} pkts]  {:<40} {}",
        flow.client_ip,
        flow.src_port,
        flow.dst_port,
        flow.packets.len(),
        verdict,
        domain
    )
}

struct ClassifySink {
    clf: BatchClassifier,
    col: Collector,
    lines: Vec<(u64, String)>,
    flows: u64,
    probe: Probe,
}

/// `tamperscope classify <capture> [--jsonl] --threads <threads>`,
/// writing stdout's bytes to `out`.
pub fn classify(
    capture: &Path,
    format: Format,
    threads: usize,
    out: &mut dyn Write,
    log: Option<&TraceLog>,
) -> io::Result<RunInfo> {
    let on = log.is_some();
    let mut main = Probe::new(on);
    let t_run = now();
    let bytes = main.time(Layer::CaptureRead, || std::fs::read(capture))?;
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads,
        max_flows: 0,
        ..EngineConfig::default()
    };
    let src = main
        .time(Layer::CaptureOpen, || PcapMemSource::new(bytes.into()))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let clf_cfg = ClassifierConfig::default();
    let init = || ClassifySink {
        clf: BatchClassifier::new(clf_cfg),
        col: capture_collector(clf_cfg, 0),
        lines: Vec::new(),
        flows: 0,
        probe: Probe::new(on),
    };
    let observe = |sink: &mut ClassifySink, batch: FlowBatch| {
        let p = &mut sink.probe;
        let t0 = if p.on() { now() } else { 0 };
        p.counts.arena_bytes += batch.arena_bytes() as u64;
        let mut t = t0;
        for i in 0..batch.flow_count() {
            let first_index = batch.spans()[i].first_index;
            let analysis = p.lap(Layer::Classify, &mut t, || {
                sink.clf.classify_span(&batch, i)
            });
            let flow = p.lap(Layer::Materialize, &mut t, || batch.materialize(i));
            let lf = p.lap(Layer::Label, &mut t, || label_capture_flow(flow));
            p.lap(Layer::Record, &mut t, || {
                sink.col.observe_analyzed(&lf, &analysis)
            });
            let line = match format {
                Format::Jsonl => p.lap(Layer::RenderJsonl, &mut t, || {
                    flow_to_jsonl(&lf.flow, &analysis)
                }),
                Format::Lines => p.lap(Layer::RenderLine, &mut t, || {
                    verdict_line(&lf.flow, &analysis)
                }),
            };
            sink.lines.push((first_index, line));
        }
        sink.flows += batch.flow_count() as u64;
        if p.on() {
            p.add(Layer::Observe, t0, now());
        }
    };
    let mut shard_flows = Vec::new();
    let merge = |a: &mut ClassifySink, mut b: ClassifySink| {
        if let Some(log) = log {
            b.probe.flush(log);
        }
        shard_flows.push(b.flows);
        main.time(Layer::ShardMerge, || a.col.merge(b.col));
        a.lines.append(&mut b.lines);
    };
    let (mut sink, stats) = match log {
        Some(log) => run_source(
            TracedSource::new(src, log, Layer::Absorb),
            &cfg,
            init,
            observe,
            merge,
        ),
        None => run_source(src, &cfg, init, observe, merge),
    };
    shard_flows.insert(0, sink.flows);
    let t_write = now();
    sink.lines.sort_by_key(|(first_index, _)| *first_index);
    let mut w = BufWriter::new(out);
    for (_, line) in &sink.lines {
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    drop(w);
    if let Some(log) = log {
        let t_end = now();
        main.add(Layer::SortWrite, t_write, t_end);
        main.add(Layer::Run, t_run, t_end);
        sink.probe.flush(log);
        main.flush(log);
    }
    Ok(RunInfo {
        stats,
        shard_flows,
        flows: sink.lines.len() as u64,
    })
}

/// The world every `report` / `pop-run` / `merge` run of the benchmark
/// uses (the binary's defaults apart from sessions and seed).
pub fn world_config(sessions: u64, seed: u64) -> WorldConfig {
    WorldConfig {
        sessions,
        days: 14,
        seed,
        ..Default::default()
    }
}

struct ReportSink {
    machine: FlowMachine,
    col: Collector,
    flows: u64,
    probe: Probe,
}

fn write_report(
    main: &mut Probe,
    out: &mut dyn Write,
    sim: &WorldSim,
    agg: &PartialAggregate,
) -> io::Result<()> {
    let text = main.time(Layer::RenderReport, || {
        let lists = generate_lists(sim);
        report::full_report(&agg.view(), sim, &lists)
    });
    main.time(Layer::SortWrite, || {
        let mut w = BufWriter::new(out);
        writeln!(w, "{text}")?;
        w.flush()
    })
}

/// `tamperscope report --sessions <sessions> --seed <seed> --threads
/// <threads>`, writing stdout's bytes to `out`.
pub fn world_report(
    sessions: u64,
    seed: u64,
    threads: usize,
    out: &mut dyn Write,
    log: Option<&TraceLog>,
) -> io::Result<RunInfo> {
    let on = log.is_some();
    let mut main = Probe::new(on);
    let t_run = now();
    let sim = main.time(Layer::WorldSetup, || {
        WorldSim::new(world_config(sessions, seed))
    });
    let mk = || ReportSink {
        machine: FlowMachine::new(ClassifierConfig::default()),
        col: Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            sim.config().days,
            sim.config().start_unix,
        ),
        flows: 0,
        probe: Probe::new(on),
    };
    // `Collector::observe` is `FlowMachine::analyze` then
    // `observe_analyzed`; the two calls are made separately to time them.
    let observe = |s: &mut ReportSink, lf: tamperscope::worldgen::LabeledFlow| {
        let p = &mut s.probe;
        let t0 = if p.on() { now() } else { 0 };
        let mut t = t0;
        let analysis = p.lap(Layer::Machine, &mut t, || s.machine.analyze(&lf.flow));
        p.lap(Layer::Record, &mut t, || {
            s.col.observe_analyzed(&lf, &analysis)
        });
        s.flows += 1;
        if p.on() {
            p.add(Layer::Observe, t0, now());
        }
    };
    let mut shard_flows = Vec::new();
    let merge = |a: &mut ReportSink, mut b: ReportSink| {
        if let Some(log) = log {
            b.probe.flush(log);
        }
        shard_flows.push(b.flows);
        main.time(Layer::ShardMerge, || a.col.merge(b.col));
    };
    // The same engine call `WorldSim::run_sharded_observed` makes.
    let cfg = EngineConfig {
        threads: threads.max(1),
        ..EngineConfig::default()
    };
    let gen = |i: u64| sim.gen_session(i);
    let src = SimSource::new(sim.config().sessions, &gen);
    let (mut acc, stats) = match log {
        Some(log) => run_source(
            TracedSource::new(src, log, Layer::GenSession),
            &cfg,
            mk,
            observe,
            merge,
        ),
        None => run_source(src, &cfg, mk, observe, merge),
    };
    shard_flows.insert(0, acc.flows);
    write_report(&mut main, out, &sim, acc.col.partial())?;
    let info = RunInfo {
        stats,
        shard_flows,
        flows: acc.col.total,
    };
    if let Some(log) = log {
        main.add(Layer::Run, t_run, now());
        acc.probe.flush(log);
        main.flush(log);
    }
    Ok(info)
}

/// `tamperscope merge <partials...> --sessions <sessions> --seed <seed>`,
/// writing stdout's bytes to `out`. With a log, each partial's read,
/// decode and fold are single spans under one `analysis.agg_partial`.
pub fn merge_pops(
    partials: &[PathBuf],
    sessions: u64,
    seed: u64,
    out: &mut dyn Write,
    log: Option<&TraceLog>,
) -> io::Result<RunInfo> {
    let bad = |path: &Path, e: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    };
    let mut main = Probe::new(log.is_some());
    let t_run = now();
    let sim = main.time(Layer::WorldSetup, || {
        WorldSim::new(world_config(sessions, seed))
    });
    let expected = config_fingerprint(
        &ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days as usize * 24,
        sim.config().start_unix,
        world_fingerprint(sim.config()),
    );
    let mut spans = Vec::new();
    let mut acc: Option<PartialAggregate> = None;
    let tid = crate::trace::thread_id();
    for path in partials {
        let t0 = now();
        let bytes = std::fs::read(path)?;
        let t1 = now();
        let part = decode_agg(&bytes).map_err(|e| bad(path, e.to_string()))?;
        let t2 = now();
        if part.fingerprint() != expected {
            return Err(bad(path, "config fingerprint mismatch".into()));
        }
        match acc.as_mut() {
            None => acc = Some(part),
            Some(a) => merge_checked(a, part).map_err(|e| bad(path, e.to_string()))?,
        }
        let t3 = now();
        main.counts.agg_bytes += bytes.len() as u64;
        if log.is_some() {
            spans.push(Span::single(Layer::AggPartial, tid, t0, t3));
            spans.push(Span::single(Layer::AggRead, tid, t0, t1));
            spans.push(Span::single(Layer::AggDecode, tid, t1, t2));
            spans.push(Span::single(Layer::AggFold, tid, t2, t3));
        }
    }
    let acc = acc.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no partials"))?;
    write_report(&mut main, out, &sim, &acc)?;
    if let Some(log) = log {
        main.add(Layer::Run, t_run, now());
        log.push(spans, &Default::default());
        main.flush(log);
    }
    // No engine runs here: no shards, no engine counters.
    Ok(RunInfo {
        stats: EngineStats::default(),
        shard_flows: Vec::new(),
        flows: acc.total,
    })
}
