//! `tamperscope` — the command-line front end.
//!
//! ```text
//! tamperscope classify <capture.pcap> [--jsonl] [--port 80 --port 443]
//! tamperscope report   [--sessions N] [--days D] [--seed S] [--threads T]
//! tamperscope iran     [--sessions N] [--seed S]
//! tamperscope synthesize <out.pcap> [--sessions N] [--tamper-share F]
//! tamperscope signatures
//! tamperscope world-spec   (the calibration table as JSON lines)
//! ```
//!
//! `classify` is the production path: feed it a server-side raw-IP pcap
//! (LINKTYPE_RAW) and it prints per-flow verdicts or JSON lines. The other
//! subcommands drive the simulation substrate that reproduces the paper.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use tamperscope::analysis::{
    capture_collector, capture_meta, capture_summary_to_json, config_fingerprint, decode_agg,
    encode_agg, engine_perf_to_json, merge_checked, pct, report, summary_to_json, write_jsonl,
    write_line, write_metrics_json, AggError, Collector, PartialAggregate,
};
use tamperscope::capture::{
    run_source_observed, EngineConfig, FlowBatch, OfflineConfig, PcapMemSource, PcapWriter,
    SimSource,
};
use tamperscope::cli::Args;
use tamperscope::core::{explain, BatchClassifier, ClassifierConfig};
use tamperscope::middlebox::{RuleSet, Vendor, ALL_VENDORS};
use tamperscope::netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, ServerConfig, SessionParams, SimDuration,
    SimTime,
};
use tamperscope::obs::{Registry, ScopeMetrics, Stopwatch};
use tamperscope::worldgen::{
    generate_lists, world_fingerprint, Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX,
};

fn usage() -> ExitCode {
    eprintln!(
        "tamperscope — passive detection of connection tampering (SIGCOMM'23 reproduction)

USAGE:
    tamperscope classify <capture.pcap> [--jsonl | --explain] [--threads T]
                         [--max-flows M] [--json-summary] [--metrics-json m.json]
    tamperscope report   [--sessions N] [--days D] [--seed S] [--threads T]
                         [--json-summary] [--world spec.json] [--metrics-json m.json]
    tamperscope pop-run  --pops P --out DIR [--sessions N] [--days D] [--seed S]
                         [--threads T]   (one partial aggregate .agg file per PoP)
    tamperscope merge    <pop0.agg> [pop1.agg ...] [--sessions N] [--days D] [--seed S]
                         [--json-summary]   (merge partials; bytes match `report`)
    tamperscope iran     [--sessions N] [--seed S] [--threads T] [--metrics-json m.json]
    tamperscope synthesize <out.pcap> [--sessions N] [--seed S] [--threads T]
                         [--metrics-json m.json]
    tamperscope signatures
    tamperscope world-spec [--full]   (--full emits the loadable JSON schema)"
    );
    ExitCode::from(2)
}

/// Parse a numeric `--flag` strictly: a typo is a usage error, not a
/// silently different run.
macro_rules! flag_u64 {
    ($args:expr, $name:expr, $default:expr) => {
        match $args.get_u64_strict($name, $default) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("tamperscope: {e}");
                return usage();
            }
        }
    };
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    match cmd.as_str() {
        "classify" => cmd_classify(&args),
        "report" => cmd_report(&args),
        "pop-run" => cmd_pop_run(&args),
        "merge" => cmd_merge(&args),
        "iran" => cmd_iran(&args),
        "synthesize" => cmd_synthesize(&args),
        "signatures" => cmd_signatures(),
        "world-spec" => cmd_world_spec(&args),
        _ => usage(),
    }
}

fn cmd_signatures() -> ExitCode {
    use tamperscope::core::Signature;
    println!("{:<4} {:<20} {:<34} Description", "#", "Stage", "Signature");
    for (i, sig) in Signature::ALL.iter().enumerate() {
        println!(
            "{:<4} {:<20} {:<34} {}",
            i + 1,
            sig.stage().label(),
            sig.label(),
            sig.description()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_world_spec(args: &Args) -> ExitCode {
    use tamperscope::analysis::JsonObject;
    let world = tamperscope::worldgen::policy::world_spec();
    if args.has("full") {
        // The complete, loadable schema (see `report --world`).
        println!("{}", tamperscope::worldgen::world_to_json(&world));
        return ExitCode::SUCCESS;
    }
    for spec in &world {
        let p = &spec.policy;
        let syn: f64 = p.syn_rules.iter().map(|(_, r)| r).sum();
        let fw: f64 = p.fw_rules.iter().map(|(_, r)| r).sum();
        let dpi_vendors = p
            .dpi_mix
            .iter()
            .map(|(v, w)| format!("{v:?}:{w}"))
            .collect::<Vec<_>>()
            .join(",");
        let line = JsonObject::new()
            .str("country", &spec.country.code)
            .float("weight", spec.country.weight)
            .int("tz_offset_hours", i64::from(spec.country.tz_offset_hours))
            .float("ipv6_share", spec.country.ipv6_share)
            .uint("n_ases", spec.country.n_ases as u64)
            .float("centralization", spec.country.centralization)
            .float("http_share", spec.country.http_share)
            .float("syn_rate", syn)
            .float("dpi_blanket", p.dpi_blanket)
            .float("dpi_enforce", p.dpi_enforce)
            .float("fw_rate", fw)
            .str("dpi_mix", &dpi_vendors)
            .float("diurnal_amp", p.diurnal_amp)
            .finish();
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[derive(Clone, Copy, PartialEq)]
enum ClassifyMode {
    Lines,
    Jsonl,
    Explain,
}

/// One shard's rendered output: every line, newline included, back to
/// back in fixed-size text chunks, indexed by its flow's global
/// first-record index so the merged output sorts into a
/// thread-count-independent order.
///
/// Chunks are allocated once at [`LINE_CHUNK`] bytes and never grow (a
/// line starts a new chunk when less than [`LINE_SLACK`] is left), which
/// keeps them under the allocator's mmap threshold: they fill memory the
/// run has already freed instead of adding a region the size of the whole
/// output, the way a single doubling buffer does.
#[derive(Default)]
struct Lines {
    chunks: Vec<String>,
    /// `(first_index, chunk, start, end)` per line, in render order.
    index: Vec<(u64, u32, u32, u32)>,
}

/// Bytes per text chunk of [`Lines`].
const LINE_CHUNK: usize = 64 << 10;

/// Room a chunk must have left for the next line to start in it. A line
/// longer than that (an `--explain` narrative) grows its chunk instead.
const LINE_SLACK: usize = 2 << 10;

impl Lines {
    /// Render one line through `render`, append its newline, and index it
    /// under the flow's first-record index.
    fn push(&mut self, first_index: u64, render: impl FnOnce(&mut String)) {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.capacity() - c.len() < LINE_SLACK)
        {
            self.chunks.push(String::with_capacity(LINE_CHUNK));
        }
        let chunk = self.chunks.len() - 1;
        let text = &mut self.chunks[chunk];
        let start = text.len();
        render(text);
        text.push('\n');
        self.index
            .push((first_index, chunk as u32, start as u32, text.len() as u32));
    }

    /// The bytes of the `i`-th indexed line.
    fn line(&self, i: usize) -> &[u8] {
        let (_, chunk, start, end) = self.index[i];
        &self.chunks[chunk as usize].as_bytes()[start as usize..end as usize]
    }
}

/// Per-shard classify state: a scratch-reusing columnar batch
/// classifier, a collector slice, the shard's own lines, and the lines of
/// the shards merged into it (kept as they are, never concatenated).
struct ClassifySink {
    clf: BatchClassifier,
    col: Collector,
    lines: Lines,
    merged: Vec<Lines>,
    matched: u64,
}

fn cmd_classify(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.has("jsonl") {
        ClassifyMode::Jsonl
    } else if args.has("explain") {
        ClassifyMode::Explain
    } else {
        ClassifyMode::Lines
    };
    let cfg = EngineConfig {
        offline: OfflineConfig::default(),
        threads: flag_u64!(args, "threads", 0) as usize,
        max_flows: flag_u64!(args, "max-flows", 0) as usize,
        ..EngineConfig::default()
    };
    let clf_cfg = ClassifierConfig::default();
    let init = || ClassifySink {
        clf: BatchClassifier::new(clf_cfg),
        col: capture_collector(clf_cfg, 0),
        lines: Lines::default(),
        merged: Vec::new(),
        matched: 0,
    };
    let observe = |sink: &mut ClassifySink, batch: FlowBatch| {
        for (i, span) in batch.spans().iter().enumerate() {
            // Classification, aggregation and rendering all read the
            // batch's column slices; only `--explain` builds an owning
            // record, for its per-packet narrative.
            let analysis = sink.clf.classify_span(&batch, i);
            let tuple = batch.tuple(span);
            let cols = batch.flow_cols(i);
            let meta = capture_meta(tuple, &cols);
            sink.col.record_view(&meta, tuple, &cols, &analysis);
            if analysis.signature().is_some() {
                sink.matched += 1;
            }
            sink.lines.push(span.first_index, |out| match mode {
                ClassifyMode::Jsonl => {
                    write_jsonl(out, tuple, cols.len(), span.truncated, &analysis);
                }
                ClassifyMode::Lines => write_line(out, tuple, cols.len(), &analysis),
                ClassifyMode::Explain => {
                    out.push_str(&explain(&batch.materialize(i), &analysis));
                }
            });
        }
    };
    let merge = |a: &mut ClassifySink, mut b: ClassifySink| {
        a.col.merge(b.col);
        a.merged.push(b.lines);
        a.merged.append(&mut b.merged);
        a.matched += b.matched;
    };
    // Metrics ride a side registry and land in their own file, so the
    // verdict/summary bytes stay identical with or without `--metrics-json`
    // (and across thread counts).
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let src = match PcapMemSource::new(bytes.into()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (sink, stats) = run_source_observed(src, &cfg, registry.as_ref(), init, observe, merge);
    eprintln!(
        "[{path}] {} flows / {} packets ({} non-inbound, {} unparsable frames skipped, {} threads)",
        stats.ingest.flows,
        stats.ingest.packets,
        stats.ingest.not_inbound,
        stats.ingest.unparsable,
        stats.threads
    );
    if stats.corrupt_tail {
        eprintln!("[{path}] warning: capture tail is corrupt; trailing records dropped");
    }
    let mut shards = sink.merged;
    shards.push(sink.lines);
    // First-record indices are unique per flow, so each shard's order is
    // total; a merge across the sorted shards then writes every line in
    // global order without a combined index.
    for lines in &mut shards {
        lines
            .index
            .sort_unstable_by_key(|&(first_index, ..)| first_index);
    }
    let mut next = vec![0usize; shards.len()];
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    while let Some(s) = (0..shards.len())
        .filter(|&s| next[s] < shards[s].index.len())
        .min_by_key(|&s| shards[s].index[next[s]].0)
    {
        let _ = out.write_all(shards[s].line(next[s]));
        next[s] += 1;
    }
    if args.has("json-summary") {
        let _ = writeln!(out, "{}", capture_summary_to_json(&sink.col, &stats));
        let _ = writeln!(out, "{}", engine_perf_to_json(&stats));
    }
    drop(out);
    if let (Some(mpath), Some(reg)) = (metrics_path, &registry) {
        if let Err(e) = write_metrics_json(mpath, &reg.snapshot()) {
            eprintln!("cannot write {mpath}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{mpath}] engine metrics written");
    }
    eprintln!(
        "{} of {} flows match a tampering signature ({})",
        sink.matched,
        stats.ingest.flows,
        pct(sink.matched, stats.ingest.flows)
    );
    ExitCode::SUCCESS
}

fn threads(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(4);
    Ok(args.get_u64_strict("threads", default)? as usize)
}

fn cmd_report(args: &Args) -> ExitCode {
    let threads = match threads(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    let cfg = WorldConfig {
        sessions: flag_u64!(args, "sessions", 200_000),
        days: flag_u64!(args, "days", 14) as u32,
        seed: flag_u64!(args, "seed", 20230112),
        ..Default::default()
    };
    let sim = match args.get("world") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match tamperscope::worldgen::world_from_json(&text) {
                Ok(world) => {
                    eprintln!("[world] loaded {} countries from {path}", world.len());
                    WorldSim::with_world(cfg, world)
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => WorldSim::new(cfg),
    };
    let mk = || {
        Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            sim.config().days,
            sim.config().start_unix,
        )
    };
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    // Stderr progress timing goes through the obs stopwatch — the one
    // sanctioned wall-clock entry point — and never enters report bytes.
    let run_sw = Stopwatch::start();
    let col = sim.run_sharded(
        threads,
        registry.as_ref(),
        mk,
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    );
    let run_ns = run_sw.elapsed_ns().unwrap_or(0);
    eprintln!("[world] {} flows in {:.1}s", col.total, run_ns as f64 / 1e9);
    let mut rep = match &registry {
        Some(r) => r.scope("report"),
        None => ScopeMetrics::disabled(),
    };
    rep.record_timer("worldgen_run", run_ns);
    rep.count("flows", col.total);
    if args.has("json-summary") {
        println!("{}", summary_to_json(&col));
    } else {
        let render_sw = rep.start();
        let lists = generate_lists(&sim);
        let text = report::full_report(&col.view(), &sim, &lists);
        rep.stop("render", render_sw);
        println!("{text}");
    }
    if let (Some(mpath), Some(reg)) = (metrics_path, &registry) {
        reg.publish(rep);
        if let Err(e) = write_metrics_json(mpath, &reg.snapshot()) {
            eprintln!("cannot write {mpath}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{mpath}] pipeline metrics written");
    }
    ExitCode::SUCCESS
}

/// The world configuration shared by `pop-run` and `merge` (and matching
/// `report`'s defaults), so a merged run can be byte-compared against a
/// single-machine `report` of the same flags.
fn pop_world_config(args: &Args) -> Result<WorldConfig, String> {
    Ok(WorldConfig {
        sessions: args.get_u64_strict("sessions", 200_000)?,
        days: args.get_u64_strict("days", 14)? as u32,
        seed: args.get_u64_strict("seed", 20230112)?,
        ..Default::default()
    })
}

fn cmd_pop_run(args: &Args) -> ExitCode {
    let threads = match threads(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    let pops = flag_u64!(args, "pops", 0) as usize;
    if pops == 0 {
        eprintln!("tamperscope: pop-run requires --pops P (P >= 1)");
        return usage();
    }
    let Some(out_dir) = args.get("out") else {
        eprintln!("tamperscope: pop-run requires --out DIR");
        return usage();
    };
    let cfg = match pop_world_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let salt = world_fingerprint(&cfg);
    let sim = WorldSim::new(cfg);
    // One generation pass; each flow routes to exactly one PoP's
    // collector, so the union of the emitted partials is the whole world.
    let mk = || {
        (0..pops)
            .map(|_| {
                Collector::with_salt(
                    ClassifierConfig::default(),
                    sim.world().len(),
                    sim.config().days,
                    sim.config().start_unix,
                    salt,
                )
            })
            .collect::<Vec<_>>()
    };
    let cols = sim.run_sharded(
        threads,
        None,
        mk,
        |cs, lf| cs[sim.pop_of(pops, &lf)].observe(&lf),
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        },
    );
    for (pop, col) in cols.into_iter().enumerate() {
        let flows = col.total;
        let fingerprint = col.fingerprint();
        let bytes = encode_agg(col.partial());
        let path = format!("{out_dir}/pop{pop}.agg");
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[{path}] {flows} flows, {} bytes (fingerprint {fingerprint:016x})",
            bytes.len()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_merge(args: &Args) -> ExitCode {
    if args.positional.is_empty() {
        eprintln!("tamperscope: merge requires at least one .agg file");
        return usage();
    }
    let cfg = match pop_world_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    let sim = WorldSim::new(cfg);
    // The same combined fingerprint `pop-run` stamps into each partial:
    // collector shape plus the world salt.
    let expected = config_fingerprint(
        &ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days as usize * 24,
        sim.config().start_unix,
        world_fingerprint(sim.config()),
    );
    let mut acc: Option<PartialAggregate> = None;
    for path in &args.positional {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let part = match decode_agg(&bytes) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("tamperscope: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if part.fingerprint() != expected {
            eprintln!(
                "tamperscope: {path}: {} (file {:016x}, flags imply {expected:016x})",
                AggError::ConfigMismatch,
                part.fingerprint()
            );
            return ExitCode::from(2);
        }
        match acc.as_mut() {
            None => acc = Some(part),
            Some(a) => {
                if let Err(e) = merge_checked(a, part) {
                    eprintln!("tamperscope: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let acc = acc.expect("at least one partial checked above");
    eprintln!(
        "[merge] {} partials, {} flows (fingerprint {expected:016x})",
        args.positional.len(),
        acc.total
    );
    if args.has("json-summary") {
        println!("{}", summary_to_json(&acc));
    } else {
        let lists = generate_lists(&sim);
        println!("{}", report::full_report(&acc.view(), &sim, &lists));
    }
    ExitCode::SUCCESS
}

fn cmd_iran(args: &Args) -> ExitCode {
    let threads = match threads(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    let sim = WorldSim::new(WorldConfig {
        sessions: flag_u64!(args, "sessions", 120_000),
        days: 17,
        seed: flag_u64!(args, "seed", 20220913),
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        ..Default::default()
    });
    let mk = || Collector::new(ClassifierConfig::default(), 1, 17, SEP13_2022_UNIX);
    // Same side-registry discipline as `classify`/`report`: the engine's
    // reader/shard<i>/merge scopes plus a `report` scope, in their own
    // file, never in the fig8 bytes.
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let col = sim.run_sharded(
        threads,
        registry.as_ref(),
        mk,
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    );
    let mut rep = match &registry {
        Some(r) => r.scope("report"),
        None => ScopeMetrics::disabled(),
    };
    rep.count("flows", col.total);
    let render_sw = rep.start();
    let text = report::fig8(&col.view());
    rep.stop("render", render_sw);
    println!("{text}");
    if let (Some(mpath), Some(reg)) = (metrics_path, &registry) {
        reg.publish(rep);
        if let Err(e) = write_metrics_json(mpath, &reg.snapshot()) {
            eprintln!("cannot write {mpath}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{mpath}] pipeline metrics written");
    }
    ExitCode::SUCCESS
}

/// One synthesized session: its index plus the inbound packets to write,
/// already stamped with capture timestamps.
type SynthSession = (u64, Vec<(u32, u32, tamperscope::wire::Packet)>);

/// Generate session `i` of the synthetic benchmark capture — a pure
/// function of `(seed, i)`, so sessions can be generated on any engine
/// shard in any order.
fn synth_session(
    i: u64,
    seed: u64,
    server_ip: std::net::IpAddr,
    vendor_cycle: &[Option<Vendor>],
) -> SynthSession {
    let client_ip: std::net::IpAddr = format!("203.0.113.{}", 2 + i % 250).parse().unwrap();
    let blocked = i.is_multiple_of(2);
    let sni = if blocked {
        "blocked.example.com"
    } else {
        "fine.example.org"
    };
    let mut cfg = ClientConfig::default_tls(client_ip, server_ip, sni);
    cfg.src_port = 28_000 + ((i * 17) % 30_000) as u16;
    let vendor = vendor_cycle[i as usize % vendor_cycle.len()];
    let mut path_obj = match vendor {
        Some(v) => {
            let rules = if v.stages().on_syn {
                RuleSet::blanket()
            } else if v.stages().on_later_data {
                // Later-data vendors need a two-request flow to fire;
                // keep the session simple and let them idle instead.
                RuleSet::default()
            } else {
                RuleSet::domains(["blocked.example.com"])
            };
            Path {
                links: vec![
                    Link::new(SimDuration::from_millis(9), 4),
                    Link::new(SimDuration::from_millis(42), 9),
                ],
                hops: vec![Box::new(v.build(rules))],
            }
        }
        None => Path::direct(SimDuration::from_millis(50), 13),
    };
    let start = SimTime::ZERO + SimDuration::from_secs(2 * i);
    let mut rng = derive_rng(seed, i);
    let trace = run_session(
        SessionParams::new(cfg, ServerConfig::default_edge(server_ip, 443), start),
        &mut path_obj,
        &mut rng,
    );
    let packets = trace
        .inbound()
        .map(|tp| {
            let secs = tp.time.as_secs() as u32;
            let usec = ((tp.time.as_nanos() % 1_000_000_000) / 1_000) as u32;
            (secs, usec, tp.packet.clone())
        })
        .collect();
    (i, packets)
}

fn cmd_synthesize(args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else {
        return usage();
    };
    let threads = match threads(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tamperscope: {e}");
            return usage();
        }
    };
    let sessions = flag_u64!(args, "sessions", 200);
    let seed = flag_u64!(args, "seed", 7);
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = match PcapWriter::new(BufWriter::new(file)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server_ip: std::net::IpAddr = "198.51.100.1".parse().unwrap();
    let vendor_cycle: Vec<Option<Vendor>> = std::iter::once(None)
        .chain(ALL_VENDORS.iter().copied().map(Some))
        .collect();
    // Sessions stream through the same sharded engine as every other
    // subcommand (SimSource); the shard-order merge hands sessions back
    // in index order, and the sort below is a cheap guarantee of it.
    let metrics_path = args.get("metrics-json");
    let registry = metrics_path.map(|_| Registry::new());
    let gen = |i: u64| Some(synth_session(i, seed, server_ip, &vendor_cycle));
    let ecfg = EngineConfig {
        threads,
        ..EngineConfig::default()
    };
    let (mut generated, _stats) = run_source_observed(
        SimSource::new(sessions, &gen),
        &ecfg,
        registry.as_ref(),
        Vec::new,
        |acc: &mut Vec<SynthSession>, s| acc.push(s),
        |a: &mut Vec<SynthSession>, mut b| a.append(&mut b),
    );
    generated.sort_unstable_by_key(|(i, _)| *i);
    let mut written = 0u64;
    for (_, packets) in &generated {
        for (secs, usec, pkt) in packets {
            if writer.write_packet(*secs, *usec, pkt).is_err() {
                eprintln!("write error");
                return ExitCode::FAILURE;
            }
            written += 1;
        }
    }
    if let (Some(mpath), Some(reg)) = (metrics_path, &registry) {
        if let Err(e) = write_metrics_json(mpath, &reg.snapshot()) {
            eprintln!("cannot write {mpath}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{mpath}] pipeline metrics written");
    }
    eprintln!("wrote {written} packets from {sessions} sessions to {path}");
    ExitCode::SUCCESS
}
