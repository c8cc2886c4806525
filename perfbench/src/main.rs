//! `perfbench` — the benchmark's helper binary, driven by `run.py`.
//!
//! ```text
//! perfbench gen-capture --layout sampled|dense --sessions N --seed S --threads T --out F
//! perfbench setup --workload classify --input F --reps R
//! perfbench setup --workload world --sessions N --seed S --reps R
//! perfbench run --workload W --out F [--input F|DIR] [--partials P]
//!               [--sessions N] [--seed S] [--threads T] [--trace --spans F --run K]
//! ```
//!
//! `gen-capture` writes a seeded capture and prints what its sessions
//! delivered. `setup` times the work before the first flow enters the
//! pipeline (`std::fs::read` + `PcapMemSource::new`, or `WorldSim::new`)
//! `R` times. `run` runs one workload's library composition, writes the
//! command's stdout bytes to `--out`, and with `--trace` writes the spans
//! to `--spans` and prints the per-layer metrics. Each prints one JSON
//! line on stdout.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::compose::{self, Format, RunInfo};
use perfbench::metrics::per_layer;
use perfbench::recipe::{generate, Layout};
use perfbench::trace::{TraceLog, Tree};
use tamperscope::capture::PcapMemSource;
use tamperscope::cli::Args;
use tamperscope::worldgen::WorldSim;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        eprintln!("usage: perfbench gen-capture|setup|run ...");
        return ExitCode::from(2);
    };
    let args = Args::parse(&raw[1..]);
    let result = match cmd.as_str() {
        "gen-capture" => gen_capture(&args),
        "setup" => setup(&args),
        "run" => run(&args),
        _ => Err(format!("unknown command {cmd}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn num(args: &Args, name: &str, default: u64) -> Result<u64, String> {
    args.get_u64_strict(name, default)
}

fn required<'a>(args: &'a Args, name: &str) -> Result<&'a str, String> {
    args.get(name)
        .ok_or_else(|| format!("--{name} is required"))
}

fn gen_capture(args: &Args) -> Result<String, String> {
    let layout = match required(args, "layout")? {
        "sampled" => Layout::Sampled,
        "dense" => Layout::Dense,
        other => return Err(format!("unknown layout {other}")),
    };
    let cap = generate(
        layout,
        num(args, "sessions", 200_000)?,
        num(args, "seed", 1)?,
        num(args, "threads", 1)? as usize,
    );
    let out = required(args, "out")?;
    std::fs::write(out, &cap.bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "{{\"sessions\":{},\"flows\":{},\"packets\":{},\"bytes\":{}}}",
        cap.sessions,
        cap.flows,
        cap.packets,
        cap.bytes.len()
    ))
}

fn setup(args: &Args) -> Result<String, String> {
    let reps = num(args, "reps", 5)?.max(1);
    let mut samples = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        match required(args, "workload")? {
            "classify" => {
                let path = required(args, "input")?;
                let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                let src = PcapMemSource::new(bytes.into())
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                std::hint::black_box(&src);
            }
            "world" => {
                let cfg =
                    compose::world_config(num(args, "sessions", 200_000)?, num(args, "seed", 1)?);
                std::hint::black_box(WorldSim::new(cfg));
            }
            other => return Err(format!("unknown set-up workload {other}")),
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    let list: Vec<String> = samples.iter().map(|s| format!("{s:.9}")).collect();
    Ok(format!("{{\"samples_s\":[{}]}}", list.join(",")))
}

fn partial_paths(dir: &str, count: u64) -> Vec<PathBuf> {
    (0..count)
        .map(|i| Path::new(dir).join(format!("pop{i}.agg")))
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let workload = required(args, "workload")?.to_owned();
    let out_path = required(args, "out")?;
    let mut out = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let sessions = num(args, "sessions", 200_000)?;
    let seed = num(args, "seed", 1)?;
    let threads = num(args, "threads", 1)? as usize;
    let log = args.has("trace").then(TraceLog::new);
    let started = Instant::now();
    let info: RunInfo = match workload.as_str() {
        "classify_sampled" | "classify_dense" => {
            let format = if workload == "classify_sampled" {
                Format::Jsonl
            } else {
                Format::Lines
            };
            compose::classify(
                Path::new(required(args, "input")?),
                format,
                threads,
                &mut out,
                log.as_ref(),
            )
        }
        "world_report" => compose::world_report(sessions, seed, threads, &mut out, log.as_ref()),
        "merge_pops" => {
            let paths = partial_paths(required(args, "input")?, num(args, "partials", 1000)?);
            compose::merge_pops(&paths, sessions, seed, &mut out, log.as_ref())
        }
        other => return Err(format!("unknown workload {other}")),
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    let mut line = format!(
        "{{\"flows\":{},\"records\":{},\"wall_s\":{wall:.9}",
        info.flows, info.stats.records
    );
    if let Some(log) = log {
        let (spans, counts) = log.take();
        let tree = Tree::build(spans);
        if let Some(path) = args.get("spans") {
            let mut f = std::io::BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            );
            tree.write_tsv(&mut f, &workload, num(args, "run", 0)?)
                .and_then(|()| std::io::Write::flush(&mut f))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        let metrics: Vec<String> = per_layer(&tree, &counts, &info)
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        line.push_str(&format!(",\"metrics\":{{{}}}", metrics.join(",")));
    }
    line.push('}');
    Ok(line)
}
