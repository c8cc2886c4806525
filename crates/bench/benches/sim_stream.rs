//! Throughput of simulated worlds streamed through the unified engine.
//!
//! Before the `FlowSource` refactor, `WorldSim::run_sharded` carried its
//! own crossbeam shard/merge loop; now it is a thin shim over
//! `capture::engine` with a `SimSource` front-end. This bench generates a
//! world serially (the legacy driver path's fold) and then streams the
//! same world through the engine at 1/2/4/8 shards, checks the collectors
//! agree, and records flows/sec per configuration in
//! `BENCH_sim_stream.json` at the repo root. The JSON includes the host's
//! core count: on a single-core box every configuration serializes onto
//! one CPU, so the speedup column is only meaningful when
//! `cores >= threads`.

use std::time::Instant;

use tamper_analysis::Collector;
use tamper_core::ClassifierConfig;
use tamper_worldgen::{WorldConfig, WorldSim};

const SESSIONS: u64 = 40_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn collector(sim: &WorldSim) -> Collector {
    Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        sim.config().days,
        sim.config().start_unix,
    )
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sim = WorldSim::new(WorldConfig {
        sessions: SESSIONS,
        days: 2,
        catalog_size: 2_000,
        ..Default::default()
    });

    // Legacy driver path: one serial generate-and-fold loop.
    eprintln!("serial baseline over {SESSIONS} sessions...");
    let start = Instant::now();
    let mut base_col = collector(&sim);
    sim.run(|lf| base_col.observe(&lf));
    let serial_secs = start.elapsed().as_secs_f64();
    let serial_fps = base_col.total as f64 / serial_secs;
    eprintln!("serial: {serial_secs:.3}s, {serial_fps:.0} flows/s");

    let mut rows = vec![format!(
        "    {{\"threads\": 0, \"mode\": \"serial\", \"secs\": {serial_secs:.4}, \"flows_per_sec\": {serial_fps:.0}, \"speedup_vs_serial\": 1.000}}"
    )];
    for &threads in &THREAD_COUNTS {
        let start = Instant::now();
        let col = sim.run_sharded(
            threads,
            None,
            || collector(&sim),
            |c, lf| c.observe(&lf),
            |a, b| a.merge(b),
        );
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            col.total, base_col.total,
            "flow totals diverged at {threads} shards"
        );
        assert_eq!(
            col.possibly_tampered, base_col.possibly_tampered,
            "verdicts diverged at {threads} shards"
        );
        let fps = col.total as f64 / secs;
        let speedup = serial_secs / secs;
        eprintln!("threads {threads}: {secs:.3}s, {fps:.0} flows/s, {speedup:.2}x vs serial");
        rows.push(format!(
            "    {{\"threads\": {threads}, \"mode\": \"sim_source\", \"secs\": {secs:.4}, \"flows_per_sec\": {fps:.0}, \"speedup_vs_serial\": {speedup:.3}}}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"sim_stream\",\n  \"sessions\": {SESSIONS},\n  \"flows\": {},\n  \"cores\": {cores},\n  \"runs\": [\n{}\n  ]\n}}\n",
        base_col.total,
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_stream.json");
    std::fs::write(path, &json).expect("write BENCH_sim_stream.json");
    println!("{json}");
}
