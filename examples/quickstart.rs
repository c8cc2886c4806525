//! Quickstart: simulate one censored and one clean connection, watch the
//! classifier tell them apart, then run a small world and print the
//! headline numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tamperscope::analysis::pct_f;
use tamperscope::capture::collect;
use tamperscope::netsim::{derive_rng, Link};
use tamperscope::prelude::*;
use tamperscope::worldgen::country_index;

fn simulate(sni: &str, vendor: Option<Vendor>) -> FlowRecord {
    let client_ip = "203.0.113.7".parse().unwrap();
    let server_ip = "198.51.100.1".parse().unwrap();
    let client = ClientConfig::default_tls(client_ip, server_ip, sni);
    let server = ServerConfig::default_edge(server_ip, 443);
    let mut path = match vendor {
        Some(v) => Path {
            links: vec![
                Link::new(SimDuration::from_millis(10), 4),
                Link::new(SimDuration::from_millis(40), 9),
            ],
            hops: vec![Box::new(v.build(RuleSet::domains(["blocked.example.com"])))],
        },
        None => Path::direct(SimDuration::from_millis(50), 13),
    };
    let mut rng = derive_rng(2023, 1);
    let trace = run_session(
        SessionParams::new(client, server, SimTime::ZERO),
        &mut path,
        &mut rng,
    );
    let mut crng = derive_rng(2023, 2);
    collect(&trace, &CollectorConfig::default(), &mut crng).expect("flow")
}

fn describe(label: &str, flow: &FlowRecord) {
    let analysis = classify(flow, &ClassifierConfig::default());
    println!("== {label}");
    let mut line = String::new();
    for p in &flow.packets {
        line.push_str(&format!("[{}] ", p.flags));
    }
    println!("   inbound:   {line}");
    match analysis.signature() {
        Some(sig) => println!("   verdict:   TAMPERED, signature {sig}"),
        None if analysis.is_possibly_tampered() => {
            println!("   verdict:   possibly tampered (no signature)")
        }
        None => println!("   verdict:   not tampered"),
    }
    if let Some(domain) = &analysis.trigger.domain {
        println!("   trigger:   {domain}");
    }
    if let Some(d) = analysis.evidence.max_rst_ipid_delta {
        println!("   evidence:  max IP-ID jump at the RST = {d}");
    }
    if let Some(d) = analysis.evidence.max_rst_ttl_delta {
        println!("   evidence:  TTL change at the RST = {d}");
    }
    println!();
}

fn main() {
    // 1. A connection through a GFW-style injector: the ClientHello for a
    //    blocked domain draws a double RST+ACK burst.
    let censored = simulate("blocked.example.com", Some(Vendor::GfwDoubleRstAck));
    describe(
        "blocked.example.com through a GFW-style middlebox",
        &censored,
    );

    // 2. The same path, an innocent domain: clean handshake, data, FIN.
    let clean = simulate("innocent.example.org", Some(Vendor::GfwDoubleRstAck));
    describe("innocent.example.org through the same middlebox", &clean);

    // 3. A small world: 30,000 connections across ~60 countries, one pass.
    println!("== a small world (30,000 connections, 2 simulated days)");
    let sim = WorldSim::new(WorldConfig {
        sessions: 30_000,
        days: 2,
        catalog_size: 1500,
        ..Default::default()
    });
    let mut col = Collector::new(
        ClassifierConfig::default(),
        sim.world().len(),
        2,
        sim.config().start_unix,
    );
    sim.run(|lf| col.observe(&lf));
    println!(
        "   {} flows, {} possibly tampered ({})",
        col.total,
        col.possibly_tampered,
        pct_f(col.possibly_tampered as f64 / col.total as f64)
    );
    for code in ["TM", "CN", "IR", "US"] {
        if let Some(c) = country_index(sim.world(), code) {
            let total = col.country_total(c as usize);
            let matched = col.country_matched(c as usize);
            if total > 0 {
                println!(
                    "   {code}: {} of {} connections match a tampering signature ({})",
                    matched,
                    total,
                    pct_f(matched as f64 / total as f64)
                );
            }
        }
    }
    println!(
        "   ground-truth recall {} / precision {}",
        pct_f(col.truth.recall()),
        pct_f(col.truth.precision())
    );
}
