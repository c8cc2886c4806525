//! The limits of passive detection, as code.
//!
//! Two blind spots the paper itself identifies:
//!
//! 1. §6: a censor that hijacks the connection — cutting the client off
//!    while impersonating it to the server — leaves a perfectly graceful
//!    server-side trace. Our classifier (correctly per its spec) calls it
//!    Not Tampered, even though the ground truth says a middlebox fired.
//! 2. §4.3: injectors that copy the client's IP-ID/TTL defeat the
//!    header-discontinuity *evidence* — but not the signature itself.

use std::net::{IpAddr, Ipv4Addr};
use tamper_capture::{collect, CollectorConfig};
use tamper_core::{classify, Classification, ClassifierConfig, Signature};
use tamper_middlebox::{InjectorStack, RuleSet, StealthHijacker, Vendor};
use tamper_netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, ServerConfig, SessionParams, SimDuration,
    SimTime,
};

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 60));
const SERVER: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
const BLOCKED: &str = "blocked.example.com";

fn links() -> Vec<Link> {
    vec![
        Link::new(SimDuration::from_millis(8), 4),
        Link::new(SimDuration::from_millis(35), 9),
    ]
}

/// Blind spot 1: the stealth hijack evades signature detection entirely.
#[test]
fn stealth_hijack_is_invisible_to_the_classifier() {
    let cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
    let server = ServerConfig::default_edge(SERVER, 443);
    let mut path = Path {
        links: links(),
        hops: vec![Box::new(StealthHijacker::new(RuleSet::domains([BLOCKED])))],
    };
    let mut rng = derive_rng(55, 1);
    let trace = run_session(
        SessionParams::new(cfg, server, SimTime::from_secs(5)),
        &mut path,
        &mut rng,
    );
    // Ground truth: the middlebox fired and the client got nothing.
    assert!(trace.was_tampered());
    // Server-side view: a graceful connection with a FIN handshake.
    let mut crng = derive_rng(55, 2);
    let flow = collect(&trace, &CollectorConfig::default(), &mut crng).unwrap();
    assert!(
        flow.packets.iter().any(|p| p.flags.has_fin()),
        "hijacker must close gracefully"
    );
    assert!(
        !flow.packets.iter().any(|p| p.flags.has_rst()),
        "no tear-down visible"
    );
    let analysis = classify(&flow, &ClassifierConfig::default());
    assert_eq!(
        analysis.classification,
        Classification::NotTampered,
        "the paper's predicted blind spot: hijacking evades passive detection"
    );
}

/// The hijacker is still constrained: it must be in-path (it drops
/// packets), which the paper notes is uncommon at country scale.
#[test]
fn stealth_hijack_cuts_the_client_off() {
    let cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
    let server = ServerConfig::default_edge(SERVER, 443);
    let mut path = Path {
        links: links(),
        hops: vec![Box::new(StealthHijacker::new(RuleSet::domains([BLOCKED])))],
    };
    let mut rng = derive_rng(56, 1);
    let trace = run_session(
        SessionParams::new(cfg, server, SimTime::ZERO),
        &mut path,
        &mut rng,
    );
    // The client never receives a single byte of response data.
    let client_data = trace
        .packets
        .iter()
        .filter(|tp| tp.dir == tamper_netsim::Direction::ToClient)
        .filter(|tp| !tp.packet.payload.is_empty())
        .count();
    assert_eq!(client_data, 0, "client must be fully cut off");
}

/// Blind spot 2: a stealthy injector stack (copied TTL, zero IP-ID)
/// silences the §4.3 evidence — but the signature still matches, which is
/// exactly why the paper treats IP-ID/TTL only as *supporting* evidence.
#[test]
fn stealthy_injector_defeats_evidence_but_not_signatures() {
    let run = |stack: InjectorStack, seed: u64| {
        let mut cfg = ClientConfig::default_tls(CLIENT, SERVER, BLOCKED);
        // A zero-IP-ID client (a third of the real population): the
        // stealthy injector's zeroed IP-ID blends right in.
        cfg.ip_id = tamper_netsim::IpIdMode::Zero;
        let server = ServerConfig::default_edge(SERVER, 443);
        let mut path = Path {
            links: links(),
            hops: vec![Box::new(
                Vendor::GfwDoubleRstAck.build_with_stack(RuleSet::domains([BLOCKED]), stack),
            )],
        };
        let mut rng = derive_rng(seed, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let mut crng = derive_rng(seed, 2);
        collect(&trace, &CollectorConfig::default(), &mut crng).unwrap()
    };

    // Typical injector: loud evidence (random IP-ID against a zeroed
    // client counter, distinct fixed TTL).
    let loud = run(InjectorStack::typical(), 77);
    let loud_analysis = classify(&loud, &ClassifierConfig::default());
    assert_eq!(loud_analysis.signature(), Some(Signature::PshRstAckRstAck));
    assert!(loud_analysis
        .evidence
        .max_rst_ipid_delta
        .is_some_and(|d| d > 100));

    // Stealthy injector: same signature, silent evidence.
    let quiet = run(InjectorStack::stealthy(), 78);
    let quiet_analysis = classify(&quiet, &ClassifierConfig::default());
    assert_eq!(
        quiet_analysis.signature(),
        Some(Signature::PshRstAckRstAck),
        "flag-sequence detection is independent of header quirks"
    );
    assert!(
        quiet_analysis
            .evidence
            .max_rst_ipid_delta
            .is_none_or(|d| d <= 1),
        "copied IP-ID leaves no discontinuity"
    );
    assert!(
        quiet_analysis
            .evidence
            .max_rst_ttl_delta
            .is_none_or(|d| d.abs() <= 1),
        "copied TTL leaves no discontinuity"
    );
}
