//! Simulator golden digests: pins every byte the session simulator and
//! the world generator produce, so an optimisation of either cannot
//! drift their output unnoticed.
//!
//! Two digests, each an FNV-1a-64 fold over an explicit field-by-field
//! rendering (no `Debug` of whole structs, so adding a field elsewhere
//! does not move the constants):
//!
//! - **World sessions:** `WorldSim::gen_session(i)` for `i < 3000` at two
//!   seeds of the standard world and once in the Iran-protest scenario —
//!   every `PacketRecord` field including the payload bytes, the flow's
//!   `observation_end_sec` and `truncated`, and all of `SessionMeta`
//!   including the ground truth.
//! - **Session traces:** `run_session` for every `ClientKind` (and every
//!   request shape) and every `Vendor`, on a two-link path — both
//!   directions, arrival time, origin, the packet's wire bytes
//!   (`Packet::emit`) and the ground-truth tamper events.
//!
//! On a deliberate change to the simulator, the failure message prints
//! the new digest; update the constant in the same commit and say why.

use std::fmt::{self, Write as _};
use std::net::IpAddr;

use tamperscope::middlebox::{RuleSet, Vendor, ALL_VENDORS};
use tamperscope::netsim::{
    derive_rng, run_session, ClientConfig, ClientKind, IpIdMode, Link, Path, RequestPayload,
    ServerConfig, SessionParams, SessionTrace, SimDuration, SimTime, TransparentHop, VanishStage,
};
use tamperscope::worldgen::{
    GroundTruth, LabeledFlow, Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX,
};

/// FNV-1a, 64-bit, folded over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn fold_flow(h: &mut Fnv, i: u64, lf: &LabeledFlow) {
    let f = &lf.flow;
    let _ = writeln!(
        h,
        "s{i} {} {} {} {} end={} trunc={} n={}",
        f.client_ip,
        f.server_ip,
        f.src_port,
        f.dst_port,
        f.observation_end_sec,
        f.truncated,
        f.packets.len()
    );
    for p in &f.packets {
        let _ = write!(
            h,
            " p ts={} fl={} seq={} ack={} id={:?} ttl={} win={} len={} opt={} pl=",
            p.ts_sec,
            p.flags.bits(),
            p.seq,
            p.ack,
            p.ip_id,
            p.ttl,
            p.window,
            p.payload_len,
            p.has_tcp_options
        );
        h.bytes(&p.payload);
        h.bytes(b"\n");
    }
    let m = &lf.meta;
    let truth = match m.truth {
        GroundTruth::Clean => "clean".to_string(),
        GroundTruth::Benign(b) => format!("benign:{b:?}"),
        GroundTruth::Tampered { vendor, fired } => format!("tampered:{vendor:?}:{fired:?}"),
    };
    let _ = writeln!(
        h,
        " m c={} as={} v6={} http={} dom={:?} start={} truth={truth}",
        m.country, m.asn.0, m.ipv6, m.http, m.domain, m.start_unix
    );
}

fn world_digest(cfg: WorldConfig) -> u64 {
    let sim = WorldSim::new(cfg);
    let mut h = Fnv::new();
    for i in 0..3000 {
        match sim.gen_session(i) {
            Some(lf) => fold_flow(&mut h, i, &lf),
            None => {
                let _ = writeln!(h, "s{i} none");
            }
        }
    }
    h.0
}

fn fold_trace(h: &mut Fnv, label: &str, t: &SessionTrace) {
    let _ = writeln!(
        h,
        "{label} started={} ended={} n={}",
        t.started.as_nanos(),
        t.ended.as_nanos(),
        t.packets.len()
    );
    for p in &t.packets {
        let _ = write!(
            h,
            " t={} dir={:?} origin={:?} wire=",
            p.time.as_nanos(),
            p.dir,
            p.origin
        );
        h.bytes(&p.packet.emit());
        h.bytes(b"\n");
    }
    for e in &t.tamper_events {
        let _ = writeln!(
            h,
            " ev t={} hop={} mech={:?} stage={:?}",
            e.time.as_nanos(),
            e.hop,
            e.mechanism,
            e.stage
        );
    }
}

fn v4() -> (IpAddr, IpAddr) {
    (
        "203.0.113.5".parse().unwrap(),
        "198.51.100.1".parse().unwrap(),
    )
}

fn v6() -> (IpAddr, IpAddr) {
    (
        "2001:db8::5".parse().unwrap(),
        "2001:db8:ffff::1".parse().unwrap(),
    )
}

/// Client-side 12 ms over 4 routers, server-side 35 ms over 9.
fn links(loss: f64) -> Vec<Link> {
    vec![
        Link::new(SimDuration::from_millis(12), 4).with_loss(loss),
        Link::new(SimDuration::from_millis(35), 9).with_loss(loss),
    ]
}

fn http_get() -> RequestPayload {
    RequestPayload::HttpGet {
        host: "news.example".into(),
        path: "/index.html".into(),
        user_agent: "golden/1.0".into(),
    }
}

fn http_two() -> RequestPayload {
    RequestPayload::HttpTwo {
        host: "news.example".into(),
        path1: "/".into(),
        path2: "/post?tag=forbidden-topic".into(),
        user_agent: "golden/1.0".into(),
    }
}

fn client(kind: ClientKind, request: RequestPayload, ipv6: bool) -> ClientConfig {
    let (src, dst) = if ipv6 { v6() } else { v4() };
    let mut cfg = ClientConfig::default_tls(src, dst, "blocked.example");
    cfg.dst_port = if matches!(request, RequestPayload::TlsClientHello { .. }) {
        443
    } else {
        80
    };
    cfg.request = request;
    cfg.kind = kind;
    cfg.ip_id = IpIdMode::Counter {
        start: 900,
        stride_max: 3,
    };
    cfg.isn = 0x2345_6789;
    cfg.tls_random = [0x5c; 32];
    cfg
}

fn run(cfg: ClientConfig, mut path: Path, session: u64) -> SessionTrace {
    let mut server = ServerConfig::default_edge(cfg.dst, cfg.dst_port);
    server.isn = 0x7a00_0000 ^ session as u32;
    let mut rng = derive_rng(0x601d, session);
    run_session(
        SessionParams::new(cfg, server, SimTime::from_secs(50)),
        &mut path,
        &mut rng,
    )
}

fn trace_digest() -> u64 {
    let mut h = Fnv::new();
    let mut session = 0u64;
    let mut fired = 0;
    let tls = || RequestPayload::TlsClientHello {
        sni: "blocked.example".into(),
    };

    // Every client behaviour, over a transparent hop.
    let kinds = [
        ClientKind::Normal,
        ClientKind::SilentScanner,
        ClientKind::HappyEyeballsRst {
            cancel_after: SimDuration::from_millis(20),
        },
        ClientKind::HappyEyeballsRst {
            cancel_after: SimDuration::from_millis(400),
        },
        ClientKind::HappyEyeballsSilent {
            cancel_after: SimDuration::from_millis(20),
        },
        ClientKind::HappyEyeballsSilent {
            cancel_after: SimDuration::from_millis(400),
        },
        ClientKind::AbortAfterResponse { segments: 1 },
        ClientKind::AbortAfterResponse { segments: 3 },
        ClientKind::VanishAfter {
            stage: VanishStage::AfterSyn,
        },
        ClientKind::VanishAfter {
            stage: VanishStage::AfterAck,
        },
        ClientKind::VanishAfter {
            stage: VanishStage::AfterRequest,
        },
        ClientKind::VanishAfter {
            stage: VanishStage::MidResponse,
        },
        ClientKind::Stall {
            stall: SimDuration::from_secs(4),
        },
        ClientKind::FinThenRst,
        ClientKind::DupAckThenVanish,
        ClientKind::MultiSynVanish,
    ];
    let requests = [
        tls(),
        http_get(),
        http_two(),
        RequestPayload::HttpInSyn {
            host: "magnet.example".into(),
            path: "/".into(),
        },
    ];
    for kind in &kinds {
        for request in &requests {
            for ipv6 in [false, true] {
                session += 1;
                let path = Path {
                    links: links(0.0),
                    hops: vec![Box::new(TransparentHop)],
                };
                let t = run(client(kind.clone(), request.clone(), ipv6), path, session);
                fold_trace(&mut h, &format!("{kind:?} {request:?} v6={ipv6}"), &t);
            }
        }
    }

    // The ZMap scanner: option-less SYN, fixed IP-ID, TTL 255, no request.
    session += 1;
    let mut zmap = client(ClientKind::ZmapScanner, RequestPayload::None, false);
    zmap.syn_options = false;
    zmap.ip_id = IpIdMode::Fixed(54321);
    zmap.initial_ttl = 255;
    let path = Path {
        links: links(0.0),
        hops: vec![Box::new(TransparentHop)],
    };
    fold_trace(&mut h, "zmap", &run(zmap, path, session));

    // Lossy links: retransmission and backoff paths draw from the RNG.
    for k in 0..8 {
        session += 1;
        let path = Path {
            links: links(0.3),
            hops: vec![Box::new(TransparentHop)],
        };
        let t = run(client(ClientKind::Normal, tls(), k % 2 == 1), path, session);
        fold_trace(&mut h, &format!("lossy {k}"), &t);
    }

    // Every vendor's middlebox as the hop between the two links.
    let vendors = ALL_VENDORS
        .iter()
        .copied()
        .chain([Vendor::FirewallRst, Vendor::FirewallRstAck]);
    for vendor in vendors {
        let firewall = matches!(vendor, Vendor::FirewallRst | Vendor::FirewallRstAck);
        let shapes = if firewall {
            vec![http_two()]
        } else {
            vec![tls(), http_get()]
        };
        for request in shapes {
            for ipv6 in [false, true] {
                session += 1;
                let rules = if firewall {
                    let mut r = RuleSet::default();
                    r.keywords.push("forbidden-topic".to_owned());
                    r
                } else {
                    RuleSet::blanket()
                };
                let path = Path {
                    links: links(0.0),
                    hops: vec![Box::new(vendor.build(rules))],
                };
                let t = run(
                    client(ClientKind::Normal, request.clone(), ipv6),
                    path,
                    session,
                );
                fold_trace(&mut h, &format!("{vendor:?} {request:?} v6={ipv6}"), &t);
                fired += usize::from(t.was_tampered());
            }
        }
    }
    // Every vendor session must really exercise its middlebox.
    assert_eq!(
        fired,
        2 * (2 * ALL_VENDORS.len() + 2),
        "a vendor never fired"
    );
    h.0
}

const WORLD_SEED_1: u64 = 0x41333e589b62d33c;
const WORLD_SEED_7: u64 = 0x677b66a2e5972cb8;
const WORLD_IRAN: u64 = 0x112c666481a7bca2;
const TRACES: u64 = 0x43bde9c087df785b;

#[test]
fn world_sessions_match_the_golden_digest() {
    let got = [
        world_digest(WorldConfig {
            seed: 1,
            ..WorldConfig::default()
        }),
        world_digest(WorldConfig {
            seed: 7,
            ..WorldConfig::default()
        }),
        world_digest(WorldConfig {
            seed: 3,
            days: 17,
            start_unix: SEP13_2022_UNIX,
            scenario: Scenario::IranProtest,
            catalog_size: 800,
            ..WorldConfig::default()
        }),
    ];
    assert_eq!(
        got,
        [WORLD_SEED_1, WORLD_SEED_7, WORLD_IRAN],
        "gen_session output drifted; new digests {got:#018x?}"
    );
}

#[test]
fn session_traces_match_the_golden_digest() {
    let got = trace_digest();
    assert_eq!(
        got, TRACES,
        "run_session output drifted; new digest {got:#018x}"
    );
}
