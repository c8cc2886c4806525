//! Seeded capture inputs for the two `classify` workloads.
//!
//! Both captures come from one netsim session recipe: clean sessions plus
//! every [`ALL_VENDORS`] middlebox, over TLS (SNI trigger) and HTTP (Host
//! trigger), to a blocked or an allowed domain. Session `i` is a pure
//! function of `(seed, i)`. Only the arrival schedule differs:
//!
//! * [`Layout::Sampled`] starts a session every 2 s and writes each
//!   session's packets contiguously, like a 1-in-N sampled PoP capture:
//!   fewer than ~20 flows are inside the 30 s flow timeout at once.
//! * [`Layout::Dense`] starts 5000 sessions per capture-second and writes
//!   every packet in timestamp order, so ~150k flows are live at once and
//!   packets of different flows interleave.
//!
//! Every session has its own client address, so no two sessions share a
//! flow key and each session that delivers a packet is exactly one flow.

use std::net::{IpAddr, Ipv4Addr};

use rand::Rng;
use tamperscope::capture::{run_source, EngineConfig, PcapWriter, SimSource};
use tamperscope::middlebox::{RuleSet, Vendor, ALL_VENDORS};
use tamperscope::netsim::{
    derive_rng, run_session, ClientConfig, Link, Path, RequestPayload, ServerConfig, SessionParams,
    SimDuration, SimTime,
};

/// The arrival schedule of a generated capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One session every 2 s, packets contiguous per flow.
    Sampled,
    /// 5000 session starts per second, packets in timestamp order.
    Dense,
}

impl Layout {
    /// Microseconds between consecutive session starts.
    fn spacing_us(self) -> u64 {
        match self {
            Layout::Sampled => 2_000_000,
            Layout::Dense => 200,
        }
    }
}

/// A generated capture and what its sessions delivered.
pub struct Capture {
    /// The complete pcap file (LINKTYPE_RAW).
    pub bytes: Vec<u8>,
    /// Sessions simulated.
    pub sessions: u64,
    /// Sessions that delivered at least one inbound packet: the flows a
    /// correct `classify` reports.
    pub flows: u64,
    /// Inbound packets written.
    pub packets: u64,
}

const BLOCKED: &str = "blocked.example.com";
const ALLOWED: &str = "fine.example.org";
const USER_AGENT: &str = "Mozilla/5.0 (X11; Linux x86_64)";
/// Separates the recipe's random streams from any other user of the seed.
const RECIPE_SALT: u64 = 0x7065_7266_6265_6e63;

/// One session's inbound packets: capture time in microseconds and the
/// raw IP frame.
type Frames = Vec<(u64, Vec<u8>)>;

fn server_ip() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
}

/// The middlebox on session `i`'s path (`None` = a clean path): the
/// vendors take turns with clean sessions.
fn vendor_of(i: u64) -> Option<Vendor> {
    let slot = (i % (ALL_VENDORS.len() as u64 + 1)) as usize;
    slot.checked_sub(1).map(|v| ALL_VENDORS[v])
}

/// Simulate session `i` starting at `start_us` and return its inbound
/// frames in arrival order.
fn session_frames(seed: u64, i: u64, start_us: u64) -> Frames {
    let mut rng = derive_rng(seed ^ RECIPE_SALT, i);
    let http = rng.gen_bool(0.5);
    let domain = if rng.gen_bool(0.5) { BLOCKED } else { ALLOWED };
    // 10.0.0.0/8 holds 16M distinct clients: one per session.
    let client = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 | ((i + 1) as u32 & 0x00ff_ffff)));
    let mut cfg = ClientConfig::default_tls(client, server_ip(), domain);
    cfg.src_port = rng.gen_range(1024..65535u16);
    cfg.isn = rng.gen();
    if http {
        cfg.dst_port = 80;
        cfg.request = RequestPayload::HttpGet {
            host: domain.to_owned(),
            path: "/index.html".to_owned(),
            user_agent: USER_AGENT.to_owned(),
        };
    }
    let mut path = match vendor_of(i) {
        Some(v) => {
            let rules = if v.stages().on_syn {
                RuleSet::blanket()
            } else {
                RuleSet::domains([BLOCKED])
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
    let port = cfg.dst_port;
    let start = SimTime::ZERO + SimDuration::from_micros(start_us);
    let trace = run_session(
        SessionParams::new(cfg, ServerConfig::default_edge(server_ip(), port), start),
        &mut path,
        &mut rng,
    );
    trace
        .inbound()
        .map(|tp| (tp.time.as_nanos() / 1_000, tp.packet.emit().to_vec()))
        .collect()
}

/// Generate a capture of `sessions` sessions in `layout`, simulating on
/// up to `threads` threads. The bytes are a pure function of
/// `(layout, sessions, seed)`, whatever the thread count.
pub fn generate(layout: Layout, sessions: u64, seed: u64, threads: usize) -> Capture {
    let spacing = layout.spacing_us();
    let gen = |i: u64| Some((i, session_frames(seed, i, i * spacing)));
    let cfg = EngineConfig {
        threads: threads.max(1),
        ..EngineConfig::default()
    };
    let (mut per_session, _stats) = run_source(
        SimSource::new(sessions, &gen),
        &cfg,
        Vec::new,
        |acc: &mut Vec<(u64, Frames)>, s| acc.push(s),
        |a, mut b| a.append(&mut b),
    );
    per_session.sort_unstable_by_key(|(i, _)| *i);
    let flows = per_session.iter().filter(|(_, f)| !f.is_empty()).count() as u64;
    let mut frames: Vec<(u64, Vec<u8>)> = per_session.into_iter().flat_map(|(_, f)| f).collect();
    if layout == Layout::Dense {
        // Stable: packets with equal timestamps keep session order.
        frames.sort_by_key(|(t, _)| *t);
    }
    let mut writer = PcapWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for (t, frame) in &frames {
        let secs = u32::try_from(t / 1_000_000).expect("capture spans less than 136 years");
        writer
            .write_frame(secs, (t % 1_000_000) as u32, frame)
            .expect("writing to a Vec cannot fail");
    }
    Capture {
        bytes: writer.into_inner(),
        sessions,
        flows,
        packets: frames.len() as u64,
    }
}
