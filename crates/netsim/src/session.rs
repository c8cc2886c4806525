//! The per-session discrete-event loop.
//!
//! One session simulates one TCP connection: a client, a path of links and
//! middlebox hops, and the CDN edge server. The loop is fully deterministic
//! given the session RNG: events are ordered by (time, insertion sequence).

use crate::client::{Client, ClientConfig, ClientTimer};
use crate::endpoint::{EndpointInput, EndpointMachine};
use crate::hop::HopCtx;
use crate::path::Path;
use crate::server::{Server, ServerConfig, ServerTimer};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Direction, Origin, SessionTrace, TracedPacket};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tamper_wire::Packet;

/// Where a scheduled packet event lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Client,
    Server,
    Hop(usize),
}

enum EvKind {
    Packet {
        at: Node,
        pkt: Packet,
        dir: Direction,
        origin: Origin,
    },
    ClientTimer(ClientTimer),
    ServerTimer(ServerTimer),
}

/// A heap entry: only the ordering key and the slab slot holding the
/// event's payload, so every sift moves 24 bytes instead of a whole
/// packet-carrying event.
#[derive(PartialEq, Eq)]
struct Key {
    t: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        // Reverse for a min-heap on (time, seq); `seq` is unique, so the
        // slot never decides the order.
        other.t.cmp(&self.t).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Heap, slab, free-list and trace capacity that covers a typical
/// session (a handshake, a request, a few response segments and the
/// teardown) without regrowing.
const TYPICAL_EVENTS: usize = 16;

/// Parameters of one simulated connection.
pub struct SessionParams {
    /// Client behaviour and addressing.
    pub client: ClientConfig,
    /// Server behaviour.
    pub server: ServerConfig,
    /// When the client initiates.
    pub start: SimTime,
    /// How long the observation window stays open after `start`; events
    /// past the horizon are discarded. 30 s matches a generous collector
    /// flow-timeout and comfortably contains all retransmission backoff.
    pub horizon: SimDuration,
}

impl SessionParams {
    /// Standard 30-second observation horizon.
    pub fn new(client: ClientConfig, server: ServerConfig, start: SimTime) -> SessionParams {
        SessionParams {
            client,
            server,
            start,
            horizon: SimDuration::from_secs(30),
        }
    }
}

struct Driver<'a> {
    heap: BinaryHeap<Key>,
    /// Event payloads, indexed by [`Key::slot`]; `None` marks a free slot.
    slab: Vec<Option<EvKind>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    seq: u64,
    path: &'a mut Path,
    trace: Vec<TracedPacket>,
}

impl<'a> Driver<'a> {
    fn push(&mut self, t: SimTime, kind: EvKind) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Key {
            t,
            seq: self.seq,
            slot,
        });
    }

    /// The earliest pending event, its slot returned to the free list.
    fn pop(&mut self) -> Option<(SimTime, EvKind)> {
        let key = self.heap.pop()?;
        self.free.push(key.slot);
        let kind = self.slab[key.slot as usize].take()?;
        Some((key.t, kind))
    }

    fn decrement_ttl(pkt: &mut Packet, by: u8) {
        let t = pkt.ip.ttl();
        pkt.ip.set_ttl(t.saturating_sub(by));
    }

    /// Send a packet across one link segment toward `next`, applying
    /// latency, TTL decrement, and loss.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &mut self,
        now: SimTime,
        link_idx: usize,
        mut pkt: Packet,
        next: Node,
        dir: Direction,
        origin: Origin,
        rng: &mut StdRng,
    ) {
        let link = self.path.links[link_idx];
        if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
            return; // lost in transit
        }
        Self::decrement_ttl(&mut pkt, link.ttl_decrement);
        self.push(
            now + link.latency,
            EvKind::Packet {
                at: next,
                pkt,
                dir,
                origin,
            },
        );
    }

    /// Client (or client-side entry) emits toward the server.
    fn emit_from_client(&mut self, now: SimTime, pkt: Packet, origin: Origin, rng: &mut StdRng) {
        let next = if self.path.hops.is_empty() {
            Node::Server
        } else {
            Node::Hop(0)
        };
        self.traverse(now, 0, pkt, next, Direction::ToServer, origin, rng);
    }

    /// Server emits toward the client.
    fn emit_from_server(&mut self, now: SimTime, pkt: Packet, origin: Origin, rng: &mut StdRng) {
        let last = self.path.links.len() - 1;
        let next = if self.path.hops.is_empty() {
            Node::Client
        } else {
            Node::Hop(self.path.hops.len() - 1)
        };
        self.traverse(now, last, pkt, next, Direction::ToClient, origin, rng);
    }

    /// Inject from hop `i` directly to the server (injected packets skip
    /// the `on_packet` processing of downstream hops — multi-censor paths
    /// where one censor filters another's resets are out of scope).
    fn inject_to_server(&mut self, now: SimTime, hop: usize, mut pkt: Packet, rng: &mut StdRng) {
        let mut latency = SimDuration::ZERO;
        let mut decr: u8 = 0;
        for link in &self.path.links[hop + 1..] {
            if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
                return;
            }
            latency = latency + link.latency;
            decr = decr.saturating_add(link.ttl_decrement);
        }
        Self::decrement_ttl(&mut pkt, decr);
        self.push(
            now + latency,
            EvKind::Packet {
                at: Node::Server,
                pkt,
                dir: Direction::ToServer,
                origin: Origin::Hop(hop as u8),
            },
        );
    }

    /// Deliver one sans-IO input to an endpoint machine and scatter the
    /// resulting actions into the event heap — the single dispatch point
    /// both sides of the session share. `side` picks the emission
    /// direction; `wrap` lifts the endpoint's timers into [`EvKind`].
    fn drive<M, W>(
        &mut self,
        machine: &mut M,
        input: EndpointInput<'_, M::Timer>,
        now: SimTime,
        side: Node,
        wrap: W,
        rng: &mut StdRng,
    ) where
        M: EndpointMachine,
        W: Fn(M::Timer) -> EvKind,
    {
        let actions = machine.process(input, now, rng);
        for (pkt, delay) in actions.emits {
            match side {
                Node::Server => self.emit_from_server(now + delay, pkt, Origin::Server, rng),
                _ => self.emit_from_client(now + delay, pkt, Origin::Client, rng),
            }
        }
        for (timer, delay) in actions.timers {
            self.push(now + delay, wrap(timer));
        }
    }

    /// Inject from hop `i` directly to the client.
    fn inject_to_client(&mut self, now: SimTime, hop: usize, mut pkt: Packet, rng: &mut StdRng) {
        let mut latency = SimDuration::ZERO;
        let mut decr: u8 = 0;
        for link in &self.path.links[..=hop] {
            if link.loss > 0.0 && rng.gen::<f64>() < link.loss {
                return;
            }
            latency = latency + link.latency;
            decr = decr.saturating_add(link.ttl_decrement);
        }
        Self::decrement_ttl(&mut pkt, decr);
        self.push(
            now + latency,
            EvKind::Packet {
                at: Node::Client,
                pkt,
                dir: Direction::ToClient,
                origin: Origin::Hop(hop as u8),
            },
        );
    }
}

/// Run one session to completion and return its trace.
pub fn run_session(params: SessionParams, path: &mut Path, rng: &mut StdRng) -> SessionTrace {
    debug_assert!(path.is_well_formed());
    let start = params.start;
    let end = start + params.horizon;
    let mut client = Client::new(params.client);
    let mut server = Server::new(params.server);
    let mut tamper_events = Vec::new();

    let mut driver = Driver {
        heap: BinaryHeap::with_capacity(TYPICAL_EVENTS),
        slab: Vec::with_capacity(TYPICAL_EVENTS),
        free: Vec::with_capacity(TYPICAL_EVENTS),
        seq: 0,
        path,
        trace: Vec::with_capacity(TYPICAL_EVENTS),
    };

    // Kick off: the client's initial actions.
    driver.drive(
        &mut client,
        EndpointInput::Start,
        start,
        Node::Client,
        EvKind::ClientTimer,
        rng,
    );

    while let Some((now, kind)) = driver.pop() {
        if now > end {
            break;
        }
        match kind {
            EvKind::ClientTimer(k) => {
                driver.drive(
                    &mut client,
                    EndpointInput::Timer(k),
                    now,
                    Node::Client,
                    EvKind::ClientTimer,
                    rng,
                );
            }
            EvKind::ServerTimer(k) => {
                driver.drive(
                    &mut server,
                    EndpointInput::Timer(k),
                    now,
                    Node::Server,
                    EvKind::ServerTimer,
                    rng,
                );
            }
            EvKind::Packet {
                at,
                pkt,
                dir,
                origin,
            } => match at {
                Node::Hop(i) => {
                    let outcome = {
                        let mut ctx = HopCtx {
                            now,
                            rng,
                            tamper_events: &mut tamper_events,
                            hop_index: i as u8,
                        };
                        driver.path.hops[i].on_packet(&mut ctx, &pkt, dir)
                    };
                    if outcome.forward {
                        match dir {
                            Direction::ToServer => {
                                let next = if i + 1 < driver.path.hops.len() {
                                    Node::Hop(i + 1)
                                } else {
                                    Node::Server
                                };
                                driver.traverse(now, i + 1, pkt, next, dir, origin, rng);
                            }
                            Direction::ToClient => {
                                let next = if i == 0 {
                                    Node::Client
                                } else {
                                    Node::Hop(i - 1)
                                };
                                driver.traverse(now, i, pkt, next, dir, origin, rng);
                            }
                        }
                    }
                    for (inj, delay) in outcome.inject_to_server {
                        driver.inject_to_server(now + delay, i, inj, rng);
                    }
                    for (inj, delay) in outcome.inject_to_client {
                        driver.inject_to_client(now + delay, i, inj, rng);
                    }
                }
                Node::Server => {
                    // `drive` only schedules events, so recording the
                    // packet after the endpoint has seen it keeps the
                    // trace in arrival order.
                    driver.drive(
                        &mut server,
                        EndpointInput::Packet(&pkt),
                        now,
                        Node::Server,
                        EvKind::ServerTimer,
                        rng,
                    );
                    driver.trace.push(TracedPacket {
                        time: now,
                        dir: Direction::ToServer,
                        origin,
                        packet: pkt,
                    });
                }
                Node::Client => {
                    driver.drive(
                        &mut client,
                        EndpointInput::Packet(&pkt),
                        now,
                        Node::Client,
                        EvKind::ClientTimer,
                        rng,
                    );
                    driver.trace.push(TracedPacket {
                        time: now,
                        dir: Direction::ToClient,
                        origin,
                        packet: pkt,
                    });
                }
            },
        }
    }

    SessionTrace {
        packets: driver.trace,
        started: start,
        ended: end,
        tamper_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientKind, RequestPayload, VanishStage};
    use crate::rng::derive_rng;

    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::TcpFlags;

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    fn run_normal(kind: ClientKind) -> SessionTrace {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "ok.example.com");
        cfg.kind = kind;
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path::direct(SimDuration::from_millis(40), 12);
        let mut rng = derive_rng(99, 1);
        run_session(
            SessionParams::new(cfg, server, SimTime::from_secs(100)),
            &mut path,
            &mut rng,
        )
    }

    #[test]
    fn untampered_session_is_graceful() {
        let trace = run_normal(ClientKind::Normal);
        let inbound: Vec<_> = trace.inbound().collect();
        // SYN, ACK, ClientHello, ACKs of response, FIN, final ACK.
        assert!(inbound.len() >= 6, "got {} inbound packets", inbound.len());
        assert_eq!(inbound[0].packet.tcp.flags, TcpFlags::SYN);
        assert!(inbound.iter().any(|p| p.packet.tcp.flags.has_fin()));
        assert!(!inbound.iter().any(|p| p.packet.tcp.flags.has_rst()));
        assert!(!trace.was_tampered());
        // TTL at the server reflects the path decrement.
        assert_eq!(inbound[0].packet.ip.ttl(), 64 - 12);
    }

    #[test]
    fn sni_is_visible_inbound() {
        let trace = run_normal(ClientKind::Normal);
        let hello = trace
            .inbound()
            .find(|p| !p.packet.payload.is_empty())
            .expect("no data packet");
        assert_eq!(
            tamper_wire::tls::parse_sni(&hello.packet.payload)
                .unwrap()
                .as_deref(),
            Some("ok.example.com")
        );
    }

    #[test]
    fn vanish_after_syn_leaves_single_syn() {
        let trace = run_normal(ClientKind::VanishAfter {
            stage: VanishStage::AfterSyn,
        });
        let inbound: Vec<_> = trace.inbound().collect();
        assert_eq!(inbound.len(), 1);
        assert_eq!(inbound[0].packet.tcp.flags, TcpFlags::SYN);
    }

    #[test]
    fn zmap_scan_leaves_syn_then_rst() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.kind = ClientKind::ZmapScanner;
        cfg.request = RequestPayload::None;
        cfg.syn_options = false;
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path::direct(SimDuration::from_millis(40), 12);
        let mut rng = derive_rng(99, 2);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let flags: Vec<_> = trace.inbound().map(|p| p.packet.tcp.flags).collect();
        assert_eq!(flags, vec![TcpFlags::SYN, TcpFlags::RST]);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let t1 = {
            let (src, dst) = addrs();
            let cfg = ClientConfig::default_tls(src, dst, "d.example");
            let server = ServerConfig::default_edge(dst, 443);
            let mut path = Path::direct(SimDuration::from_millis(25), 9);
            let mut rng = derive_rng(7, 3);
            run_session(
                SessionParams::new(cfg, server, SimTime::ZERO),
                &mut path,
                &mut rng,
            )
        };
        let t2 = {
            let (src, dst) = addrs();
            let cfg = ClientConfig::default_tls(src, dst, "d.example");
            let server = ServerConfig::default_edge(dst, 443);
            let mut path = Path::direct(SimDuration::from_millis(25), 9);
            let mut rng = derive_rng(7, 3);
            run_session(
                SessionParams::new(cfg, server, SimTime::ZERO),
                &mut path,
                &mut rng,
            )
        };
        assert_eq!(t1.packets.len(), t2.packets.len());
        for (a, b) in t1.packets.iter().zip(&t2.packets) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.packet, b.packet);
        }
    }

    #[test]
    fn lossy_link_drops_everything_at_loss_one() {
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x");
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path {
            links: vec![crate::path::Link::new(SimDuration::from_millis(10), 4).with_loss(1.0)],
            hops: Vec::new(),
        };
        let mut rng = derive_rng(99, 4);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        assert_eq!(trace.packets.len(), 0);
    }

    #[test]
    fn http_two_requests_both_arrive() {
        let (src, dst) = addrs();
        let mut cfg = ClientConfig::default_tls(src, dst, "x");
        cfg.dst_port = 80;
        cfg.request = RequestPayload::HttpTwo {
            host: "site.example".into(),
            path1: "/".into(),
            path2: "/page2".into(),
            user_agent: "ua/1".into(),
        };
        let server = ServerConfig::default_edge(dst, 80);
        let mut path = Path::direct(SimDuration::from_millis(30), 10);
        let mut rng = derive_rng(99, 5);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let data: Vec<_> = trace
            .inbound()
            .filter(|p| !p.packet.payload.is_empty())
            .collect();
        assert_eq!(data.len(), 2, "expected two request packets");
        let second = tamper_wire::http::parse_request(&data[1].packet.payload).unwrap();
        assert_eq!(second.path, "/page2");
    }

    #[test]
    fn observation_ends_at_horizon() {
        let trace = run_normal(ClientKind::Normal);
        assert_eq!(
            trace.ended,
            SimTime::from_secs(100) + SimDuration::from_secs(30)
        );
    }
}

#[cfg(test)]
mod path_mechanics_tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::hop::{Hop, HopCtx, HopOutcome};
    use crate::path::Link;
    use crate::rng::derive_rng;
    use crate::server::ServerConfig;
    use crate::trace::{Direction, Origin};
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_wire::{Packet, PacketBuilder, TcpFlags};

    fn addrs() -> (IpAddr, IpAddr) {
        (
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        )
    }

    /// A hop that injects one RST toward the server on the first SYN,
    /// recording nothing else.
    struct SynEcho;
    impl Hop for SynEcho {
        fn on_packet(&mut self, _ctx: &mut HopCtx<'_>, pkt: &Packet, dir: Direction) -> HopOutcome {
            if dir == Direction::ToServer && pkt.tcp.flags.has_syn() {
                let rst = PacketBuilder::new(
                    pkt.ip.src(),
                    pkt.ip.dst(),
                    pkt.tcp.src_port,
                    pkt.tcp.dst_port,
                )
                .flags(TcpFlags::RST)
                .seq(pkt.tcp.seq.wrapping_add(1))
                .ttl(200)
                .build();
                HopOutcome::pass().with_injection_to_server(rst, SimDuration::from_micros(10))
            } else {
                HopOutcome::pass()
            }
        }
    }

    #[test]
    fn injected_packets_incur_remaining_path_latency_and_ttl() {
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x.example");
        let server = ServerConfig::default_edge(dst, 443);
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(10), 3),
                Link::new(SimDuration::from_millis(50), 7),
            ],
            hops: vec![Box::new(SynEcho)],
        };
        let mut rng = derive_rng(31, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let inbound: Vec<_> = trace.inbound().collect();
        let syn = inbound
            .iter()
            .find(|p| p.packet.tcp.flags.has_syn())
            .unwrap();
        let rst = inbound
            .iter()
            .find(|p| p.packet.tcp.flags.has_rst())
            .unwrap();
        // The SYN crossed both links: 10 + 50 ms.
        assert_eq!(syn.time, SimTime(60_000_000));
        // The RST was injected at the hop (t = 10 ms + 10 µs) and crossed
        // only the server-side link (50 ms).
        assert_eq!(rst.time, SimTime(60_010_000));
        // TTL: client initial 64 − 3 − 7 hops; injected 200 − 7.
        assert_eq!(syn.packet.ip.ttl(), 64 - 10);
        assert_eq!(rst.packet.ip.ttl(), 200 - 7);
        // Origin attribution is ground truth.
        assert_eq!(syn.origin, Origin::Client);
        assert_eq!(rst.origin, Origin::Hop(0));
    }

    #[test]
    fn server_to_client_traverses_hops_in_reverse() {
        struct CountBoth {
            to_server: u32,
            to_client: u32,
        }
        // Count via a shared cell smuggled through a static — simpler: use
        // the tamper_events vec as a counter channel.
        impl Hop for CountBoth {
            fn on_packet(
                &mut self,
                _ctx: &mut HopCtx<'_>,
                _pkt: &Packet,
                dir: Direction,
            ) -> HopOutcome {
                match dir {
                    Direction::ToServer => self.to_server += 1,
                    Direction::ToClient => self.to_client += 1,
                }
                HopOutcome::pass()
            }
        }
        // Run the session with the counting hop boxed; read the counters
        // back out afterwards via Box downcast-free trick: keep raw
        // pointers out of it and just re-run with a probe that asserts
        // inside: both directions must be observed by completion.
        let (src, dst) = addrs();
        let cfg = ClientConfig::default_tls(src, dst, "x.example");
        let server = ServerConfig::default_edge(dst, 443);
        let counter = Box::new(CountBoth {
            to_server: 0,
            to_client: 0,
        });
        let mut path = Path {
            links: vec![
                Link::new(SimDuration::from_millis(5), 2),
                Link::new(SimDuration::from_millis(5), 2),
            ],
            hops: vec![counter],
        };
        let mut rng = derive_rng(32, 1);
        let trace = run_session(
            SessionParams::new(cfg, server, SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        // Indirect check: the client received server packets, which is
        // only possible if ToClient traffic traversed the hop.
        assert!(trace
            .packets
            .iter()
            .any(|p| p.dir == Direction::ToClient && !p.packet.payload.is_empty()));
        assert!(trace.inbound().count() >= 5);
    }
}
