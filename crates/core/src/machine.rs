//! The sans-IO classification core: [`FlowMachine`].
//!
//! The paper's per-flow classification as an explicit state machine in
//! the happy-eyeballs sans-IO style — time enters as an argument instead
//! of a field smuggled inside the record (`observation_end_sec`):
//!
//! ```text
//!             ┌───────────────────────────────────────────────┐
//!   Input ───►│  FlowMachine::process(input, now) -> Output   │───► Output
//!   Start     │                                               │     Continue
//!   Packet    │  buffers packets; on End reconstructs order,  │     Analysis
//!   End       │  folds Event stream through transition(),     │
//!             │  reads verdict off the terminal StageState    │
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! Invariants, enforced by `tests/state_machine.rs` and tamperlint:
//!
//! - **No ambient clock.** Time enters only through the `now` argument
//!   (a [`SimTime`]); the tamperlint `clock-containment` rule covers this
//!   module like every other pipeline crate.
//! - **No allocation in `process` once warm.** All scratch buffers
//!   (packet buffer, reconstructed order, RST multiset, data-seq dedup)
//!   live in the machine and are reused across flows; `process` only
//!   appends into them.
//! - **Table-driven transitions.** The stage evidence is a tiny finite
//!   state ([`StageState`], ≤ 216 points) advanced by a pure
//!   [`transition`] function over a seven-letter [`Event`] alphabet —
//!   flat match rows, no nested conditionals. The whole reachable graph
//!   is enumerable ([`reachable_graph`]) and snapshotted as a golden
//!   fixture so an unintended transition fails review.
//! - **Replay determinism.** Same input sequence in, same output out —
//!   there is no hidden state across `Start` boundaries.
//!
//! `tests/state_machine.rs` keeps the original nested-conditional
//! classifier as a test-only reference and replays the golden corpus plus
//! proptest-generated adversarial interleavings through both.

use std::net::{IpAddr, Ipv4Addr};

use crate::classify::{merge_rst_counts, rst_signature, ClassifierConfig, FlowAnalysis};
use crate::evidence::EvidenceWalk;
use crate::reorder::reconstruct_order_view_into;
use crate::signature::{Classification, Signature, Stage};
use crate::trigger;
use crate::view::PacketsView;
use tamper_capture::{FlowRecord, PacketRecord};
use tamper_netsim::SimTime;
use tamper_wire::TcpFlags;

/// A saturating 0 / 1 / many counter — the only multiplicities the
/// paper's stage logic ever distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Count {
    /// No occurrences.
    Zero,
    /// Exactly one occurrence.
    One,
    /// Two or more occurrences.
    Many,
}

impl Count {
    /// All values, for exhaustive enumeration.
    pub const ALL: [Count; 3] = [Count::Zero, Count::One, Count::Many];

    /// Saturating increment.
    pub const fn bump(self) -> Count {
        match self {
            Count::Zero => Count::One,
            Count::One | Count::Many => Count::Many,
        }
    }

    /// Compact label for fixtures and diagnostics.
    pub const fn label(self) -> &'static str {
        match self {
            Count::Zero => "0",
            Count::One => "1",
            Count::Many => "2+",
        }
    }
}

/// The event alphabet: what one reordered packet means to the stage
/// automaton. Classification priority: SYN wins over RST wins over FIN wins over payload wins over pure ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// Any packet with SYN set (even SYN+RST: SYN has priority).
    Syn,
    /// A non-SYN packet with RST set (bare RST or RST+ACK).
    Rst,
    /// A non-SYN, non-RST packet with FIN set.
    Fin,
    /// A data-bearing packet whose sequence number was not seen before.
    NewData,
    /// A data-bearing retransmission (sequence number already seen).
    DupData,
    /// A bare ACK: no payload, no SYN/FIN/RST.
    PureAck,
    /// Anything else (e.g. a flagless keep-alive).
    Ignored,
}

impl Event {
    /// All events, for exhaustive enumeration.
    pub const ALL: [Event; 7] = [
        Event::Syn,
        Event::Rst,
        Event::Fin,
        Event::NewData,
        Event::DupData,
        Event::PureAck,
        Event::Ignored,
    ];

    /// Compact label for fixtures and diagnostics.
    pub const fn label(self) -> &'static str {
        match self {
            Event::Syn => "SYN",
            Event::Rst => "RST",
            Event::Fin => "FIN",
            Event::NewData => "DATA",
            Event::DupData => "DUP",
            Event::PureAck => "ACK",
            Event::Ignored => "IGN",
        }
    }
}

/// Classify one reordered packet into an [`Event`], deduplicating data
/// segments by sequence number through `seen_data_seqs` (caller-owned
/// scratch so the machine can reuse its allocation).
pub fn event_of(p: &PacketRecord, seen_data_seqs: &mut Vec<u32>) -> Event {
    event_of_fields(p.flags, p.seq, p.has_payload(), seen_data_seqs)
}

/// [`event_of`] for packet `i` of any storage layout.
pub fn event_of_view<V: PacketsView + ?Sized>(
    v: &V,
    i: usize,
    seen_data_seqs: &mut Vec<u32>,
) -> Event {
    event_of_fields(v.flags(i), v.seq(i), v.has_payload(i), seen_data_seqs)
}

/// The shared event-classification body.
fn event_of_fields(
    f: TcpFlags,
    seq: u32,
    has_payload: bool,
    seen_data_seqs: &mut Vec<u32>,
) -> Event {
    if f.has_syn() {
        Event::Syn
    } else if f.has_rst() {
        Event::Rst
    } else if f.has_fin() {
        Event::Fin
    } else if has_payload {
        if seen_data_seqs.contains(&seq) {
            Event::DupData
        } else {
            seen_data_seqs.push(seq);
            Event::NewData
        }
    } else if f.has_ack() {
        Event::PureAck
    } else {
        Event::Ignored
    }
}

/// The finite stage-evidence state: everything the paper's sequence-type
/// assignment needs, folded packet by packet. `rst` doubles as the
/// freeze bit — the stage counts stop at the first RST (the paper's
/// stage boundary) while `syns` and `fin_any` keep counting over the
/// whole flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageState {
    /// SYN packets over the whole flow (never frozen).
    pub syns: Count,
    /// Unique data packets before the stage boundary.
    pub data: Count,
    /// Pure ACKs before the stage boundary.
    pub acks: Count,
    /// A FIN arrived before the first RST (or any FIN, if no RST).
    pub fin_before: bool,
    /// A FIN arrived anywhere in the flow (silence exemption).
    pub fin_any: bool,
    /// A RST arrived: the stage counts are frozen.
    pub rst: bool,
}

impl StageState {
    /// The initial state: nothing observed.
    pub const START: StageState = StageState {
        syns: Count::Zero,
        data: Count::Zero,
        acks: Count::Zero,
        fin_before: false,
        fin_any: false,
        rst: false,
    };

    /// Compact, stable label for the golden reachable-graph fixture.
    pub fn label(&self) -> String {
        format!(
            "syn={} data={} ack={} finpre={} fin={} rst={}",
            self.syns.label(),
            self.data.label(),
            self.acks.label(),
            if self.fin_before { "y" } else { "n" },
            if self.fin_any { "y" } else { "n" },
            if self.rst { "y" } else { "n" },
        )
    }
}

/// The transition table: one flat row per event, no nested conditionals.
/// Pure — exhaustively enumerable, property-testable, and total.
pub const fn transition(s: StageState, ev: Event) -> StageState {
    match (ev, s.rst) {
        (Event::Syn, _) => StageState {
            syns: s.syns.bump(),
            ..s
        },
        (Event::Rst, _) => StageState { rst: true, ..s },
        (Event::Fin, false) => StageState {
            fin_before: true,
            fin_any: true,
            ..s
        },
        (Event::Fin, true) => StageState { fin_any: true, ..s },
        (Event::NewData, false) => StageState {
            data: s.data.bump(),
            ..s
        },
        (Event::PureAck, false) => StageState {
            acks: s.acks.bump(),
            ..s
        },
        (Event::NewData | Event::PureAck, true) => s,
        (Event::DupData | Event::Ignored, _) => s,
    }
}

/// The sequence type (stage) read off a terminal state, as flat match
/// rows over the paper's stage ladder.
pub const fn stage_of(s: StageState) -> Option<Stage> {
    match (s.data, s.fin_before, s.acks, s.syns) {
        (Count::Many, _, _, _) => Some(Stage::PostData),
        (Count::One, _, _, _) => Some(Stage::PostPsh),
        (Count::Zero, true, _, _) => None,
        (Count::Zero, false, Count::Zero, _) => Some(Stage::PostSyn),
        (Count::Zero, false, Count::One, Count::One) => Some(Stage::PostAck),
        _ => None,
    }
}

/// Breadth-first closure of [`transition`] from [`StageState::START`]:
/// every reachable `(state, event, successor)` edge, sorted. The golden
/// fixture `tests/fixtures/state_graph.golden.txt` snapshots this graph
/// so any change to the transition table is visible in review.
pub fn reachable_graph() -> Vec<(StageState, Event, StageState)> {
    let mut frontier = vec![StageState::START];
    let mut seen = vec![StageState::START];
    let mut edges = Vec::new();
    while let Some(s) = frontier.pop() {
        for ev in Event::ALL {
            let next = transition(s, ev);
            edges.push((s, ev, next));
            if !seen.contains(&next) {
                seen.push(next);
                frontier.push(next);
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

/// One input to the [`FlowMachine`]. Events are owned: the machine takes
/// custody of each packet record, so callers never hold references across
/// `process` calls.
#[derive(Debug, Clone)]
pub enum Input {
    /// A new flow begins. Resets all per-flow state.
    Start {
        /// Client (initiator) address.
        client_ip: IpAddr,
        /// Server (responder) address.
        server_ip: IpAddr,
        /// Client port.
        src_port: u16,
        /// Server port.
        dst_port: u16,
    },
    /// One captured packet of the current flow, in arrival order.
    Packet(PacketRecord),
    /// The flow is over (evicted, timed out, or capture ended): produce
    /// the verdict. `truncated` flags flows cut by the packet cap, whose
    /// artificial tail silence must not count as evidence.
    End {
        /// The record hit the per-flow packet cap while still active.
        truncated: bool,
    },
}

/// What one `process` step yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The machine absorbed the input; feed it more.
    Continue,
    /// Terminal verdict for the flow that just ended.
    Analysis(FlowAnalysis),
}

/// The sans-IO per-flow classifier. See the module docs for the
/// invariants.
pub struct FlowMachine {
    cfg: ClassifierConfig,
    client_ip: IpAddr,
    server_ip: IpAddr,
    src_port: u16,
    dst_port: u16,
    /// Packet buffer in arrival order (reused across flows).
    packets: Vec<PacketRecord>,
    /// Reconstructed packet order (indices into `packets`).
    order: Vec<usize>,
    /// (is_pure_rst, ack) of every RST event, in reconstructed order.
    rsts: Vec<(bool, u32)>,
    /// Data-segment dedup scratch.
    seen_data_seqs: Vec<u32>,
}

impl FlowMachine {
    /// A machine with empty scratch buffers.
    pub fn new(cfg: ClassifierConfig) -> FlowMachine {
        FlowMachine {
            cfg,
            client_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            server_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            src_port: 0,
            dst_port: 0,
            packets: Vec::new(),
            order: Vec::new(),
            rsts: Vec::new(),
            seen_data_seqs: Vec::new(),
        }
    }

    /// The configuration this machine applies.
    pub fn config(&self) -> &ClassifierConfig {
        &self.cfg
    }

    /// The 4-tuple of the flow currently in progress.
    pub fn flow_tuple(&self) -> (IpAddr, IpAddr, u16, u16) {
        (self.client_ip, self.server_ip, self.src_port, self.dst_port)
    }

    /// Advance the machine by one input. Allocation-free once the scratch
    /// buffers are warm (buffer pushes reuse capacity released by the
    /// previous flow); the only allocations on the `End` path are inside
    /// the returned analysis (the extracted trigger domain).
    pub fn process(&mut self, input: Input, now: SimTime) -> Output {
        match input {
            Input::Start {
                client_ip,
                server_ip,
                src_port,
                dst_port,
            } => {
                self.client_ip = client_ip;
                self.server_ip = server_ip;
                self.src_port = src_port;
                self.dst_port = dst_port;
                self.packets.clear();
                Output::Continue
            }
            Input::Packet(p) => {
                self.packets.push(p);
                Output::Continue
            }
            Input::End { truncated } => Output::Analysis(self.finish(truncated, now)),
        }
    }

    /// Convenience driver: replay a finished [`FlowRecord`] through the
    /// machine. Equivalent to `Start`, one `Packet` per record, then
    /// `End` at the record's observation horizon.
    pub fn analyze(&mut self, flow: &FlowRecord) -> FlowAnalysis {
        self.process(
            Input::Start {
                client_ip: flow.client_ip,
                server_ip: flow.server_ip,
                src_port: flow.src_port,
                dst_port: flow.dst_port,
            },
            SimTime::ZERO,
        );
        for p in &flow.packets {
            // Second-granularity capture timestamps saturate into the
            // nanosecond SimTime domain.
            let at = SimTime(p.ts_sec.saturating_mul(1_000_000_000));
            self.process(Input::Packet(p.clone()), at);
        }
        let end = SimTime(flow.observation_end_sec.saturating_mul(1_000_000_000));
        match self.process(
            Input::End {
                truncated: flow.truncated,
            },
            end,
        ) {
            Output::Analysis(a) => a,
            Output::Continue => unreachable!("End always yields an analysis"),
        }
    }

    /// The reconstructed packet order of the last flow this machine
    /// finished, as indices into that flow's packets in arrival order —
    /// the order its verdict and evidence were read in.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Terminal step: reconstruct order, fold the event stream through
    /// the transition table, and read the verdict off the final state.
    fn finish(&mut self, truncated: bool, now: SimTime) -> FlowAnalysis {
        classify_view(
            &self.cfg,
            self.dst_port,
            self.packets.as_slice(),
            truncated,
            now.as_secs(),
            &mut self.order,
            &mut self.rsts,
            &mut self.seen_data_seqs,
        )
    }
}

/// The one classification body, generic over packet storage.
///
/// Both terminal paths end here: [`FlowMachine::process`] on `Input::End`
/// with its arrival-order `Vec<PacketRecord>` buffer, and
/// [`BatchClassifier`](crate::batch::BatchClassifier) with the column
/// slices of each finished flow in a batch — so the two produce
/// bit-identical [`FlowAnalysis`] values by construction. The one walk
/// over the reconstructed order also folds the IP-ID/TTL
/// [`FlowEvidence`](crate::evidence::FlowEvidence), so no caller sorts
/// the packets again. The caller
/// owns the three scratch buffers (reconstructed order, RST multiset,
/// data-seq dedup); once they are warm no packet count inside the
/// corpus' high-water marks allocates.
#[allow(clippy::too_many_arguments)]
pub fn classify_view<V: PacketsView + ?Sized>(
    cfg: &ClassifierConfig,
    dst_port: u16,
    v: &V,
    truncated: bool,
    observation_end_sec: u64,
    order: &mut Vec<usize>,
    rsts: &mut Vec<(bool, u32)>,
    seen_data_seqs: &mut Vec<u32>,
) -> FlowAnalysis {
    let trigger = trigger::extract_from_view(dst_port, v);
    reconstruct_order_view_into(v, order);
    rsts.clear();
    seen_data_seqs.clear();

    let mut state = StageState::START;
    let mut max_gap = 0u64;
    let mut prev_ts = None;
    let mut evidence = EvidenceWalk::new();
    for &pi in order.iter() {
        let ts = v.ts_sec(pi);
        if let Some(prev) = prev_ts {
            max_gap = max_gap.max(ts.saturating_sub(prev));
        }
        prev_ts = Some(ts);
        let flags = v.flags(pi);
        evidence.step(flags.has_rst(), v.ip_id(pi), v.ttl(pi));
        let ev = event_of_view(v, pi, seen_data_seqs);
        if ev == Event::Rst {
            rsts.push((flags.is_pure_rst(), v.ack(pi)));
        }
        state = transition(state, ev);
    }
    let evidence = evidence.finish();

    let tail_gap = if truncated {
        // The record stopped because the packet cap hit, not because
        // the flow went quiet; the tail says nothing.
        0
    } else {
        (0..v.len())
            .map(|i| v.ts_sec(i))
            .max()
            .map(|last| observation_end_sec.saturating_sub(last))
            .unwrap_or(0)
    };

    let rst_count = rsts.iter().filter(|(pure, _)| *pure).count();
    let rst_ack_count = rsts.len() - rst_count;
    let silent =
        !state.fin_any && (max_gap >= cfg.inactivity_secs || tail_gap >= cfg.inactivity_secs);
    let possibly_tampered = state.rst || silent;

    if !possibly_tampered || order.is_empty() {
        return FlowAnalysis {
            classification: Classification::NotTampered,
            stage: None,
            rst_count,
            rst_ack_count,
            trigger,
            evidence,
        };
    }

    let stage = stage_of(state);
    let signature = stage.and_then(|st| {
        if state.fin_before {
            // Teardown was already under way when the evidence
            // arrived: counted in its stage, matching no signature.
            return None;
        }
        if state.rst {
            if st == Stage::PostSyn && state.syns != Count::One {
                // Post-SYN signatures require "a single SYN".
                return None;
            }
            rst_signature(st, rsts)
        } else {
            match st {
                Stage::PostSyn if state.syns == Count::One => Some(Signature::SynNone),
                Stage::PostSyn => None, // multiple SYNs then silence
                Stage::PostAck => Some(Signature::AckNone),
                Stage::PostPsh | Stage::PostData => Some(Signature::PshNone),
            }
        }
    });
    let signature = if cfg.split_rst_counts {
        signature
    } else {
        signature.map(merge_rst_counts)
    };

    FlowAnalysis {
        classification: match signature {
            Some(sig) => Classification::Tampered(sig),
            None => Classification::PossiblyTamperedOther,
        },
        stage,
        rst_count,
        rst_ack_count,
        trigger,
        evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use bytes::Bytes;
    use tamper_wire::TcpFlags;

    fn rec(ts: u64, flags: TcpFlags, seq: u32, ack: u32, payload_len: u32) -> PacketRecord {
        PacketRecord {
            ts_sec: ts,
            flags,
            seq,
            ack,
            ip_id: Some(1),
            ttl: 52,
            window: 65535,
            payload_len,
            payload: Bytes::from(vec![b'q'; payload_len as usize]),
            has_tcp_options: true,
        }
    }

    fn flow(packets: Vec<PacketRecord>, end: u64, truncated: bool) -> FlowRecord {
        FlowRecord {
            client_ip: "203.0.113.9".parse().unwrap(),
            server_ip: "198.51.100.1".parse().unwrap(),
            src_port: 40000,
            dst_port: 443,
            packets,
            observation_end_sec: end,
            truncated,
        }
    }

    #[test]
    fn transition_table_freezes_stage_counts_at_first_rst() {
        let mut s = StageState::START;
        s = transition(s, Event::Syn);
        s = transition(s, Event::PureAck);
        s = transition(s, Event::Rst);
        let frozen = s;
        assert_eq!(transition(s, Event::NewData), frozen);
        assert_eq!(transition(s, Event::PureAck), frozen);
        // SYNs and FIN-anywhere keep counting.
        assert_eq!(transition(s, Event::Syn).syns, Count::Many);
        assert!(transition(s, Event::Fin).fin_any);
        assert!(!transition(s, Event::Fin).fin_before);
    }

    #[test]
    fn stage_table_matches_the_paper_ladder() {
        let post_ack = StageState {
            syns: Count::One,
            acks: Count::One,
            ..StageState::START
        };
        assert_eq!(stage_of(post_ack), Some(Stage::PostAck));
        assert_eq!(stage_of(StageState::START), Some(Stage::PostSyn));
        let two_acks = StageState {
            acks: Count::Many,
            ..post_ack
        };
        assert_eq!(stage_of(two_acks), None);
        let fin_first = StageState {
            fin_before: true,
            fin_any: true,
            ..StageState::START
        };
        assert_eq!(stage_of(fin_first), None);
        let data = StageState {
            data: Count::One,
            ..fin_first
        };
        assert_eq!(stage_of(data), Some(Stage::PostPsh));
    }

    #[test]
    fn machine_classifies_a_handful_of_shapes() {
        let cfg = ClassifierConfig::default();
        let cases = [
            (
                flow(vec![rec(100, TcpFlags::SYN, 100, 0, 0)], 130, false),
                Some(Signature::SynNone),
            ),
            (
                flow(
                    vec![
                        rec(100, TcpFlags::SYN, 100, 0, 0),
                        rec(100, TcpFlags::RST_ACK, 101, 101, 0),
                    ],
                    130,
                    false,
                ),
                Some(Signature::SynRstAck),
            ),
            (
                flow(
                    vec![
                        rec(100, TcpFlags::SYN, 100, 0, 0),
                        rec(100, TcpFlags::ACK, 101, 501, 0),
                        rec(101, TcpFlags::PSH_ACK, 101, 501, 5),
                        rec(101, TcpFlags::RST, 106, 0, 0),
                        rec(101, TcpFlags::RST, 106, 700, 0),
                    ],
                    130,
                    false,
                ),
                Some(Signature::PshRstZero),
            ),
            (flow(Vec::new(), 130, false), None),
        ];
        let mut m = FlowMachine::new(cfg);
        for (f, want) in &cases {
            let got = m.analyze(f);
            assert_eq!(got.signature(), *want);
            // Replaying on a warm machine matches a fresh one.
            assert_eq!(got, classify(f, &cfg));
        }
    }

    #[test]
    fn reachable_graph_is_closed_and_deterministic() {
        let a = reachable_graph();
        let b = reachable_graph();
        assert_eq!(a, b);
        // Closure: every successor also appears as a source.
        for &(_, _, next) in &a {
            assert!(a.iter().any(|&(s, _, _)| s == next));
        }
        // Every reachable state has exactly one row per event.
        let states: std::collections::BTreeSet<_> = a.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(a.len(), states.len() * Event::ALL.len());
    }
}
