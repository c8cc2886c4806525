//! The classifier: from a constrained [`FlowRecord`] to a
//! [`Classification`] — possibly-tampered detection plus matching against
//! the 19 tampering signatures (paper §4.1).
//!
//! Definitions implemented here, straight from the paper:
//!
//! - a flow is **possibly tampered** if it contains a RST, or exhibits a
//!   ≥3-second inactivity gap without a FIN handshake (flows truncated at
//!   the 10-packet limit while still active are *not* flagged by their
//!   artificial tail gap);
//! - the **stage** is where the evidence lands: after a single SYN, after
//!   the handshake ACK, after the first data packet, or after multiple
//!   data packets;
//! - the **signature** within a stage is decided by the multiset of
//!   tear-down packets (bare RST vs RST+ACK, their count, and — for
//!   multi-RST bursts — the relationship between their ack numbers).
//!
//! This module holds the configuration, the [`FlowAnalysis`] verdict
//! type and the RST-signature table; the one classification body is
//! [`classify_view`](crate::machine::classify_view), which the
//! [`FlowMachine`], the batch classifier and [`classify`] all run.

use crate::evidence::FlowEvidence;
use crate::machine::FlowMachine;
use crate::signature::{Classification, Signature, Stage};
use crate::trigger::TriggerInfo;
use tamper_capture::FlowRecord;

/// Classifier tuning knobs (paper defaults; ablations override).
#[derive(Debug, Clone, Copy)]
pub struct ClassifierConfig {
    /// Inactivity threshold in seconds (paper: 3).
    pub inactivity_secs: u64,
    /// When false, the single-vs-multiple RST splits are merged (ablation
    /// A4, motivated by the paper's Appendix B finding that the split has
    /// limited utility).
    pub split_rst_counts: bool,
}

impl Default for ClassifierConfig {
    fn default() -> ClassifierConfig {
        ClassifierConfig {
            inactivity_secs: 3,
            split_rst_counts: true,
        }
    }
}

/// Full analysis of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAnalysis {
    /// The verdict.
    pub classification: Classification,
    /// Stage of the termination evidence, when determinable.
    pub stage: Option<Stage>,
    /// Bare RSTs observed.
    pub rst_count: usize,
    /// RST+ACKs observed.
    pub rst_ack_count: usize,
    /// Trigger domain / protocol extracted from payloads.
    pub trigger: TriggerInfo,
    /// IP-ID / TTL discontinuities, from the same reconstructed order.
    pub evidence: FlowEvidence,
}

impl FlowAnalysis {
    /// Shorthand for the matched signature.
    pub fn signature(&self) -> Option<Signature> {
        self.classification.signature()
    }

    /// Shorthand for possibly-tampered status.
    pub fn is_possibly_tampered(&self) -> bool {
        self.classification.is_possibly_tampered()
    }
}

/// Pick the signature for a RST-terminated flow at a given stage.
pub(crate) fn rst_signature(stage: Stage, rsts: &[(bool, u32)]) -> Option<Signature> {
    // Counting passes instead of collecting the pure-RST subsequence:
    // this runs per classified flow, inside the zero-alloc analyze path.
    let n_pure = rsts.iter().filter(|(p, _)| *p).count();
    let n_ra = rsts.len() - n_pure;
    match stage {
        Stage::PostSyn => match (n_pure, n_ra) {
            (0, 0) => None,
            (_, 0) => Some(Signature::SynRst),
            (0, _) => Some(Signature::SynRstAck),
            _ => Some(Signature::SynRstBoth),
        },
        Stage::PostAck => match (n_pure, n_ra) {
            (1, 0) => Some(Signature::AckRst),
            (n, 0) if n > 1 => Some(Signature::AckRstRst),
            (0, 1) => Some(Signature::AckRstAck),
            (0, n) if n > 1 => Some(Signature::AckRstAckRstAck),
            // Mixed RST + RST+ACK post-handshake is not in Table 1.
            _ => None,
        },
        Stage::PostPsh => {
            if n_pure >= 1 && n_ra >= 1 {
                Some(Signature::PshRstRstAck)
            } else if n_ra >= 2 {
                Some(Signature::PshRstAckRstAck)
            } else if n_ra == 1 {
                Some(Signature::PshRstAck)
            } else if n_pure == 1 {
                Some(Signature::PshRst)
            } else if n_pure >= 2 {
                let mut pure = rsts.iter().filter(|(p, _)| *p).map(|&(_, a)| a);
                let first = pure.next().unwrap_or(0);
                if pure.clone().all(|a| a == first) {
                    Some(Signature::PshRstEq)
                } else if pure.any(|a| a == 0) || first == 0 {
                    Some(Signature::PshRstZero)
                } else {
                    Some(Signature::PshRstNeq)
                }
            } else {
                None
            }
        }
        Stage::PostData => {
            if rsts.is_empty() {
                None
            } else if rsts[0].0 {
                Some(Signature::DataRst)
            } else {
                Some(Signature::DataRstAck)
            }
        }
    }
}

/// The A4 ablation: collapse single/multi RST splits into the singular
/// form.
pub(crate) fn merge_rst_counts(sig: Signature) -> Signature {
    use Signature::*;
    match sig {
        AckRstRst => AckRst,
        AckRstAckRstAck => AckRstAck,
        PshRstEq | PshRstNeq | PshRstZero => PshRst,
        PshRstAckRstAck => PshRstAck,
        s @ (SynNone | SynRst | SynRstAck | SynRstBoth | AckNone | AckRst | AckRstAck | PshNone
        | PshRst | PshRstAck | PshRstRstAck | DataRst | DataRstAck) => s,
    }
}

/// Classify one flow record: a fresh [`FlowMachine`] replaying it. Hot
/// paths keep one machine (or a
/// [`BatchClassifier`](crate::batch::BatchClassifier)) per shard so the
/// scratch buffers amortize across the whole capture.
///
/// ```
/// use tamper_capture::{FlowRecord, PacketRecord};
/// use tamper_core::{classify, ClassifierConfig, Signature};
/// use tamper_wire::TcpFlags;
///
/// let rec = |flags: TcpFlags, seq: u32| PacketRecord {
///     ts_sec: 100, flags, seq, ack: 0, ip_id: Some(1), ttl: 52,
///     window: 65535, payload_len: 0, payload: bytes::Bytes::new(),
///     has_tcp_options: true,
/// };
/// let flow = FlowRecord {
///     client_ip: "203.0.113.1".parse().unwrap(),
///     server_ip: "198.51.100.1".parse().unwrap(),
///     src_port: 40000, dst_port: 443,
///     packets: vec![rec(TcpFlags::SYN, 100), rec(TcpFlags::RST, 101)],
///     observation_end_sec: 130, truncated: false,
/// };
/// let analysis = classify(&flow, &ClassifierConfig::default());
/// assert_eq!(analysis.signature(), Some(Signature::SynRst));
/// ```
pub fn classify(flow: &FlowRecord, cfg: &ClassifierConfig) -> FlowAnalysis {
    FlowMachine::new(*cfg).analyze(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr};
    use tamper_capture::PacketRecord;
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

    fn flow(packets: Vec<PacketRecord>, end: u64) -> FlowRecord {
        FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 40000,
            dst_port: 443,
            packets,
            observation_end_sec: end,
            truncated: false,
        }
    }

    fn classify_default(f: &FlowRecord) -> FlowAnalysis {
        classify(f, &ClassifierConfig::default())
    }

    const SYN: TcpFlags = TcpFlags::SYN;
    const ACK: TcpFlags = TcpFlags::ACK;
    const PSH: TcpFlags = TcpFlags::PSH_ACK;
    const RST: TcpFlags = TcpFlags::RST;
    const RA: TcpFlags = TcpFlags::RST_ACK;
    const FIN: TcpFlags = TcpFlags::FIN_ACK;

    #[test]
    fn graceful_flow_not_tampered() {
        let f = flow(
            vec![
                rec(0, SYN, 100, 0, 0),
                rec(0, ACK, 101, 501, 0),
                rec(0, PSH, 101, 501, 300),
                rec(1, ACK, 401, 2000, 0),
                rec(1, FIN, 401, 2000, 0),
            ],
            30,
        );
        let a = classify_default(&f);
        assert_eq!(a.classification, Classification::NotTampered);
        assert!(!a.is_possibly_tampered());
    }

    #[test]
    fn syn_silence() {
        let f = flow(vec![rec(0, SYN, 100, 0, 0)], 30);
        let a = classify_default(&f);
        assert_eq!(a.signature(), Some(Signature::SynNone));
        assert_eq!(a.stage, Some(Stage::PostSyn));
    }

    #[test]
    fn syn_rst_variants() {
        let base = |extra: Vec<PacketRecord>| {
            let mut v = vec![rec(0, SYN, 100, 0, 0)];
            v.extend(extra);
            flow(v, 30)
        };
        let a = classify_default(&base(vec![rec(0, RST, 101, 0, 0)]));
        assert_eq!(a.signature(), Some(Signature::SynRst));
        let a = classify_default(&base(vec![rec(0, RA, 0, 101, 0)]));
        assert_eq!(a.signature(), Some(Signature::SynRstAck));
        let a = classify_default(&base(vec![rec(0, RST, 101, 0, 0), rec(0, RA, 0, 101, 0)]));
        assert_eq!(a.signature(), Some(Signature::SynRstBoth));
    }

    #[test]
    fn post_ack_variants() {
        let base = |extra: Vec<PacketRecord>| {
            let mut v = vec![rec(0, SYN, 100, 0, 0), rec(0, ACK, 101, 501, 0)];
            v.extend(extra);
            flow(v, 30)
        };
        assert_eq!(
            classify_default(&base(vec![])).signature(),
            Some(Signature::AckNone)
        );
        assert_eq!(
            classify_default(&base(vec![rec(0, RST, 101, 0, 0)])).signature(),
            Some(Signature::AckRst)
        );
        assert_eq!(
            classify_default(&base(vec![rec(0, RST, 101, 0, 0), rec(0, RST, 101, 0, 0)]))
                .signature(),
            Some(Signature::AckRstRst)
        );
        assert_eq!(
            classify_default(&base(vec![rec(0, RA, 101, 501, 0)])).signature(),
            Some(Signature::AckRstAck)
        );
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RA, 101, 501, 0),
                rec(0, RA, 101, 501, 0)
            ]))
            .signature(),
            Some(Signature::AckRstAckRstAck)
        );
        // Mixed forms post-ACK are not a Table 1 signature.
        let a = classify_default(&base(vec![rec(0, RST, 101, 0, 0), rec(0, RA, 101, 501, 0)]));
        assert_eq!(a.classification, Classification::PossiblyTamperedOther);
    }

    fn psh_prefix() -> Vec<PacketRecord> {
        vec![
            rec(0, SYN, 100, 0, 0),
            rec(0, ACK, 101, 501, 0),
            rec(0, PSH, 101, 501, 250),
        ]
    }

    #[test]
    fn post_psh_variants() {
        let base = |extra: Vec<PacketRecord>| {
            let mut v = psh_prefix();
            v.extend(extra);
            flow(v, 30)
        };
        assert_eq!(
            classify_default(&base(vec![])).signature(),
            Some(Signature::PshNone)
        );
        assert_eq!(
            classify_default(&base(vec![rec(0, RST, 351, 700, 0)])).signature(),
            Some(Signature::PshRst)
        );
        assert_eq!(
            classify_default(&base(vec![rec(0, RA, 351, 700, 0)])).signature(),
            Some(Signature::PshRstAck)
        );
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RST, 351, 700, 0),
                rec(0, RA, 351, 700, 0)
            ]))
            .signature(),
            Some(Signature::PshRstRstAck)
        );
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RA, 351, 700, 0),
                rec(0, RA, 351, 700, 0)
            ]))
            .signature(),
            Some(Signature::PshRstAckRstAck)
        );
        // Multi bare RST with equal acks.
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RST, 351, 700, 0),
                rec(0, RST, 351, 700, 0)
            ]))
            .signature(),
            Some(Signature::PshRstEq)
        );
        // Differing acks, none zero.
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RST, 351, 700, 0),
                rec(0, RST, 351, 2160, 0)
            ]))
            .signature(),
            Some(Signature::PshRstNeq)
        );
        // One zero ack.
        assert_eq!(
            classify_default(&base(vec![
                rec(0, RST, 351, 700, 0),
                rec(0, RST, 351, 0, 0)
            ]))
            .signature(),
            Some(Signature::PshRstZero)
        );
    }

    #[test]
    fn post_data_variants() {
        let base = |extra: Vec<PacketRecord>| {
            let mut v = psh_prefix();
            v.push(rec(1, PSH, 351, 900, 120)); // second data packet
            v.extend(extra);
            flow(v, 30)
        };
        assert_eq!(
            classify_default(&base(vec![rec(1, RST, 471, 0, 0)])).signature(),
            Some(Signature::DataRst)
        );
        assert_eq!(
            classify_default(&base(vec![rec(1, RA, 471, 900, 0)])).signature(),
            Some(Signature::DataRstAck)
        );
        // Silence after multiple data packets folds into ⟨PSH+ACK → ∅⟩.
        assert_eq!(
            classify_default(&base(vec![])).signature(),
            Some(Signature::PshNone)
        );
    }

    #[test]
    fn fin_before_rst_is_other() {
        let mut v = psh_prefix();
        v.push(rec(1, FIN, 351, 900, 0));
        v.push(rec(1, RST, 352, 0, 0));
        let a = classify_default(&flow(v, 30));
        assert_eq!(a.classification, Classification::PossiblyTamperedOther);
    }

    #[test]
    fn two_acks_without_data_is_other() {
        let f = flow(
            vec![
                rec(0, SYN, 100, 0, 0),
                rec(0, ACK, 101, 501, 0),
                rec(1, ACK, 101, 501, 0),
            ],
            30,
        );
        let a = classify_default(&f);
        assert_eq!(a.classification, Classification::PossiblyTamperedOther);
    }

    #[test]
    fn multiple_syns_then_silence_is_other() {
        let f = flow(vec![rec(0, SYN, 100, 0, 0), rec(1, SYN, 100, 0, 0)], 30);
        let a = classify_default(&f);
        assert_eq!(a.classification, Classification::PossiblyTamperedOther);
    }

    #[test]
    fn truncated_active_flow_is_not_tampered() {
        // Ten packets of a healthy long download; no FIN recorded because
        // the record was truncated, and a huge artificial tail gap.
        let mut v = psh_prefix();
        for i in 0..7 {
            v.push(rec(1, ACK, 351, 1000 + i * 1200, 0));
        }
        let mut f = flow(v, 30);
        f.truncated = true;
        let a = classify_default(&f);
        assert_eq!(a.classification, Classification::NotTampered);
    }

    #[test]
    fn mid_flow_gap_without_fin_is_possibly_tampered() {
        let mut v = psh_prefix();
        v.push(rec(8, ACK, 351, 1000, 0)); // 8-second gap after the PSH
        let a = classify_default(&flow(v, 9));
        assert!(a.is_possibly_tampered());
    }

    #[test]
    fn inactivity_threshold_is_configurable() {
        let mut v = psh_prefix();
        v.push(rec(2, ACK, 351, 1000, 0)); // 2-second gap, then nothing; end at 4
        let f = flow(v, 4);
        let strict = classify(
            &f,
            &ClassifierConfig {
                inactivity_secs: 1,
                split_rst_counts: true,
            },
        );
        assert!(strict.is_possibly_tampered());
        let lax = classify(
            &f,
            &ClassifierConfig {
                inactivity_secs: 3,
                split_rst_counts: true,
            },
        );
        assert!(!lax.is_possibly_tampered());
    }

    #[test]
    fn merged_rst_counts_ablation() {
        let mut v = psh_prefix();
        v.push(rec(0, RST, 351, 700, 0));
        v.push(rec(0, RST, 351, 2160, 0));
        let f = flow(v, 30);
        let merged = classify(
            &f,
            &ClassifierConfig {
                inactivity_secs: 3,
                split_rst_counts: false,
            },
        );
        assert_eq!(merged.signature(), Some(Signature::PshRst));
    }

    #[test]
    fn rst_counts_reported() {
        let mut v = psh_prefix();
        v.push(rec(0, RST, 351, 700, 0));
        v.push(rec(0, RA, 351, 700, 0));
        let a = classify_default(&flow(v, 30));
        assert_eq!(a.rst_count, 1);
        assert_eq!(a.rst_ack_count, 1);
    }

    #[test]
    fn retransmitted_data_does_not_shift_stage() {
        // Same data packet logged twice (same seq): still Post-PSH.
        let mut v = psh_prefix();
        v.push(rec(1, PSH, 101, 501, 250)); // retransmission, same seq
        v.push(rec(1, RST, 351, 700, 0));
        let a = classify_default(&flow(v, 30));
        assert_eq!(a.signature(), Some(Signature::PshRst));
    }

    #[test]
    fn reused_machine_matches_free_function() {
        // One FlowMachine fed a mix of flow shapes back to back must give
        // the same verdicts as a fresh classification of each — stale
        // scratch state from one flow must never leak into the next.
        let flows = vec![
            flow(vec![rec(0, SYN, 100, 0, 0), rec(0, RST, 101, 0, 0)], 30),
            flow(vec![rec(0, SYN, 100, 0, 0)], 30),
            {
                let mut v = psh_prefix();
                v.push(rec(0, RST, 351, 700, 0));
                v.push(rec(0, RA, 351, 700, 0));
                flow(v, 30)
            },
            flow(
                vec![
                    rec(0, SYN, 100, 0, 0),
                    rec(0, ACK, 101, 501, 0),
                    rec(0, TcpFlags::FIN_ACK, 101, 501, 0),
                ],
                30,
            ),
            flow(vec![], 30),
        ];
        let mut machine = FlowMachine::new(ClassifierConfig::default());
        for f in &flows {
            assert_eq!(machine.analyze(f), classify_default(f));
        }
    }
}
