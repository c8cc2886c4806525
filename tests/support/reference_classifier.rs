//! A test-only reference classifier: the original per-flow feature pass
//! with nested stage conditionals, kept as an independent oracle for the
//! random-flow differentials against `FlowMachine`. It owns its copy of
//! the RST-signature table, so a change to the production table shows up
//! as a divergence instead of moving both sides at once.

use tamperscope::capture::{FlowRecord, PacketRecord};
use tamperscope::core::{
    extract_trigger, reconstruct_order_into, Classification, ClassifierConfig, FlowAnalysis,
    Signature, Stage,
};

/// The reference classifier: configuration plus reusable scratch.
pub struct Classifier {
    cfg: ClassifierConfig,
    /// Reconstructed packet order (indices into `flow.packets`).
    order: Vec<usize>,
    /// (is_pure_rst, ack) of every RST-flagged packet, in order.
    rsts: Vec<(bool, u32)>,
    /// Positions (in reconstructed order) of unique data-bearing packets
    /// (payload > 0, not SYN), deduplicated by sequence number so
    /// retransmissions don't shift the stage.
    data_indices: Vec<usize>,
    seen_data_seqs: Vec<u32>,
    /// Positions of pure ACKs (no payload, no SYN/FIN/RST).
    pure_ack_indices: Vec<usize>,
}

/// Per-flow scalar features (everything the scratch vectors don't hold).
struct Scalars {
    syn_count: usize,
    has_fin: bool,
    fin_index: Option<usize>,
    first_rst_index: Option<usize>,
    max_gap: u64,
    tail_gap: u64,
}

impl Classifier {
    pub fn new(cfg: ClassifierConfig) -> Classifier {
        Classifier {
            cfg,
            order: Vec::new(),
            rsts: Vec::new(),
            data_indices: Vec::new(),
            seen_data_seqs: Vec::new(),
            pure_ack_indices: Vec::new(),
        }
    }

    fn features(&mut self, flow: &FlowRecord) -> Scalars {
        let packets = &flow.packets;
        reconstruct_order_into(packets, &mut self.order);
        self.rsts.clear();
        self.data_indices.clear();
        self.seen_data_seqs.clear();
        self.pure_ack_indices.clear();

        let mut syn_count = 0;
        let mut has_fin = false;
        let mut fin_index = None;
        let mut first_rst_index = None;

        for (i, &pi) in self.order.iter().enumerate() {
            let p: &PacketRecord = &packets[pi];
            let f = p.flags;
            if f.has_syn() {
                syn_count += 1;
            } else if f.has_rst() {
                if first_rst_index.is_none() {
                    first_rst_index = Some(i);
                }
                self.rsts.push((f.is_pure_rst(), p.ack));
            } else if f.has_fin() {
                has_fin = true;
                if fin_index.is_none() {
                    fin_index = Some(i);
                }
            } else if p.has_payload() {
                if !self.seen_data_seqs.contains(&p.seq) {
                    self.seen_data_seqs.push(p.seq);
                    self.data_indices.push(i);
                }
            } else if f.has_ack() {
                self.pure_ack_indices.push(i);
            }
        }

        let mut max_gap = 0;
        for w in self.order.windows(2) {
            max_gap = max_gap.max(packets[w[1]].ts_sec.saturating_sub(packets[w[0]].ts_sec));
        }
        let tail_gap = if flow.truncated {
            // The record stopped because the 10-packet limit hit, not
            // because the flow went quiet; the tail says nothing.
            0
        } else {
            flow.tail_gap_after_last_packet()
        };

        Scalars {
            syn_count,
            has_fin,
            fin_index,
            first_rst_index,
            max_gap,
            tail_gap,
        }
    }

    /// Classify one flow record, reusing this classifier's scratch space.
    pub fn classify(&mut self, flow: &FlowRecord) -> FlowAnalysis {
        let trigger = extract_trigger(flow);
        let f = self.features(flow);
        let cfg = &self.cfg;
        let rst_count = self.rsts.iter().filter(|(p, _)| *p).count();
        let rst_ack_count = self.rsts.len() - rst_count;

        let has_rst = !self.rsts.is_empty();
        let silent =
            !f.has_fin && (f.max_gap >= cfg.inactivity_secs || f.tail_gap >= cfg.inactivity_secs);
        let possibly_tampered = has_rst || silent;

        if !possibly_tampered || self.order.is_empty() {
            return FlowAnalysis {
                classification: Classification::NotTampered,
                stage: None,
                rst_count,
                rst_ack_count,
                trigger,
            };
        }

        // The stage boundary: the first RST for injection evidence, or
        // the end of the recorded packets for silence evidence.
        let boundary = f.first_rst_index.unwrap_or(self.order.len());
        let data_before = self.data_indices.iter().filter(|&&i| i < boundary).count();
        let acks_before = self
            .pure_ack_indices
            .iter()
            .filter(|&&i| i < boundary)
            .count();
        let fin_before_rst = match (f.fin_index, f.first_rst_index) {
            (Some(fi), Some(ri)) => fi < ri,
            (Some(_), None) => true,
            _ => false,
        };

        let stage = if data_before >= 2 {
            Some(Stage::PostData)
        } else if data_before == 1 {
            Some(Stage::PostPsh)
        } else if fin_before_rst {
            // FIN with no data at all: an odd teardown; unclassifiable.
            None
        } else if acks_before == 0 {
            Some(Stage::PostSyn)
        } else if acks_before == 1 && f.syn_count == 1 {
            Some(Stage::PostAck)
        } else {
            None
        };

        let signature = stage.and_then(|st| {
            if fin_before_rst {
                return None;
            }
            if has_rst {
                if st == Stage::PostSyn && f.syn_count != 1 {
                    // Post-SYN signatures require "a single SYN".
                    return None;
                }
                rst_signature(st, &self.rsts)
            } else {
                match st {
                    Stage::PostSyn if f.syn_count == 1 => Some(Signature::SynNone),
                    Stage::PostSyn => None,
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
        }
    }
}

/// The signature of a RST-terminated flow at a given stage (Table 1).
fn rst_signature(stage: Stage, rsts: &[(bool, u32)]) -> Option<Signature> {
    let pure: Vec<u32> = rsts.iter().filter(|(p, _)| *p).map(|&(_, a)| a).collect();
    let n_pure = pure.len();
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
                if pure.iter().all(|&a| a == pure[0]) {
                    Some(Signature::PshRstEq)
                } else if pure.contains(&0) {
                    Some(Signature::PshRstZero)
                } else {
                    Some(Signature::PshRstNeq)
                }
            } else {
                None
            }
        }
        Stage::PostData => match rsts.first() {
            None => None,
            Some((true, _)) => Some(Signature::DataRst),
            Some((false, _)) => Some(Signature::DataRstAck),
        },
    }
}

/// The A4 ablation: collapse single/multi RST splits into the singular
/// form.
fn merge_rst_counts(sig: Signature) -> Signature {
    match sig {
        Signature::AckRstRst => Signature::AckRst,
        Signature::AckRstAckRstAck => Signature::AckRstAck,
        Signature::PshRstEq | Signature::PshRstNeq | Signature::PshRstZero => Signature::PshRst,
        Signature::PshRstAckRstAck => Signature::PshRstAck,
        s => s,
    }
}
