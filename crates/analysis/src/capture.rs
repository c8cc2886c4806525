//! Classify-path adapters: feeding raw capture flows — which carry no
//! simulation ground truth — through the same [`Collector`] the worldgen
//! pipeline uses, and summarizing an engine run as JSON.
//!
//! The summary is split in two on purpose:
//!
//! - [`capture_summary_to_json`] holds only values that are a pure
//!   function of the capture bytes and the classifier configuration, so
//!   the line is byte-identical no matter how many engine threads
//!   produced it (the determinism suite compares it verbatim);
//! - [`engine_perf_to_json`] holds everything scheduling-dependent
//!   (thread count, channel stalls, live-table high water, eviction-cause
//!   split, which shifts when `--max-flows` divides across a different
//!   shard count).

use crate::fmt::pct_f;
use crate::jsonl::JsonObject;
use crate::Collector;
use tamper_capture::{EngineStats, FlowRecord, FlowTuple};
use tamper_core::{PacketsView, Signature};
use tamper_worldgen::{Asn, GroundTruth, LabeledFlow, SessionMeta};

/// Wrap a capture flow in neutral session metadata so the [`Collector`]
/// can aggregate it (see [`capture_meta`]).
pub fn label_capture_flow(flow: FlowRecord) -> LabeledFlow {
    let meta = capture_meta(&flow.tuple(), flow.packets.as_slice());
    LabeledFlow { flow, meta }
}

/// The neutral session metadata a capture flow is aggregated under: one
/// synthetic country/AS, protocol inferred from the destination port,
/// start time from the first retained packet, ground truth `Clean` (a
/// real capture has none).
pub fn capture_meta<V: PacketsView + ?Sized>(tuple: &FlowTuple, packets: &V) -> SessionMeta {
    SessionMeta {
        country: 0,
        asn: Asn(0),
        ipv6: tuple.client_ip.is_ipv6(),
        http: tuple.dst_port == 80,
        domain: None,
        start_unix: if packets.is_empty() {
            0
        } else {
            packets.ts_sec(0)
        },
        truth: GroundTruth::Clean,
    }
}

/// A collector sized for capture aggregation (one synthetic country, one
/// day of hourly buckets anchored at the capture's epoch).
pub fn capture_collector(cfg: tamper_core::ClassifierConfig, start_unix: u64) -> Collector {
    Collector::new(cfg, 1, 1, start_unix)
}

/// The deterministic summary line for a classify run: ingest counters
/// plus classification aggregates. Field values depend only on the input
/// capture and classifier configuration — never on thread count.
pub fn capture_summary_to_json(col: &crate::PartialAggregate, stats: &EngineStats) -> String {
    let mut sig_counts = [0u64; 19];
    for row in &col.country_class {
        for (i, c) in row.iter().take(19).enumerate() {
            sig_counts[i] += c;
        }
    }
    let mut sigs = JsonObject::new();
    for sig in Signature::ALL {
        sigs = sigs.uint(sig.label(), sig_counts[sig.index()]);
    }

    let stage_keys = ["post_syn", "post_ack", "post_psh", "post_data", "other"];
    let mut stages = JsonObject::new();
    for (key, (&count, &matched)) in stage_keys
        .iter()
        .zip(col.stage_counts.iter().zip(col.stage_matched.iter()))
    {
        stages = stages.raw(
            key,
            &JsonObject::new()
                .uint("possibly_tampered", count)
                .uint("matched", matched)
                .finish(),
        );
    }

    JsonObject::new()
        .uint("records", stats.records)
        .uint("flows", stats.ingest.flows)
        .uint("packets", stats.ingest.packets)
        .uint("truncated_packets", stats.ingest.truncated_packets)
        .uint("unparsable", stats.ingest.unparsable)
        .uint("not_inbound", stats.ingest.not_inbound)
        .bool("corrupt_tail", stats.corrupt_tail)
        .uint("total_flows", col.total)
        .uint("possibly_tampered", col.possibly_tampered)
        .str(
            "possibly_tampered_pct",
            &pct_f(col.possibly_tampered as f64 / col.total.max(1) as f64),
        )
        .raw("stages", &stages.finish())
        .raw("signatures", &sigs.finish())
        .finish()
}

/// The scheduling-dependent counters of an engine run, as their own JSON
/// line. Kept out of [`capture_summary_to_json`] so determinism checks
/// can compare that line byte-for-byte across thread counts.
pub fn engine_perf_to_json(stats: &EngineStats) -> String {
    JsonObject::new()
        .uint("threads", stats.threads as u64)
        .uint("channel_stalls", stats.channel_stalls)
        .uint("max_live_flows", stats.max_live_flows)
        .uint("evicted_timeout", stats.evicted_timeout)
        .uint("evicted_cap", stats.evicted_cap)
        .uint("drained_eof", stats.drained_eof)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    use tamper_capture::{IngestStats, PacketRecord};
    use tamper_core::ClassifierConfig;
    use tamper_wire::TcpFlags;

    fn sample_flow(dst_port: u16, v6: bool) -> FlowRecord {
        let client_ip = if v6 {
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1))
        } else {
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9))
        };
        FlowRecord {
            client_ip,
            server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            src_port: 40000,
            dst_port,
            packets: vec![
                PacketRecord {
                    ts_sec: 1234,
                    flags: TcpFlags::SYN,
                    seq: 100,
                    ack: 0,
                    ip_id: Some(7),
                    ttl: 52,
                    window: 65535,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: true,
                },
                PacketRecord {
                    ts_sec: 1234,
                    flags: TcpFlags::RST,
                    seq: 101,
                    ack: 0,
                    ip_id: Some(8),
                    ttl: 52,
                    window: 0,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: false,
                },
            ],
            observation_end_sec: 1264,
            truncated: false,
        }
    }

    #[test]
    fn labels_carry_flow_derived_fields() {
        let lf = label_capture_flow(sample_flow(80, false));
        assert_eq!(lf.meta.country, 0);
        assert_eq!(lf.meta.asn, Asn(0));
        assert!(lf.meta.http);
        assert!(!lf.meta.ipv6);
        assert_eq!(lf.meta.start_unix, 1234);
        assert!(matches!(lf.meta.truth, GroundTruth::Clean));

        let lf6 = label_capture_flow(sample_flow(443, true));
        assert!(lf6.meta.ipv6);
        assert!(!lf6.meta.http);
    }

    #[test]
    fn summary_counts_signatures_and_stays_flat() {
        let mut col = capture_collector(ClassifierConfig::default(), 0);
        col.observe(&label_capture_flow(sample_flow(443, false)));
        let stats = EngineStats {
            records: 2,
            ingest: IngestStats {
                flows: 1,
                packets: 2,
                truncated_packets: 0,
                unparsable: 0,
                not_inbound: 0,
            },
            evicted_timeout: 0,
            evicted_cap: 0,
            drained_eof: 1,
            corrupt_tail: false,
            channel_stalls: 0,
            max_live_flows: 1,
            threads: 4,
        };
        let line = capture_summary_to_json(&col, &stats);
        assert!(line.contains("\"total_flows\":1"));
        assert!(line.contains("\"possibly_tampered\":1"));
        assert!(line.contains(&format!("\"{}\":1", Signature::SynRst.label())));
        // Scheduling-dependent values stay out of the deterministic line.
        assert!(!line.contains("threads"));
        assert!(!line.contains("channel_stalls"));
        assert!(!line.contains('\n'));

        let perf = engine_perf_to_json(&stats);
        assert!(perf.contains("\"threads\":4"));
        assert!(perf.contains("\"drained_eof\":1"));
    }
}
