//! JSON escaping equivalence: the fast-path escaper behind every JSON
//! line (`escape_json`, `escape_into`, `JsonObject`, `flow_to_jsonl`)
//! must write exactly what the plain RFC 8259 char-by-char escaper
//! writes, on every ASCII char, on the non-ASCII chars the output
//! carries, and on a hostile trigger domain — the SNI/Host string comes
//! off the wire.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::Bytes;
use tamperscope::analysis::{escape_into, escape_json, flow_to_jsonl, JsonObject};
use tamperscope::capture::{FlowRecord, PacketRecord};
use tamperscope::core::{
    AppProtocol, Classification, FlowAnalysis, FlowEvidence, Signature, Stage, TriggerInfo,
};
use tamperscope::wire::TcpFlags;

/// The reference escaper: one `match` per char, no fast path.
fn reference_escape(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every input the equivalence is checked on: each ASCII char alone, the
/// non-ASCII chars of interest, the signature and stage labels, and
/// mixed strings.
fn inputs() -> Vec<String> {
    let mut v: Vec<String> = (0u32..=0x7f)
        .map(|c| char::from_u32(c).unwrap().to_string())
        .collect();
    v.push((0u32..=0x7f).filter_map(char::from_u32).collect());
    for c in [
        '\u{80}',
        '\u{2028}',
        '\u{ffff}',
        '\u{1f600}',
        '⟨',
        '→',
        '∅',
        '⟩',
    ] {
        v.push(c.to_string());
        v.push(format!("a{c}\"{c}\\"));
    }
    v.extend(Signature::ALL.iter().map(|s| s.label().to_owned()));
    v.extend(Stage::ALL.iter().map(|s| s.label().to_owned()));
    v.push(String::new());
    v.push(hostile_domain().to_owned());
    v
}

/// Quotes, backslashes, every escape class and control bytes, as a
/// crafted SNI/Host value could carry them.
fn hostile_domain() -> &'static str {
    "evil\".com\\\"}{\"x\":1,\u{0}\u{1}\u{8}\u{b}\u{c}\u{1b}\u{1f}\n\r\t\u{7f}\u{2028}é.example"
}

#[test]
fn escape_json_and_escape_into_match_the_reference() {
    for s in inputs() {
        let want = reference_escape(&s);
        assert_eq!(escape_json(&s), want, "escape_json({s:?})");
        let mut out = String::from("prefix");
        escape_into(&mut out, &s);
        assert_eq!(out, format!("prefix{want}"), "escape_into({s:?})");
    }
}

#[test]
fn json_object_escapes_keys_and_values_like_the_reference() {
    for s in inputs() {
        let line = JsonObject::new().str(&s, &s).str("n", "v").finish();
        let e = reference_escape(&s);
        assert_eq!(line, format!("{{\"{e}\":\"{e}\",\"n\":\"v\"}}"), "{s:?}");
        let line = JsonObject::new().display("d", &s).finish();
        assert_eq!(line, format!("{{\"d\":\"{e}\"}}"), "display {s:?}");
    }
}

#[test]
fn empty_object_is_braces() {
    assert_eq!(JsonObject::new().finish(), "{}");
    assert_eq!(JsonObject::default().finish(), "{}");
}

fn flow(client_ip: IpAddr, server_ip: IpAddr) -> FlowRecord {
    let packet = |flags, seq, ip_id, ttl| PacketRecord {
        ts_sec: 0,
        flags,
        seq,
        ack: 0,
        ip_id: Some(ip_id),
        ttl,
        window: 0,
        payload_len: 0,
        payload: Bytes::new(),
        has_tcp_options: false,
    };
    FlowRecord {
        client_ip,
        server_ip,
        src_port: 40000,
        dst_port: 443,
        packets: vec![
            packet(TcpFlags::SYN, 1, 5, 52),
            packet(TcpFlags::RST, 2, 40_000, 101),
        ],
        observation_end_sec: 40,
        truncated: false,
    }
}

fn analysis(flow: &FlowRecord, domain: &str) -> FlowAnalysis {
    FlowAnalysis {
        classification: Classification::Tampered(Signature::SynRst),
        stage: Some(Stage::PostSyn),
        rst_count: 1,
        rst_ack_count: 0,
        trigger: TriggerInfo {
            domain: Some(domain.to_owned()),
            protocol: AppProtocol::Tls,
        },
        evidence: FlowEvidence::of(flow),
    }
}

#[test]
fn flow_to_jsonl_escapes_trigger_domains_like_the_reference() {
    let flows = [
        flow(
            IpAddr::V4(Ipv4Addr::new(203, 0, 113, 4)),
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        ),
        flow(
            IpAddr::V6(Ipv6Addr::new(
                0x2001, 0xdb8, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff,
            )),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
        ),
    ];
    for flow in &flows {
        // Everything but the domain is checked against a line rendered
        // with a plain placeholder domain.
        let plain = flow_to_jsonl(flow, &analysis(flow, "PLACEHOLDER"));
        assert!(plain.starts_with(&format!(
            "{{\"client_ip\":\"{}\",\"server_ip\":\"{}\",",
            flow.client_ip, flow.server_ip
        )));
        assert!(plain.ends_with("\"max_rst_ipid_delta\":39995,\"max_rst_ttl_delta\":49}"));
        for domain in inputs() {
            let line = flow_to_jsonl(flow, &analysis(flow, &domain));
            let want = plain.replace("PLACEHOLDER", &reference_escape(&domain));
            assert_eq!(line, want, "trigger_domain {domain:?}");
            assert!(!line.contains('\n') && !line.contains('\r'));
        }
    }
}
