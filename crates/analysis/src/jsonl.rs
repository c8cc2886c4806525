//! Per-flow output lines — hand-rolled JSON (the workspace deliberately
//! avoids a JSON dependency; the structures are small and flat) and the
//! plain verdict line of `tamperscope classify`.
//!
//! One line per flow, stable field order, suitable for `jq`, BigQuery
//! loads, or the paper's own aggregation pipelines. Every line is written
//! straight into one pre-sized `String`: keys, escaped strings and
//! numbers are appended in place, so rendering a flow costs the line's
//! own allocation and nothing per field.

use std::fmt::{self, Display, Write as _};
use std::net::IpAddr;

use crate::fmt::pct_f;
use tamper_capture::FlowRecord;
use tamper_core::{
    max_rst_ipid_delta, max_rst_ttl_delta, AppProtocol, Classification, FlowAnalysis,
};

/// True for the bytes RFC 8259 requires escaped inside a string. Every
/// byte of a multi-byte UTF-8 sequence is ≥ 0x80, so a byte scan finds
/// exactly the chars the per-char escaper rewrites.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Append `s` to `out`, escaped per RFC 8259. An input with nothing to
/// escape is copied with one `push_str`.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        return;
    }
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape a string per RFC 8259.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A `fmt::Write` sink that escapes everything written through it, so a
/// `Display` value lands in a JSON string without an intermediate
/// `String`.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Incremental single-line JSON object writer over one buffer.
///
/// ```
/// use tamper_analysis::JsonObject;
/// let line = JsonObject::new().str("k", "v\"x").uint("n", 3).finish();
/// assert_eq!(line, "{\"k\":\"v\\\"x\",\"n\":3}");
/// assert_eq!(JsonObject::new().finish(), "{}");
/// ```
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject::with_capacity(64)
    }

    /// Start an empty object whose buffer holds `capacity` bytes before
    /// it has to grow — size it to the finished line.
    pub(crate) fn with_capacity(capacity: usize) -> JsonObject {
        let mut buf = String::with_capacity(capacity);
        buf.push('{');
        JsonObject { buf }
    }

    /// Write the separator and `"key":`.
    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Add a string field holding `value`'s `Display` form, escaped as it
    /// is written.
    pub fn display<T: Display + ?Sized>(mut self, key: &str, value: &T) -> JsonObject {
        self.key(key);
        self.buf.push('"');
        let _ = write!(Escaped(&mut self.buf), "{value}");
        self.buf.push('"');
        self
    }

    /// Add an optional string field (`null` when absent).
    pub fn opt_str(self, key: &str, value: Option<&str>) -> JsonObject {
        match value {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// Add an integer field.
    pub fn int(mut self, key: &str, value: i64) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add an unsigned field.
    pub fn uint(mut self, key: &str, value: u64) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a float field (NaN/∞ become `null`; negative zero is
    /// normalized).
    pub fn float(mut self, key: &str, value: f64) -> JsonObject {
        self.key(key);
        let value = if value == 0.0 { 0.0 } else { value };
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Add a pre-serialized JSON value verbatim (nested objects/arrays).
    pub fn raw(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Add an explicit null.
    pub fn null(mut self, key: &str) -> JsonObject {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Finish: close the buffer into the `{...}` line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// The widest `Display` form of an address of `ip`'s family.
fn ip_width(ip: &IpAddr) -> usize {
    match ip {
        IpAddr::V4(_) => 15,
        IpAddr::V6(_) => 39,
    }
}

/// Bytes a JSON verdict line needs besides its two addresses and its
/// trigger domain: the keys and punctuation (225 bytes) plus the widest
/// signature and stage labels and counts up to five digits. Sized so a
/// line is written without regrowing its buffer.
const JSONL_RESERVE: usize = 336;

/// Serialize one classified flow as a JSON line.
pub fn flow_to_jsonl(flow: &FlowRecord, analysis: &FlowAnalysis) -> String {
    let (verdict, signature) = match analysis.classification {
        Classification::Tampered(sig) => ("tampered", Some(sig.label())),
        Classification::PossiblyTamperedOther => ("possibly_tampered", None),
        Classification::NotTampered => ("not_tampered", None),
    };
    let protocol = match analysis.trigger.protocol {
        AppProtocol::Tls => "tls",
        AppProtocol::Http => "http",
        AppProtocol::Other => "other",
    };
    let domain = analysis.trigger.domain.as_deref();
    let capacity = JSONL_RESERVE
        + ip_width(&flow.client_ip)
        + ip_width(&flow.server_ip)
        + domain.map_or(0, str::len);
    let mut obj = JsonObject::with_capacity(capacity)
        .display("client_ip", &flow.client_ip)
        .display("server_ip", &flow.server_ip)
        .uint("src_port", u64::from(flow.src_port))
        .uint("dst_port", u64::from(flow.dst_port))
        .uint("packets", flow.packets.len() as u64)
        .bool("truncated", flow.truncated)
        .str("verdict", verdict)
        .opt_str("signature", signature)
        .opt_str("stage", analysis.stage.map(|s| s.label()))
        .str("protocol", protocol)
        .opt_str("trigger_domain", domain)
        .uint("rst_count", analysis.rst_count as u64)
        .uint("rst_ack_count", analysis.rst_ack_count as u64);
    obj = match max_rst_ipid_delta(flow) {
        Some(d) => obj.uint("max_rst_ipid_delta", u64::from(d)),
        None => obj.null("max_rst_ipid_delta"),
    };
    obj = match max_rst_ttl_delta(flow) {
        Some(d) => obj.int("max_rst_ttl_delta", i64::from(d)),
        None => obj.null("max_rst_ttl_delta"),
    };
    obj.finish()
}

/// Width, in chars, the verdict column of [`flow_to_line`] is padded to.
const VERDICT_WIDTH: usize = 40;

/// Bytes a verdict line needs besides its client address and domain:
/// the punctuation, two ports, a packet count and the padded verdict
/// (whose signature glyphs take three bytes each).
const LINE_RESERVE: usize = 88;

/// Serialize one classified flow as the default `classify` verdict line:
/// `client:port -> :port  [n pkts]  <verdict, padded to 40 chars> <domain>`.
pub fn flow_to_line(flow: &FlowRecord, analysis: &FlowAnalysis) -> String {
    let domain = analysis.trigger.domain.as_deref().unwrap_or("-");
    let mut line = String::with_capacity(LINE_RESERVE + ip_width(&flow.client_ip) + domain.len());
    let _ = write!(
        line,
        "{}:{} -> :{}  [{} pkts]  ",
        flow.client_ip,
        flow.src_port,
        flow.dst_port,
        flow.packets.len()
    );
    let verdict_start = line.len();
    match analysis.signature() {
        Some(sig) => {
            line.push_str("TAMPERED  ");
            line.push_str(sig.label());
        }
        None if analysis.is_possibly_tampered() => line.push_str("possibly tampered"),
        None => line.push_str("clean"),
    }
    // Pad by chars, as `{:<40}` does: the signature glyphs are one char
    // but three bytes.
    let width = line[verdict_start..].chars().count();
    for _ in width..VERDICT_WIDTH {
        line.push(' ');
    }
    line.push(' ');
    line.push_str(domain);
    line
}

/// A compact JSON summary of a collector run (headline statistics).
/// Takes the aggregate layer directly; a `&Collector` coerces via deref.
pub fn summary_to_json(col: &crate::PartialAggregate) -> String {
    JsonObject::new()
        .uint("total_flows", col.total)
        .uint("possibly_tampered", col.possibly_tampered)
        .str(
            "possibly_tampered_pct",
            &pct_f(col.possibly_tampered as f64 / col.total.max(1) as f64),
        )
        .float("recall", col.truth.recall())
        .float("precision", col.truth.precision())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    use tamper_capture::PacketRecord;
    use tamper_core::{classify, ClassifierConfig, Signature, Stage, TriggerInfo};
    use tamper_wire::TcpFlags;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb"), "a\\nb");
        assert_eq!(escape_json("tab\there"), "tab\\there");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("unicode ∅ ok"), "unicode ∅ ok");
    }

    #[test]
    fn object_builder_layout() {
        let line = JsonObject::new()
            .str("a", "x")
            .int("b", -3)
            .uint("c", 7)
            .bool("d", true)
            .null("e")
            .float("f", 0.5)
            .float("g", f64::NAN)
            .finish();
        assert_eq!(
            line,
            "{\"a\":\"x\",\"b\":-3,\"c\":7,\"d\":true,\"e\":null,\"f\":0.5,\"g\":null}"
        );
    }

    #[test]
    fn flow_line_round_trips_key_fields() {
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(203, 0, 113, 4)),
            server_ip: IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
            src_port: 40000,
            dst_port: 443,
            packets: vec![
                PacketRecord {
                    ts_sec: 0,
                    flags: TcpFlags::SYN,
                    seq: 1,
                    ack: 0,
                    ip_id: Some(5),
                    ttl: 52,
                    window: 65535,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: true,
                },
                PacketRecord {
                    ts_sec: 0,
                    flags: TcpFlags::RST,
                    seq: 2,
                    ack: 0,
                    ip_id: Some(40_000),
                    ttl: 101,
                    window: 0,
                    payload_len: 0,
                    payload: Bytes::new(),
                    has_tcp_options: false,
                },
            ],
            observation_end_sec: 40,
            truncated: false,
        };
        let a = classify(&flow, &ClassifierConfig::default());
        let line = flow_to_jsonl(&flow, &a);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"verdict\":\"tampered\""));
        assert!(line.contains("⟨SYN → RST⟩"));
        assert!(line.contains("\"max_rst_ipid_delta\":39995"));
        assert!(line.contains("\"max_rst_ttl_delta\":49"));
        assert!(!line.contains('\n'));
    }

    /// A flow with `n` packets alternating SYN and RST from the widest
    /// IPv6 addresses.
    fn wide_flow(n: usize) -> FlowRecord {
        let ip = IpAddr::V6(Ipv6Addr::new(
            0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff,
        ));
        let packets = (0..n)
            .map(|i| PacketRecord {
                ts_sec: 0,
                flags: if i % 2 == 0 {
                    TcpFlags::SYN
                } else {
                    TcpFlags::RST
                },
                seq: i as u32,
                ack: 0,
                ip_id: Some(if i % 2 == 0 { 0 } else { 65_535 }),
                ttl: if i % 2 == 0 { 255 } else { 0 },
                window: 0,
                payload_len: 0,
                payload: Bytes::new(),
                has_tcp_options: false,
            })
            .collect();
        FlowRecord {
            client_ip: ip,
            server_ip: ip,
            src_port: 65_535,
            dst_port: 65_535,
            packets,
            observation_end_sec: 40,
            truncated: false,
        }
    }

    #[test]
    fn widest_domain_free_lines_fit_their_reservation() {
        let flow = wide_flow(10_000);
        let mut classifications = vec![
            Classification::PossiblyTamperedOther,
            Classification::NotTampered,
        ];
        classifications.extend(Signature::ALL.map(Classification::Tampered));
        for classification in classifications {
            let a = FlowAnalysis {
                classification,
                stage: Some(Stage::PostData), // the longest stage label
                rst_count: 99_999,
                rst_ack_count: 99_999,
                trigger: TriggerInfo {
                    domain: None,
                    protocol: AppProtocol::Other,
                },
            };
            let line = flow_to_jsonl(&flow, &a);
            assert!(
                line.len() <= JSONL_RESERVE + 2 * 39,
                "{} bytes: {line}",
                line.len()
            );
            let line = flow_to_line(&flow, &a);
            assert!(
                line.len() <= LINE_RESERVE + 39 + 1,
                "{} bytes: {line}",
                line.len()
            );
        }
    }

    #[test]
    fn verdict_line_pads_the_verdict_by_chars() {
        let flow = wide_flow(2);
        for sig in Signature::ALL {
            let a = FlowAnalysis {
                classification: Classification::Tampered(sig),
                stage: Some(sig.stage()),
                rst_count: 1,
                rst_ack_count: 0,
                trigger: TriggerInfo {
                    domain: Some("example.com".to_owned()),
                    protocol: AppProtocol::Tls,
                },
            };
            let verdict = format!("TAMPERED  {sig}");
            let want = format!(
                "{}:{} -> :{}  [{} pkts]  {:<40} {}",
                flow.client_ip, flow.src_port, flow.dst_port, 2, verdict, "example.com"
            );
            assert_eq!(flow_to_line(&flow, &a), want);
        }
    }
}
