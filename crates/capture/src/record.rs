//! Flow records: the collector's output and the classifier's only input.
//!
//! A [`FlowRecord`] mirrors what the paper's pipeline stores per sampled
//! connection: up to ten **inbound** packets with full headers and
//! payloads, timestamped at one-second granularity, possibly logged out of
//! order. Nothing else about the connection is available downstream.

use bytes::Bytes;
use std::net::IpAddr;
use tamper_wire::{Packet, TcpFlags};

/// One logged inbound packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Arrival timestamp quantized to whole seconds (the paper's logging
    /// granularity).
    pub ts_sec: u64,
    /// TCP flag byte.
    pub flags: TcpFlags,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// IPv4 identification, `None` on IPv6.
    pub ip_id: Option<u16>,
    /// TTL / hop limit as received.
    pub ttl: u8,
    /// Receive window.
    pub window: u16,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Payload bytes (the paper logs full payloads; triggers are extracted
    /// from them).
    pub payload: Bytes,
    /// True if the TCP header carried any options (scanner heuristic).
    pub has_tcp_options: bool,
}

impl PacketRecord {
    /// Build a record from a received packet and its quantized timestamp.
    pub fn from_packet(ts_sec: u64, pkt: &Packet) -> PacketRecord {
        PacketRecord {
            ts_sec,
            flags: pkt.tcp.flags,
            seq: pkt.tcp.seq,
            ack: pkt.tcp.ack,
            ip_id: pkt.ip.ip_id(),
            ttl: pkt.ip.ttl(),
            window: pkt.tcp.window,
            payload_len: pkt.payload.len() as u32,
            payload: pkt.payload.clone(),
            has_tcp_options: !pkt.tcp.options.is_empty(),
        }
    }

    /// True for data-bearing packets.
    pub fn has_payload(&self) -> bool {
        self.payload_len > 0
    }
}

/// One sampled connection as the collector recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Client (source) address.
    pub client_ip: IpAddr,
    /// Server (destination) address.
    pub server_ip: IpAddr,
    /// Client source port.
    pub src_port: u16,
    /// Server port: 80 (HTTP) or 443 (HTTPS) in this study.
    pub dst_port: u16,
    /// Up to ten inbound packets, in log order (not necessarily arrival
    /// order).
    pub packets: Vec<PacketRecord>,
    /// When the collector closed the flow (seconds); tail inactivity is
    /// judged against this.
    pub observation_end_sec: u64,
    /// True if more than the retained packets arrived (truncation marker).
    pub truncated: bool,
}

impl FlowRecord {
    /// The flow's 4-tuple.
    pub fn tuple(&self) -> FlowTuple {
        FlowTuple {
            client_ip: self.client_ip,
            server_ip: self.server_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
        }
    }

    /// True for IPv4 flows.
    pub fn is_ipv4(&self) -> bool {
        self.client_ip.is_ipv4()
    }

    /// Seconds from the first logged packet to the observation end.
    pub fn tail_gap_after_last_packet(&self) -> u64 {
        self.packets
            .iter()
            .map(|p| p.ts_sec)
            .max()
            .map(|last| self.observation_end_sec.saturating_sub(last))
            .unwrap_or(0)
    }
}

/// Why the streaming flow table closed a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionCause {
    /// More than the configured flow timeout of capture time passed since
    /// the flow's last packet.
    Timeout,
    /// The table hit its live-flow cap and shed its least-recently-active
    /// flow to stay within the memory bound.
    CapPressure,
    /// The capture ended while the flow was still inside its timeout
    /// window.
    EndOfCapture,
}

/// An interned flow 4-tuple: stored once per flow in a batch instead of
/// once per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTuple {
    /// Client (source) address.
    pub client_ip: IpAddr,
    /// Server (destination) address.
    pub server_ip: IpAddr,
    /// Client source port.
    pub src_port: u16,
    /// Server port.
    pub dst_port: u16,
}

/// One finished flow inside a [`FlowBatch`]: an index range into the
/// packed packet columns plus the per-flow metadata a [`FlowRecord`]
/// would carry.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpan {
    /// Index into the batch's interned tuples.
    pub tuple: u32,
    /// First packet row of this flow (inclusive).
    pub pkt_start: u32,
    /// One past the last packet row of this flow.
    pub pkt_end: u32,
    /// Reader-assigned index of the record that opened the flow.
    pub first_index: u64,
    /// When the collector closed the flow (seconds).
    pub observation_end_sec: u64,
    /// True if more than the retained packets arrived.
    pub truncated: bool,
    /// Why the flow was closed.
    pub cause: EvictionCause,
}

/// Sentinel in the batch `ip_id` column for packets without an IPv4
/// identification field (IPv6).
pub const NO_IP_ID: u32 = u32::MAX;

/// One packet staged in a live-flow slot, row form. The flow table
/// buffers rows per live flow (one push per packet) and transposes them
/// into [`FlowBatch`] columns in bulk when the flow closes — see
/// [`FlowBatch::extend_rows`]. `payload_off`/`payload_len` index the
/// staging slot's own payload buffer; `ip_id` uses the [`NO_IP_ID`]
/// sentinel.
#[derive(Clone, Copy, Debug, Default)]
#[allow(missing_docs)] // field meanings match the FlowBatch columns documented above
pub struct PacketRow {
    pub ts_sec: u64,
    pub seq: u32,
    pub ack: u32,
    pub ip_id: u32,
    pub payload_off: u32,
    pub payload_len: u32,
    pub window: u16,
    pub flags: TcpFlags,
    pub ttl: u8,
    pub has_tcp_options: bool,
}

/// Arena/SoA storage for a batch of finished flows.
///
/// Packet fields live in packed parallel columns, payload bytes in one
/// shared arena, and each flow is a [`FlowSpan`] index range — no
/// per-flow `Vec<PacketRecord>`, no per-packet `Bytes`. A shard fills a
/// batch as its flow table evicts, hands it downstream whole, and the
/// classifier walks it through [`FlowCols`] column slices. `clear()`
/// retains every buffer's capacity, so a recycled batch ingests and
/// classifies without touching the heap.
#[derive(Debug, Default)]
pub struct FlowBatch {
    ts_sec: Vec<u64>,
    flags: Vec<TcpFlags>,
    seq: Vec<u32>,
    ack: Vec<u32>,
    ip_id: Vec<u32>,
    ttl: Vec<u8>,
    window: Vec<u16>,
    payload_off: Vec<u32>,
    payload_len: Vec<u32>,
    has_tcp_options: Vec<bool>,
    arena: Vec<u8>,
    tuples: Vec<FlowTuple>,
    spans: Vec<FlowSpan>,
}

impl FlowBatch {
    /// An empty batch.
    pub fn new() -> FlowBatch {
        FlowBatch::default()
    }

    /// Number of finished flows in the batch.
    pub fn flow_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of packet rows across all flows.
    pub fn packet_count(&self) -> usize {
        self.ts_sec.len()
    }

    /// Payload arena occupancy in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// True if the batch holds no flows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drop all rows but keep every buffer's capacity.
    pub fn clear(&mut self) {
        self.ts_sec.clear();
        self.flags.clear();
        self.seq.clear();
        self.ack.clear();
        self.ip_id.clear();
        self.ttl.clear();
        self.window.clear();
        self.payload_off.clear();
        self.payload_len.clear();
        self.has_tcp_options.clear();
        self.arena.clear();
        self.tuples.clear();
        self.spans.clear();
    }

    /// Append one packet row. Rows between the previous flow's end and the
    /// next [`push_flow`](Self::push_flow) belong to the flow being built.
    #[allow(clippy::too_many_arguments)]
    pub fn push_packet(
        &mut self,
        ts_sec: u64,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        ip_id: Option<u16>,
        ttl: u8,
        window: u16,
        payload: &[u8],
        has_tcp_options: bool,
    ) {
        self.ts_sec.push(ts_sec);
        self.flags.push(flags);
        self.seq.push(seq);
        self.ack.push(ack);
        self.ip_id.push(ip_id.map_or(NO_IP_ID, u32::from));
        self.ttl.push(ttl);
        self.window.push(window);
        self.payload_off.push(self.arena.len() as u32);
        self.payload_len.push(payload.len() as u32);
        self.has_tcp_options.push(has_tcp_options);
        self.arena.extend_from_slice(payload);
    }

    /// Append a staged flow's packet rows in one pass: one bulk extend
    /// per column instead of ten capacity checks per packet. `payload`
    /// is the staging arena the rows' `payload_off` values index into;
    /// offsets are rebased onto this batch's arena.
    pub fn extend_rows(&mut self, rows: &[PacketRow], payload: &[u8]) {
        let base = self.arena.len() as u32;
        self.ts_sec.extend(rows.iter().map(|r| r.ts_sec));
        self.flags.extend(rows.iter().map(|r| r.flags));
        self.seq.extend(rows.iter().map(|r| r.seq));
        self.ack.extend(rows.iter().map(|r| r.ack));
        self.ip_id.extend(rows.iter().map(|r| r.ip_id));
        self.ttl.extend(rows.iter().map(|r| r.ttl));
        self.window.extend(rows.iter().map(|r| r.window));
        self.payload_off
            .extend(rows.iter().map(|r| base + r.payload_off));
        self.payload_len.extend(rows.iter().map(|r| r.payload_len));
        self.has_tcp_options
            .extend(rows.iter().map(|r| r.has_tcp_options));
        self.arena.extend_from_slice(payload);
    }

    /// Seal the packet rows from `pkt_start` to the current end as one
    /// finished flow.
    pub fn push_flow(
        &mut self,
        tuple: FlowTuple,
        pkt_start: u32,
        first_index: u64,
        observation_end_sec: u64,
        truncated: bool,
        cause: EvictionCause,
    ) {
        let tuple_idx = self.tuples.len() as u32;
        self.tuples.push(tuple);
        self.spans.push(FlowSpan {
            tuple: tuple_idx,
            pkt_start,
            pkt_end: self.ts_sec.len() as u32,
            first_index,
            observation_end_sec,
            truncated,
            cause,
        });
    }

    /// The finished flows, in eviction order.
    pub fn spans(&self) -> &[FlowSpan] {
        &self.spans
    }

    /// The 4-tuple of a span.
    pub fn tuple(&self, span: &FlowSpan) -> &FlowTuple {
        &self.tuples[span.tuple as usize]
    }

    /// Column slices for flow `i` — the classifier's view of one flow.
    pub fn flow_cols(&self, i: usize) -> FlowCols<'_> {
        let span = &self.spans[i];
        let r = span.pkt_start as usize..span.pkt_end as usize;
        FlowCols {
            ts_sec: &self.ts_sec[r.clone()],
            flags: &self.flags[r.clone()],
            seq: &self.seq[r.clone()],
            ack: &self.ack[r.clone()],
            ip_id: &self.ip_id[r.clone()],
            ttl: &self.ttl[r.clone()],
            window: &self.window[r.clone()],
            payload_off: &self.payload_off[r.clone()],
            payload_len: &self.payload_len[r.clone()],
            has_tcp_options: &self.has_tcp_options[r],
            arena: &self.arena,
        }
    }

    /// Materialize flow `i` as an owning [`FlowRecord`] — for rendering
    /// and evidence labeling, off the classification hot path.
    pub fn materialize(&self, i: usize) -> FlowRecord {
        let span = &self.spans[i];
        let tuple = self.tuple(span);
        let cols = self.flow_cols(i);
        let packets = (0..cols.len())
            .map(|p| PacketRecord {
                ts_sec: cols.ts_sec[p],
                flags: cols.flags[p],
                seq: cols.seq[p],
                ack: cols.ack[p],
                ip_id: cols.ip_id_of(p),
                ttl: cols.ttl[p],
                window: cols.window[p],
                payload_len: cols.payload_len[p],
                payload: Bytes::copy_from_slice(cols.payload_of(p)),
                has_tcp_options: cols.has_tcp_options[p],
            })
            .collect();
        FlowRecord {
            client_ip: tuple.client_ip,
            server_ip: tuple.server_ip,
            src_port: tuple.src_port,
            dst_port: tuple.dst_port,
            packets,
            observation_end_sec: span.observation_end_sec,
            truncated: span.truncated,
        }
    }
}

/// Borrowed column slices of one flow inside a [`FlowBatch`] — all
/// slices share the flow's packet range; `arena` is the whole batch
/// payload arena (offsets in `payload_off` are absolute).
#[derive(Debug, Clone, Copy)]
pub struct FlowCols<'a> {
    /// Arrival timestamps (seconds).
    pub ts_sec: &'a [u64],
    /// TCP flag bytes.
    pub flags: &'a [TcpFlags],
    /// Sequence numbers.
    pub seq: &'a [u32],
    /// Acknowledgement numbers.
    pub ack: &'a [u32],
    /// IPv4 identification, [`NO_IP_ID`] on IPv6.
    pub ip_id: &'a [u32],
    /// TTLs / hop limits.
    pub ttl: &'a [u8],
    /// Receive windows.
    pub window: &'a [u16],
    /// Absolute payload offsets into `arena`.
    pub payload_off: &'a [u32],
    /// Payload lengths.
    pub payload_len: &'a [u32],
    /// TCP-options-present bits.
    pub has_tcp_options: &'a [bool],
    /// The batch payload arena.
    pub arena: &'a [u8],
}

impl FlowCols<'_> {
    /// Number of packets in the flow.
    pub fn len(&self) -> usize {
        self.ts_sec.len()
    }

    /// True if the flow logged no packets.
    pub fn is_empty(&self) -> bool {
        self.ts_sec.is_empty()
    }

    /// Payload bytes of packet `i`.
    pub fn payload_of(&self, i: usize) -> &[u8] {
        let off = self.payload_off[i] as usize;
        &self.arena[off..off + self.payload_len[i] as usize]
    }

    /// IPv4 identification of packet `i`, decoded from the sentinel column.
    pub fn ip_id_of(&self, i: usize) -> Option<u16> {
        let raw = self.ip_id[i];
        if raw == NO_IP_ID {
            None
        } else {
            Some(raw as u16)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tamper_wire::PacketBuilder;

    fn packet() -> Packet {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1234,
            443,
        )
        .flags(TcpFlags::PSH_ACK)
        .seq(7)
        .ack(9)
        .ip_id(77)
        .ttl(52)
        .payload(Bytes::from_static(b"data"))
        .build()
    }

    #[test]
    fn record_captures_header_fields() {
        let r = PacketRecord::from_packet(1673481600, &packet());
        assert_eq!(r.ts_sec, 1673481600);
        assert_eq!(r.flags, TcpFlags::PSH_ACK);
        assert_eq!(r.seq, 7);
        assert_eq!(r.ack, 9);
        assert_eq!(r.ip_id, Some(77));
        assert_eq!(r.ttl, 52);
        assert_eq!(r.payload_len, 4);
        assert!(r.has_payload());
        assert!(!r.has_tcp_options);
    }

    #[test]
    fn tail_gap_measured_from_last_packet() {
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 1,
            dst_port: 443,
            packets: vec![
                PacketRecord::from_packet(100, &packet()),
                PacketRecord::from_packet(103, &packet()),
            ],
            observation_end_sec: 130,
            truncated: false,
        };
        assert_eq!(flow.tail_gap_after_last_packet(), 27);
        assert!(flow.is_ipv4());
    }

    #[test]
    fn batch_round_trips_through_materialize() {
        let mut batch = FlowBatch::new();
        let t0 = FlowTuple {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 4000,
            dst_port: 443,
        };
        batch.push_packet(100, TcpFlags::SYN, 1, 0, Some(7), 52, 65535, b"", true);
        batch.push_packet(
            101,
            TcpFlags::PSH_ACK,
            2,
            9,
            Some(8),
            52,
            1000,
            b"abc",
            false,
        );
        batch.push_flow(t0, 0, 5, 131, false, EvictionCause::Timeout);
        let t1 = FlowTuple {
            client_ip: "2001:db8::1".parse().unwrap(),
            server_ip: "2001:db8::2".parse().unwrap(),
            src_port: 4001,
            dst_port: 80,
        };
        batch.push_packet(200, TcpFlags::RST, 3, 0, None, 200, 0, b"", false);
        batch.push_flow(t1, 2, 9, 230, true, EvictionCause::EndOfCapture);

        assert_eq!(batch.flow_count(), 2);
        assert_eq!(batch.packet_count(), 3);
        assert_eq!(batch.arena_bytes(), 3);

        let f0 = batch.materialize(0);
        assert_eq!(f0.client_ip, t0.client_ip);
        assert_eq!(f0.packets.len(), 2);
        assert_eq!(f0.packets[0].flags, TcpFlags::SYN);
        assert_eq!(f0.packets[1].payload, Bytes::from_static(b"abc"));
        assert_eq!(f0.packets[1].ip_id, Some(8));
        assert_eq!(f0.observation_end_sec, 131);
        assert!(!f0.truncated);

        let f1 = batch.materialize(1);
        assert!(!f1.is_ipv4());
        assert_eq!(f1.packets[0].ip_id, None);
        assert!(f1.truncated);
        assert_eq!(batch.spans()[1].cause, EvictionCause::EndOfCapture);

        let cols = batch.flow_cols(0);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.payload_of(1), b"abc");
        assert_eq!(cols.ip_id_of(0), Some(7));
        assert_eq!(batch.flow_cols(1).ip_id_of(0), None);

        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.packet_count(), 0);
        assert_eq!(batch.arena_bytes(), 0);
    }

    #[test]
    fn empty_flow_has_zero_tail_gap() {
        let flow = FlowRecord {
            client_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            server_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            src_port: 1,
            dst_port: 443,
            packets: vec![],
            observation_end_sec: 130,
            truncated: false,
        };
        assert_eq!(flow.tail_gap_after_last_packet(), 0);
    }
}
