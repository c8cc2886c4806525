//! Offline ingestion: build [`FlowRecord`]s from a pcap capture.
//!
//! This is the path a real deployment would use: point the engine at a
//! server-side capture (raw-IP link type), and get classifier-ready flow
//! records with the paper's collection constraints applied (inbound-only
//! by destination filter, 10 packets, 1-second timestamps). The
//! [`ColumnarFlowTable`] here is the flow assembler every engine shard
//! owns; [`flows_from_pcap`] is the one-call convenience over the same
//! engine path `tamperscope classify` runs.

use crate::engine::{run_source, EngineConfig};
use crate::pcap::PcapError;
use crate::record::{FlowBatch, FlowRecord, FlowTuple, PacketRow, NO_IP_ID};
use crate::source::PcapMemSource;
use bytes::Bytes;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Read;
use std::net::IpAddr;
use tamper_wire::PacketView;

pub use crate::record::EvictionCause;

/// A connection key: client/server addresses and ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Client address.
    pub client_ip: IpAddr,
    /// Server address.
    pub server_ip: IpAddr,
    /// Client port.
    pub src_port: u16,
    /// Server port.
    pub dst_port: u16,
}

impl std::hash::Hash for FlowKey {
    /// Packed writes instead of the derived per-field walk: the derived
    /// impl issues ~8 small `Hasher::write` calls per lookup (enum tags,
    /// octet arrays, ports), which dominated the ingest profile. The
    /// common all-IPv4 key packs into two words. V4 keys and V6 keys
    /// hash into disjoint streams via the trailing tag byte; a v4 and
    /// its v6-mapped form may collide, which only costs an `Eq` probe.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let ports = (u32::from(self.src_port) << 16) | u32::from(self.dst_port);
        match (self.client_ip, self.server_ip) {
            (IpAddr::V4(a), IpAddr::V4(b)) => {
                state.write_u64((u64::from(u32::from(a)) << 32) | u64::from(u32::from(b)));
                state.write_u32(ports);
                state.write_u8(4);
            }
            (a, b) => {
                let map = |ip: IpAddr| match ip {
                    IpAddr::V4(v) => v.to_ipv6_mapped().octets(),
                    IpAddr::V6(v) => v.octets(),
                };
                state.write(&map(a));
                state.write(&map(b));
                state.write_u32(ports);
                state.write_u8(6);
            }
        }
    }
}

/// Options for offline assembly.
#[derive(Debug, Clone, Copy)]
pub struct OfflineConfig {
    /// Keep only packets destined to these server ports (80/443 by
    /// default — the study's scope).
    pub server_ports: [u16; 2],
    /// Per-flow packet cap (paper: 10).
    pub max_packets: usize,
    /// Seconds of silence after the last packet before a flow is closed.
    pub flow_timeout_secs: u64,
}

impl Default for OfflineConfig {
    fn default() -> OfflineConfig {
        OfflineConfig {
            server_ports: [80, 443],
            max_packets: 10,
            flow_timeout_secs: 30,
        }
    }
}

/// A fast, non-keyed hasher for [`FlowKey`] lookups in the columnar
/// table: one multiply-rotate fold per 8-byte chunk, finished with a
/// splitmix64 avalanche. Flow tables are per-shard and bounded by the
/// live-flow cap, and eviction order never depends on iteration order
/// (see [`ColumnarFlowTable`]), so the DoS-resistance of SipHash buys
/// nothing here — but its ~2× lookup cost was visible on the ingest
/// profile.
#[derive(Default)]
pub struct FlowKeyHasher {
    state: u64,
}

impl FlowKeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FlowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            // tamperlint: allow(index) — chunks(8) yields at most 8 bytes, so the range fits the stack buffer
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    // Word-sized writes feed the mixer directly; the default trait
    // methods would round-trip each one through `write`'s chunking
    // buffer. [`FlowKey::hash`] emits exactly these three widths.
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn finish(&self) -> u64 {
        // splitmix64 finalizer.
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One live flow's buffered packets in the columnar table. Slots are
/// pooled: a closed flow's slot (and its two buffers' capacity) is
/// recycled for the next flow birth, so a warm table absorbs without
/// allocating.
#[derive(Default)]
struct Slot {
    tuple: FlowTuple,
    first_index: u64,
    last_ts: u64,
    truncated: bool,
    /// The flow's latest wheel entry expired before the clock it was
    /// queued at (a packet stamped more than the timeout behind the
    /// capture clock). Tracked only under a live-flow cap.
    overdue: bool,
    rows: Vec<PacketRow>,
    payload: Vec<u8>,
}

impl Default for FlowTuple {
    fn default() -> FlowTuple {
        FlowTuple {
            client_ip: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            server_ip: IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            src_port: 0,
            dst_port: 0,
        }
    }
}

impl Slot {
    fn reset(&mut self, tuple: FlowTuple, first_index: u64, ts: u64) {
        self.tuple = tuple;
        self.first_index = first_index;
        self.last_ts = ts;
        self.truncated = false;
        self.overdue = false;
        self.rows.clear();
        self.payload.clear();
    }

    fn packets(&self) -> usize {
        self.rows.len()
    }
}

/// A streaming flow assembler with inactivity-timeout eviction and an
/// optional live-flow cap — the unit of state one engine shard owns.
///
/// Live flows buffer into pooled column slots and close into a
/// [`FlowBatch`] instead of one heap-allocated [`FlowRecord`] per flow.
/// Eviction decisions depend only on packet contents and the monotone
/// capture clock (`stamp`), never on wall time, hash-map iteration order
/// or shard placement, so any partition of a capture over tables keyed by
/// flow produces byte-identical closed flows.
pub struct ColumnarFlowTable {
    cfg: OfflineConfig,
    flows: HashMap<FlowKey, u32, BuildHasherDefault<FlowKeyHasher>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    max_live: usize,
    high_water: usize,
    last_sweep: u64,
    expired_scratch: Vec<(u64, u64, FlowKey)>,
    /// Lazy timer wheel over expiry seconds: bucket `(last_ts + timeout)
    /// % wheel.len()` holds `(key, last_ts)` entries pushed whenever a
    /// flow's activity clock advances. Entries are validated against the
    /// live slot on drain, so stale ones (flow closed, or active again
    /// with a newer entry elsewhere) simply drop — the evicted set and
    /// order remain the same pure function of (last activity, first-seen
    /// index) as a full scan.
    wheel: Vec<Vec<(FlowKey, u64)>>,
    /// Next expiry second the wheel has not yet drained.
    wheel_pos: u64,
    /// Live flows marked [`Slot::overdue`]. While it is 0, every live
    /// flow expires at `wheel_pos` or later, so the wheel lists flows in
    /// activity order from `wheel_pos` on — which is what lets a cap shed
    /// its victim without scanning every live flow.
    overdue: usize,
    /// The bucket the last shed sorted, by descending `(last_ts,
    /// first_index)`, so that further sheds from it pop its least entry
    /// off the end. Cleared when a new entry is queued into it.
    shed_sorted: Option<usize>,
    /// The key and slot the previous packet landed in. Packets of one
    /// flow arrive in runs, so this skips the map probe for the common
    /// case. Cleared whenever any flow closes, which keeps the invariant
    /// simple: a populated cache always mirrors a live map entry.
    last_hit: Option<(FlowKey, u32)>,
}

impl ColumnarFlowTable {
    /// Create a table; `max_live` of 0 means unbounded.
    pub fn new(cfg: OfflineConfig, max_live: usize) -> ColumnarFlowTable {
        // A span of timeout+2 seconds separates every live expiry; wider
        // timeouts alias modulo the clamp and only cost a lazy re-queue.
        let buckets = (cfg.flow_timeout_secs.saturating_add(2)).clamp(4, 4096) as usize;
        ColumnarFlowTable {
            cfg,
            flows: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            max_live,
            high_water: 0,
            last_sweep: 0,
            expired_scratch: Vec::new(),
            wheel: vec![Vec::new(); buckets],
            wheel_pos: 0,
            overdue: 0,
            shed_sorted: None,
            last_hit: None,
        }
    }

    /// Most live flows ever held at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Live flows currently held.
    pub fn live(&self) -> usize {
        self.flows.len()
    }

    /// Absorb one parsed inbound packet, closing flows into `out` columns.
    /// `index` is the reader-assigned record index, `ts` the packet's own
    /// (quantized) timestamp, and `stamp` the running maximum capture
    /// timestamp — the capture clock. Flows whose timeout elapsed before
    /// `stamp` are evicted *before* the packet is applied, so a packet
    /// arriving after its flow expired opens a fresh flow.
    pub fn absorb(
        &mut self,
        index: u64,
        ts: u64,
        stamp: u64,
        pv: &PacketView<'_>,
        stats: &mut IngestStats,
        out: &mut FlowBatch,
    ) {
        self.sweep(stamp, out);
        let key = FlowKey {
            client_ip: pv.src,
            server_ip: pv.dst,
            src_port: pv.src_port,
            dst_port: pv.dst_port,
        };
        let (slot_idx, born) = match self.last_hit {
            Some((k, idx)) if k == key => (idx, false),
            _ => match self.flows.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
                std::collections::hash_map::Entry::Vacant(e) => {
                    stats.flows += 1;
                    let tuple = FlowTuple {
                        client_ip: key.client_ip,
                        server_ip: key.server_ip,
                        src_port: key.src_port,
                        dst_port: key.dst_port,
                    };
                    let idx = match self.free.pop() {
                        Some(idx) => idx,
                        None => {
                            // tamperlint: allow(unbounded-growth) — pool slots recycle through the free list; live size is bounded by the eviction wheel
                            self.slots.push(Slot::default());
                            (self.slots.len() - 1) as u32
                        }
                    };
                    // tamperlint: allow(index) — idx came off the free list or was just pushed; both are in-bounds pool slots
                    self.slots[idx as usize].reset(tuple, index, ts);
                    e.insert(idx);
                    (idx, true)
                }
            },
        };
        self.last_hit = Some((key, slot_idx));
        // Queue a wheel entry whenever the flow's activity clock advances;
        // the entry carries the last_ts it was queued for, so older
        // entries for the same flow invalidate lazily on drain.
        // tamperlint: allow(index) — the flow map only holds indices of live pool slots
        let prev_last = self.slots[slot_idx as usize].last_ts;
        let new_last = prev_last.max(ts);
        if born || ts > prev_last {
            let expiry = new_last.saturating_add(self.cfg.flow_timeout_secs);
            let b = (expiry % self.wheel.len() as u64) as usize;
            // tamperlint: allow(index) — bucket index is reduced modulo the wheel length
            self.wheel[b].push((key, new_last));
            if self.max_live > 0 {
                self.mark_overdue(slot_idx, expiry < self.wheel_pos);
                if self.shed_sorted == Some(b) {
                    self.shed_sorted = None;
                }
            }
        }
        // tamperlint: allow(index) — the flow map only holds indices of live pool slots
        let slot = &mut self.slots[slot_idx as usize];
        slot.last_ts = new_last;
        if slot.packets() >= self.cfg.max_packets {
            slot.truncated = true;
            stats.truncated_packets += 1;
        } else {
            slot.rows.push(PacketRow {
                ts_sec: ts,
                seq: pv.seq,
                ack: pv.ack,
                ip_id: pv.ip_id.map_or(NO_IP_ID, u32::from),
                payload_off: slot.payload.len() as u32,
                payload_len: pv.payload.len() as u32,
                window: pv.window,
                flags: pv.flags,
                ttl: pv.ttl,
                has_tcp_options: pv.has_tcp_options,
            });
            slot.payload.extend_from_slice(pv.payload);
            stats.packets += 1;
        }
        if self.max_live > 0 && self.flows.len() > self.max_live {
            self.shed_lru(out);
        }
        // Taken after shedding: the retained occupancy is what the memory
        // bound promises (insertion holds one transient extra entry).
        self.high_water = self.high_water.max(self.flows.len());
    }

    /// Evict every flow whose timeout elapsed before `stamp`, in
    /// (last activity, first-seen index) order — a pure function of the
    /// capture, never of hash-map iteration order, so shuffled insertion
    /// or a different hasher cannot change which flows a later cap sheds.
    /// Expired flows are found by draining the passed expiry seconds off
    /// the timer wheel instead of scanning every live flow once per
    /// capture second.
    fn sweep(&mut self, stamp: u64, out: &mut FlowBatch) {
        if stamp <= self.last_sweep {
            return;
        }
        self.last_sweep = stamp;
        let timeout = self.cfg.flow_timeout_secs;
        let wheel_len = self.wheel.len() as u64;
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        // One bucket per expiry second the clock passed, capped at a
        // single lap — a second lap would revisit the same buckets.
        let start = self.wheel_pos;
        let gap = stamp.saturating_sub(start).min(wheel_len);
        for s in start..start + gap {
            let b = (s % wheel_len) as usize;
            // tamperlint: allow(index) — bucket index is reduced modulo the wheel length
            let mut entries = std::mem::take(&mut self.wheel[b]);
            entries.retain(|&(key, entry_last)| match self.flows.get(&key) {
                Some(&slot_idx) => {
                    // tamperlint: allow(index) — the flow map only holds indices of live pool slots
                    let slot = &self.slots[slot_idx as usize];
                    if slot.last_ts != entry_last {
                        false // superseded by a newer entry
                    } else if slot.last_ts + timeout < stamp {
                        expired.push((slot.last_ts, slot.first_index, key));
                        false
                    } else {
                        true // aliased future expiry: stays queued
                    }
                }
                None => false, // flow already closed
            });
            // tamperlint: allow(index) — same in-bounds bucket the entries came from
            self.wheel[b] = entries;
        }
        self.wheel_pos = stamp;
        expired.sort_unstable_by_key(|&(last_ts, first_index, _)| (last_ts, first_index));
        if !expired.is_empty() {
            self.last_hit = None;
        }
        for &(_, _, key) in &expired {
            if let Some(slot_idx) = self.flows.remove(&key) {
                self.close_into(slot_idx, EvictionCause::Timeout, out);
            }
        }
        expired.clear();
        self.expired_scratch = expired;
    }

    /// Record whether a flow's newest wheel entry was already overdue
    /// when queued, keeping the table's count of such flows.
    fn mark_overdue(&mut self, slot_idx: u32, overdue: bool) {
        let Some(slot) = self.slots.get_mut(slot_idx as usize) else {
            return;
        };
        if slot.overdue != overdue {
            slot.overdue = overdue;
            if overdue {
                self.overdue += 1;
            } else {
                self.overdue -= 1;
            }
        }
    }

    /// Shed the least-recently-active flow (ties broken by first-seen).
    fn shed_lru(&mut self, out: &mut FlowBatch) {
        if let Some(key) = self.lru_victim() {
            self.last_hit = None;
            if let Some(slot_idx) = self.flows.remove(&key) {
                self.close_into(slot_idx, EvictionCause::CapPressure, out);
            }
        }
    }

    /// The live flow with the least `(last activity, first-seen index)`,
    /// found on the timer wheel instead of by scanning every live flow.
    ///
    /// Each live flow has one current entry, in the bucket of its expiry
    /// second. Walking buckets from `wheel_pos` visits expiry seconds in
    /// order; a flow that is not overdue expires no earlier than the
    /// second whose bucket holds it. So once the best flow seen expires at
    /// or before the bucket just visited, no later bucket can beat it,
    /// and the walk stops there. With overdue flows live (their entries
    /// sit in buckets the wheel reaches only on a later lap) the walk
    /// covers the whole lap. Entries found stale on the way are dropped,
    /// as the sweep would drop them.
    ///
    /// A cap sheds many flows of one expiry second in a row, so the
    /// bucket the walk stops in is sorted once, descending; until a new
    /// entry is queued into it, later sheds take its least live entry off
    /// the end instead of scanning it again.
    fn lru_victim(&mut self) -> Option<FlowKey> {
        let timeout = self.cfg.flow_timeout_secs;
        let wheel_len = self.wheel.len() as u64;
        let (flows, slots) = (&self.flows, &self.slots);
        // A live entry's `(last_ts, first_index)`; `None` once stale.
        let rank = |&(key, entry_last): &(FlowKey, u64)| {
            flows
                .get(&key)
                .and_then(|&i| slots.get(i as usize))
                .filter(|slot| slot.last_ts == entry_last)
                .map(|slot| (slot.last_ts, slot.first_index))
        };
        let mut best: Option<(u64, u64, FlowKey)> = None;
        for s in self.wheel_pos..self.wheel_pos.saturating_add(wheel_len) {
            let b = (s % wheel_len) as usize;
            let Some(entries) = self.wheel.get_mut(b) else {
                break;
            };
            let mut offer = |(last, first): (u64, u64), key: FlowKey| {
                if best.is_none_or(|(l, f, _)| (last, first) < (l, f)) {
                    best = Some((last, first, key));
                }
            };
            if self.shed_sorted == Some(b) {
                while let Some(entry) = entries.last() {
                    if let Some(r) = rank(entry) {
                        offer(r, entry.0);
                        break;
                    }
                    entries.pop(); // stale
                }
            } else {
                entries.retain(|entry| match rank(entry) {
                    Some(r) => {
                        offer(r, entry.0);
                        true
                    }
                    None => false, // closed, or superseded by a newer entry
                });
            }
            if self.overdue == 0
                && best.is_some_and(|(last, _, _)| last.saturating_add(timeout) <= s)
            {
                if self.shed_sorted != Some(b) {
                    entries.sort_by_cached_key(|entry| std::cmp::Reverse(rank(entry)));
                    self.shed_sorted = Some(b);
                }
                break;
            }
        }
        best.map(|(_, _, key)| key)
    }

    /// Close all remaining flows at end of capture, ordered by first-seen
    /// index. Flows whose timeout had already elapsed at `final_stamp`
    /// count as timeout evictions (their shard just saw no later packet to
    /// trigger the sweep); the rest close as end-of-capture.
    pub fn drain(&mut self, final_stamp: u64, out: &mut FlowBatch) {
        self.last_hit = None;
        let timeout = self.cfg.flow_timeout_secs;
        let mut rest: Vec<u32> = self.flows.drain().map(|(_, slot_idx)| slot_idx).collect();
        // tamperlint: allow(index) — the flow map only holds indices of live pool slots
        rest.sort_unstable_by_key(|&slot_idx| self.slots[slot_idx as usize].first_index);
        for slot_idx in rest {
            // tamperlint: allow(index) — same live pool indices, drained from the map above
            let cause = if self.slots[slot_idx as usize].last_ts + timeout < final_stamp {
                EvictionCause::Timeout
            } else {
                EvictionCause::EndOfCapture
            };
            self.close_into(slot_idx, cause, out);
        }
    }

    /// Copy one slot's columns into the output batch and recycle the slot.
    fn close_into(&mut self, slot_idx: u32, cause: EvictionCause, out: &mut FlowBatch) {
        // tamperlint: allow(index) — callers pass indices removed from the flow map, all live pool slots
        let slot = &self.slots[slot_idx as usize];
        if slot.overdue {
            self.overdue -= 1;
        }
        let last = slot.rows.iter().map(|r| r.ts_sec).max().unwrap_or(0);
        // Mirror an online collector that watched the flow for the timeout
        // window after its last retained packet.
        let observation_end_sec = last + self.cfg.flow_timeout_secs;
        let pkt_start = out.packet_count() as u32;
        out.extend_rows(&slot.rows, &slot.payload);
        out.push_flow(
            slot.tuple,
            pkt_start,
            slot.first_index,
            observation_end_sec,
            slot.truncated,
            cause,
        );
        self.free.push(slot_idx);
    }
}

/// Read a pcap stream and assemble its flows in one call, in first-seen
/// order — the engine path `tamperscope classify` runs, at one thread.
///
/// Packets that fail to parse, or that are not TCP toward a configured
/// server port, are skipped and counted in the returned statistics. A
/// 4-tuple that goes quiet for longer than the flow timeout and then
/// resumes yields two flows, exactly as an online collector would record
/// it. A malformed global header, or a capture that ends in a corrupt or
/// truncated record, is an error.
pub fn flows_from_pcap<R: Read>(
    mut reader: R,
    cfg: &OfflineConfig,
) -> Result<(Vec<FlowRecord>, IngestStats), PcapError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let bytes = Bytes::from(buf);
    let engine = EngineConfig {
        offline: *cfg,
        threads: 1,
        ..EngineConfig::default()
    };
    let (mut flows, stats) = run_source(
        PcapMemSource::new(bytes.clone())?,
        &engine,
        Vec::new,
        |acc: &mut Vec<(u64, FlowRecord)>, batch: FlowBatch| {
            for (i, span) in batch.spans().iter().enumerate() {
                acc.push((span.first_index, batch.materialize(i)));
            }
        },
        |a, mut b| a.append(&mut b),
    );
    if stats.corrupt_tail {
        if let Some(err) = PcapMemSource::new(bytes)?.tail_error() {
            return Err(err);
        }
    }
    flows.sort_unstable_by_key(|(first_index, _)| *first_index);
    Ok((flows.into_iter().map(|(_, f)| f).collect(), stats.ingest))
}

/// Counters from an offline ingestion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Flows assembled.
    pub flows: u64,
    /// Packets retained.
    pub packets: u64,
    /// Packets past the per-flow cap.
    pub truncated_packets: u64,
    /// Frames that did not parse as IP/TCP.
    pub unparsable: u64,
    /// TCP packets not destined to a configured server port (outbound or
    /// other services).
    pub not_inbound: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn client(i: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(203, 0, 113, i))
    }
    fn server() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))
    }

    fn frame(
        src: IpAddr,
        sport: u16,
        flags: TcpFlags,
        seq: u32,
        payload: &'static [u8],
    ) -> Vec<u8> {
        PacketBuilder::new(src, server(), sport, 443)
            .flags(flags)
            .seq(seq)
            .payload(Bytes::from_static(payload))
            .build()
            .emit()
            .to_vec()
    }

    #[test]
    fn assembles_flows_by_four_tuple() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(100, 0, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        w.write_frame(100, 10, &frame(client(2), 4001, TcpFlags::SYN, 9, b""))
            .unwrap();
        w.write_frame(101, 0, &frame(client(1), 4000, TcpFlags::PSH_ACK, 2, b"x"))
            .unwrap();
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.packets, 3);
        let f1 = flows.iter().find(|f| f.client_ip == client(1)).unwrap();
        assert_eq!(f1.packets.len(), 2);
        assert_eq!(f1.observation_end_sec, 101 + 30);
    }

    #[test]
    fn outbound_and_garbage_skipped() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        // Outbound packet (server port as source, client port as dest).
        let outbound = PacketBuilder::new(server(), client(1), 443, 4000)
            .flags(TcpFlags::SYN_ACK)
            .build()
            .emit()
            .to_vec();
        w.write_frame(100, 0, &outbound).unwrap();
        w.write_frame(100, 1, &[0xde, 0xad]).unwrap();
        w.write_frame(100, 2, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(stats.not_inbound, 1);
        assert_eq!(stats.unparsable, 1);
    }

    /// Replay one absorb schedule through a columnar table; every closed
    /// flow as `(first_index, cause)`, in closure order.
    fn run_table(
        schedule: &[(IpAddr, u16, u64)],
        cfg: &OfflineConfig,
        max_live: usize,
    ) -> Vec<(u64, EvictionCause)> {
        let mut table = ColumnarFlowTable::new(*cfg, max_live);
        let mut stats = IngestStats::default();
        let mut batch = FlowBatch::new();
        let mut stamp = 0u64;
        for (index, &(src, sport, ts)) in schedule.iter().enumerate() {
            stamp = stamp.max(ts);
            let bytes = frame(src, sport, TcpFlags::ACK, index as u32, b"");
            let pv = PacketView::parse(&bytes).unwrap();
            table.absorb(index as u64, ts, stamp, &pv, &mut stats, &mut batch);
        }
        table.drain(stamp, &mut batch);
        assert_eq!(stats.flows as usize, batch.flow_count());
        if max_live > 0 {
            assert!(table.high_water() <= max_live);
        }
        batch
            .spans()
            .iter()
            .map(|span| (span.first_index, span.cause))
            .collect()
    }

    #[test]
    fn cap_survivors_are_independent_of_insertion_identity() {
        // The same (position, timestamp) schedule dressed with different
        // 4-tuple identities must evict the same schedule positions: the
        // eviction order is a pure function of (last activity, first-seen
        // index), never of where keys land in the hash map.
        let base: Vec<u64> = vec![100, 100, 101, 101, 102, 102, 103, 104, 105, 106];
        let identities: [&[u8]; 3] = [
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
            &[31, 7, 90, 14, 55, 2, 61, 23, 44, 17],
        ];
        let cfg = OfflineConfig::default();
        let mut evicted_sets = Vec::new();
        for ids in identities {
            let schedule: Vec<(IpAddr, u16, u64)> = base
                .iter()
                .zip(ids)
                .map(|(&ts, &id)| (client(id), 4000, ts))
                .collect();
            let mut evicted: Vec<u64> = run_table(&schedule, &cfg, 3)
                .into_iter()
                .filter(|&(_, cause)| cause == EvictionCause::CapPressure)
                .map(|(first_index, _)| first_index)
                .collect();
            evicted.sort_unstable();
            evicted_sets.push(evicted);
        }
        assert!(!evicted_sets[0].is_empty(), "cap never fired");
        assert_eq!(evicted_sets[0], evicted_sets[1]);
        assert_eq!(evicted_sets[0], evicted_sets[2]);
    }

    impl ColumnarFlowTable {
        /// The victim search as it was before the timer wheel took it
        /// over: a scan of every live flow. The reference the wheel walk
        /// must agree with.
        fn lru_victim_by_scan(&self) -> Option<FlowKey> {
            self.flows
                .iter()
                .min_by_key(|(_, &slot_idx)| {
                    let slot = &self.slots[slot_idx as usize];
                    (slot.last_ts, slot.first_index)
                })
                .map(|(k, _)| *k)
        }
    }

    /// One step of a random absorb schedule: which of a few clients, and
    /// how the packet's timestamp moves against the previous one — ties,
    /// small steps, jumps past the timeout, and steps back in time.
    fn arb_step() -> impl Strategy<Value = (u8, i64)> {
        (
            0u8..12,
            prop_oneof![
                Just(0i64),
                Just(0i64),
                0i64..3,
                20i64..80,
                -60i64..0,
                4000i64..9000,
            ],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The wheel walk picks the same victim as a full scan in every
        /// state a capped table passes through (caps above the 12 clients
        /// never shed, so their tables fill up), whatever the timeout:
        /// short ones whose jumps skip whole laps, the default, and one
        /// wider than the 4096-bucket wheel so expiries alias.
        #[test]
        fn wheel_shedding_matches_the_full_scan(
            steps in proptest::collection::vec(arb_step(), 1..160),
            max_live in 1usize..14,
            timeout in prop_oneof![Just(2u64), Just(5u64), Just(30u64), Just(5000u64)],
        ) {
            let cfg = OfflineConfig {
                flow_timeout_secs: timeout,
                ..OfflineConfig::default()
            };
            let mut table = ColumnarFlowTable::new(cfg, max_live);
            let mut stats = IngestStats::default();
            let mut batch = FlowBatch::new();
            let (mut ts, mut stamp) = (100u64, 100u64);
            for (index, &(who, step)) in steps.iter().enumerate() {
                ts = ts.saturating_add_signed(step);
                stamp = stamp.max(ts);
                let bytes = frame(client(who), 4000, TcpFlags::ACK, index as u32, b"");
                let pv = PacketView::parse(&bytes).unwrap();
                table.absorb(index as u64, ts, stamp, &pv, &mut stats, &mut batch);
                if max_live > 0 {
                    prop_assert!(table.live() <= max_live);
                }
                prop_assert_eq!(table.lru_victim(), table.lru_victim_by_scan());
            }
        }
    }

    #[test]
    fn bad_header_and_torn_tail_are_errors() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_frame(100, 0, &frame(client(1), 4000, TcpFlags::SYN, 1, b""))
            .unwrap();
        let bytes = w.into_inner();
        let cfg = OfflineConfig::default();
        assert!(matches!(
            flows_from_pcap(&bytes[..10], &cfg),
            Err(PcapError::Io(_))
        ));
        assert!(matches!(
            flows_from_pcap(&bytes[..bytes.len() - 3], &cfg),
            Err(PcapError::Io(_))
        ));
        assert_eq!(flows_from_pcap(&bytes[..], &cfg).unwrap().0.len(), 1);
    }

    #[test]
    fn per_flow_cap_marks_truncation() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..14u32 {
            w.write_frame(
                100 + i,
                0,
                &frame(client(1), 4000, TcpFlags::ACK, 100 + i, b""),
            )
            .unwrap();
        }
        let bytes = w.into_inner();
        let (flows, stats) = flows_from_pcap(&bytes[..], &OfflineConfig::default()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].packets.len(), 10);
        assert!(flows[0].truncated);
        assert_eq!(stats.truncated_packets, 4);
    }
}
