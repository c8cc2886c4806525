//! Ingest golden digests: pins every closed flow the columnar flow table
//! and the `PcapMemSource` engine front end produce, so the one pcap
//! ingestion path cannot drift unnoticed.
//!
//! Each digest is an FNV-1a-64 fold over an explicit rendering of every
//! closed flow — `first_index`, eviction cause, and every `FlowRecord`
//! field including the payload bytes — plus the deterministic counters of
//! the run. Two cases:
//!
//! - **Table schedule:** one absorb schedule with timeouts, reopened
//!   4-tuples and an end-of-capture drain, replayed straight into a
//!   `ColumnarFlowTable` at live-flow caps 0 (unbounded), 4 and 1.
//! - **Engine capture:** a 300-flow synthetic capture through
//!   `run_source` over `PcapMemSource` at several
//!   `(threads, max_flows, batch_flows)` settings, plus a torn-tail cut.
//!
//! The constants were blessed from the per-flow `FlowTable` and the
//! stream-reader engine front end this path replaced, which closed the
//! same flows. On a deliberate change to flow assembly, the failure
//! message prints the new digest; update the constant in the same commit
//! and say why.

use std::fmt::{self, Write as _};
use std::net::{IpAddr, Ipv4Addr};

use bytes::Bytes;
use tamperscope::capture::{
    run_source, ColumnarFlowTable, EngineConfig, EngineStats, EvictionCause, FlowBatch, FlowRecord,
    IngestStats, OfflineConfig, PcapMemSource, PcapWriter,
};
use tamperscope::wire::{PacketBuilder, PacketView, TcpFlags};

/// FNV-1a, 64-bit, folded over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// One closed flow as the digests see it.
struct Closed {
    first_index: u64,
    cause: EvictionCause,
    flow: FlowRecord,
}

fn fold_flow(h: &mut Fnv, c: &Closed) {
    let f = &c.flow;
    let cause = match c.cause {
        EvictionCause::Timeout => "timeout",
        EvictionCause::CapPressure => "cap",
        EvictionCause::EndOfCapture => "eof",
    };
    let _ = writeln!(
        h,
        "f{} {cause} {} {} {} {} end={} trunc={} n={}",
        c.first_index,
        f.client_ip,
        f.server_ip,
        f.src_port,
        f.dst_port,
        f.observation_end_sec,
        f.truncated,
        f.packets.len()
    );
    for p in &f.packets {
        let _ = write!(
            h,
            " p ts={} fl={} seq={} ack={} id={:?} ttl={} win={} len={} opt={} pl=",
            p.ts_sec,
            p.flags.bits(),
            p.seq,
            p.ack,
            p.ip_id,
            p.ttl,
            p.window,
            p.payload_len,
            p.has_tcp_options
        );
        h.bytes(&p.payload);
        h.bytes(b"\n");
    }
}

fn fold_ingest(h: &mut Fnv, s: &IngestStats) {
    let _ = writeln!(
        h,
        "ingest flows={} packets={} truncated={} unparsable={} not_inbound={}",
        s.flows, s.packets, s.truncated_packets, s.unparsable, s.not_inbound
    );
}

/// Every closed flow in the batches, in first-seen order.
fn closed_of(batches: &[FlowBatch]) -> Vec<Closed> {
    let mut closed: Vec<Closed> = batches
        .iter()
        .flat_map(|b| {
            b.spans().iter().enumerate().map(move |(i, span)| Closed {
                first_index: span.first_index,
                cause: span.cause,
                flow: b.materialize(i),
            })
        })
        .collect();
    closed.sort_by_key(|c| c.first_index);
    closed
}

fn client(i: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, i))
}

fn frame(src: IpAddr, sport: u16, flags: TcpFlags, seq: u32, payload: &'static [u8]) -> Vec<u8> {
    PacketBuilder::new(src, IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)), sport, 443)
        .flags(flags)
        .seq(seq)
        .payload(Bytes::from_static(payload))
        .build()
        .emit()
        .to_vec()
}

// ---------------------------------------------------------------------------
// Table schedule
// ---------------------------------------------------------------------------

/// `(client, sport, ts)` per absorbed packet: timeouts, cap pressure,
/// reopened 4-tuples and an end-of-capture drain in one schedule.
fn schedule() -> Vec<(IpAddr, u16, u64)> {
    let mut schedule = Vec::new();
    for i in 0..40u8 {
        schedule.push((client(i % 7), 4000 + u16::from(i % 3), 100 + u64::from(i)));
    }
    // A long quiet gap expires everything, then the same tuples reopen.
    schedule.push((client(1), 4000, 500));
    for i in 0..12u8 {
        schedule.push((client(i % 5), 4100, 500 + u64::from(i)));
    }
    schedule
}

fn schedule_cfg() -> OfflineConfig {
    OfflineConfig {
        flow_timeout_secs: 10,
        ..OfflineConfig::default()
    }
}

fn table_digest(max_live: usize) -> u64 {
    let mut table = ColumnarFlowTable::new(schedule_cfg(), max_live);
    let mut stats = IngestStats::default();
    let mut batch = FlowBatch::new();
    let mut stamp = 0u64;
    for (index, &(src, sport, ts)) in schedule().iter().enumerate() {
        stamp = stamp.max(ts);
        let bytes = frame(src, sport, TcpFlags::ACK, index as u32, b"");
        let pv = PacketView::parse(&bytes).expect("valid frame");
        table.absorb(index as u64, ts, stamp, &pv, &mut stats, &mut batch);
    }
    table.drain(stamp, &mut batch);
    let mut h = Fnv::new();
    // Closure order, not first-seen order: the table's eviction order is
    // part of what is pinned here.
    for (i, span) in batch.spans().iter().enumerate() {
        fold_flow(
            &mut h,
            &Closed {
                first_index: span.first_index,
                cause: span.cause,
                flow: batch.materialize(i),
            },
        );
    }
    fold_ingest(&mut h, &stats);
    let _ = writeln!(h, "high_water={} live={}", table.high_water(), table.live());
    h.0
}

// ---------------------------------------------------------------------------
// Engine capture
// ---------------------------------------------------------------------------

/// 300 three-packet flows (SYN, ACK, data) staggered one second apart, so
/// older flows time out mid-stream.
fn capture() -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for i in 0..300u32 {
        let c = client((1 + i % 200) as u8);
        let sport = 4000 + i as u16;
        let t = 100 + i;
        w.write_frame(t, 0, &frame(c, sport, TcpFlags::SYN, 1, b""))
            .expect("frame");
        w.write_frame(t, 1, &frame(c, sport, TcpFlags::ACK, 2, b""))
            .expect("frame");
        w.write_frame(t + 1, 0, &frame(c, sport, TcpFlags::PSH_ACK, 2, b"hello"))
            .expect("frame");
    }
    w.into_inner()
}

fn fold_engine(h: &mut Fnv, closed: &[Closed], stats: &EngineStats) {
    for c in closed {
        fold_flow(h, c);
    }
    let _ = writeln!(h, "records={}", stats.records);
    fold_ingest(h, &stats.ingest);
    let _ = writeln!(
        h,
        "timeout={} cap={} eof={} corrupt={} max_live={}",
        stats.evicted_timeout,
        stats.evicted_cap,
        stats.drained_eof,
        stats.corrupt_tail,
        stats.max_live_flows
    );
}

fn engine_cfg(threads: usize, max_flows: usize) -> EngineConfig {
    EngineConfig {
        threads,
        max_flows,
        ..EngineConfig::default()
    }
}

fn engine_digest(bytes: &[u8], threads: usize, max_flows: usize, batch_flows: usize) -> u64 {
    let src = PcapMemSource::new(Bytes::copy_from_slice(bytes))
        .expect("pcap header")
        .with_batch_flows(batch_flows);
    let (batches, stats) = run_source(
        src,
        &engine_cfg(threads, max_flows),
        Vec::new,
        |acc: &mut Vec<FlowBatch>, b| acc.push(b),
        |a, mut b| a.append(&mut b),
    );
    let mut h = Fnv::new();
    fold_engine(&mut h, &closed_of(&batches), &stats);
    h.0
}

const TABLE_UNBOUNDED: u64 = 0x4f8a4cecc2b33efd;
const TABLE_CAP_4: u64 = 0x2588adce86799307;
const TABLE_CAP_1: u64 = 0xaddb703fc9f4addb;

/// `(threads, max_flows, batch_flows, digest)`: several shard counts, a
/// batch of one flow and an oversized one, and cap pressure with a batch
/// size that does not divide anything.
const ENGINE_CASES: [(usize, usize, usize, u64); 4] = [
    (1, 0, 16, 0xa3bd092956e252dc),
    (2, 0, 1, 0xacc5ac295c1b2a03),
    (8, 0, 512, 0xb5df5d2961628c27),
    (2, 32, 7, 0xd8d88fdfaffb8f8a),
];

/// The capture cut 7 bytes short, at 1 and 2 threads.
const TORN: [u64; 2] = [0xcc3a95cac96fe22a, 0xd4f198cace635249];

#[test]
fn flow_table_schedule_matches_the_golden_digest() {
    let got = [table_digest(0), table_digest(4), table_digest(1)];
    assert_eq!(
        got,
        [TABLE_UNBOUNDED, TABLE_CAP_4, TABLE_CAP_1],
        "columnar flow table output drifted; new digests {got:#018x?}"
    );
}

#[test]
fn pcap_engine_capture_matches_the_golden_digest() {
    let bytes = capture();
    for (threads, max_flows, batch_flows, want) in ENGINE_CASES {
        let got = engine_digest(&bytes, threads, max_flows, batch_flows);
        assert_eq!(
            got, want,
            "engine output drifted at threads={threads} max_flows={max_flows} \
             batch_flows={batch_flows}; new digest {got:#018x}"
        );
    }
    let torn = &bytes[..bytes.len() - 7];
    let got = [engine_digest(torn, 1, 0, 64), engine_digest(torn, 2, 0, 64)];
    assert_eq!(
        got, TORN,
        "torn-tail output drifted; new digests {got:#018x?}"
    );
}
