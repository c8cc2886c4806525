//! Classic libpcap file format (the one every tcpdump/wireshark reads),
//! with LINKTYPE_RAW (101): each record is a bare IPv4/IPv6 packet.
//!
//! This keeps the library useful beyond simulation: captured simulated
//! flows can be inspected with standard tooling, and *real* pcap files of
//! server-side captures can be fed to the classifier.

use std::io::{self, Read, Write};
use tamper_wire::Packet;

const MAGIC: u32 = 0xa1b2_c3d4;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
/// LINKTYPE_RAW: raw IP, version nibble decides v4/v6.
const LINKTYPE_RAW: u32 = 101;
/// Snapshot length written to our own headers, and the hard upper bound we
/// accept for any record's `incl_len` when reading. A corrupt length field
/// must never translate into a multi-gigabyte allocation.
pub const SNAPLEN: u32 = 65_535;

/// Read a little-endian u32 out of a fixed-offset window of a header
/// buffer. The offsets are compile-time constants into stack arrays, so
/// the slice is always exactly four bytes.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    // tamperlint: allow(index) — offsets are compile-time constants into fixed-size stack arrays filled by read_exact
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<PcapWriter<W>> {
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&VERSION_MAJOR.to_le_bytes())?;
        out.write_all(&VERSION_MINOR.to_le_bytes())?;
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&SNAPLEN.to_le_bytes())?;
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Write one raw frame.
    pub fn write_frame(&mut self, ts_sec: u32, ts_usec: u32, frame: &[u8]) -> io::Result<()> {
        self.out.write_all(&ts_sec.to_le_bytes())?;
        self.out.write_all(&ts_usec.to_le_bytes())?;
        let len = frame.len() as u32;
        self.out.write_all(&len.to_le_bytes())?; // incl_len
        self.out.write_all(&len.to_le_bytes())?; // orig_len
        self.out.write_all(frame)?;
        Ok(())
    }

    /// Emit a [`Packet`] (serialized via the wire emitter).
    pub fn write_packet(&mut self, ts_sec: u32, ts_usec: u32, pkt: &Packet) -> io::Result<()> {
        self.write_frame(ts_sec, ts_usec, &pkt.emit())
    }

    /// Finish writing, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Error from pcap reading.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The global header was not a classic little-endian pcap header.
    BadMagic(u32),
    /// Unsupported link type (only LINKTYPE_RAW is handled).
    BadLinkType(u32),
    /// A record header claimed a captured length beyond any plausible
    /// snapshot — the file is corrupt past this point.
    OversizeRecord(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic {m:#x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported pcap link type {l}"),
            PcapError::OversizeRecord(n) => {
                write!(
                    f,
                    "pcap record claims {n} captured bytes (snaplen is {SNAPLEN})"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> PcapError {
        PcapError::Io(e)
    }
}

/// Validate a classic pcap global header: the little-endian magic and
/// LINKTYPE_RAW. A capture shorter than the 24-byte header fails the same
/// way a short `read_exact` does.
pub(crate) fn check_global_header(mut input: &[u8]) -> Result<(), PcapError> {
    let mut header = [0u8; 24];
    input.read_exact(&mut header)?;
    let magic = le_u32(&header, 0);
    if magic != MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = le_u32(&header, 20);
    if linktype != LINKTYPE_RAW {
        return Err(PcapError::BadLinkType(linktype));
    }
    Ok(())
}

/// Write every packet of a session trace (both directions, as received at
/// the endpoints) to a pcap stream — the debugging view for Wireshark.
pub fn write_session_trace<W: Write>(
    writer: &mut PcapWriter<W>,
    trace: &tamper_netsim::SessionTrace,
) -> io::Result<u64> {
    let mut written = 0;
    for tp in &trace.packets {
        let secs = tp.time.as_secs() as u32;
        let usec = ((tp.time.as_nanos() % 1_000_000_000) / 1_000) as u32;
        writer.write_packet(secs, usec, &tp.packet)?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FlowSource, PcapMemSource};
    use bytes::Bytes;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
    use tamper_netsim::{
        derive_rng, run_session, ClientConfig, Path, ServerConfig, SessionParams, SimDuration,
        SimTime,
    };
    use tamper_wire::{PacketBuilder, TcpFlags};

    fn v4_packet() -> Packet {
        PacketBuilder::new(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            1234,
            80,
        )
        .flags(TcpFlags::PSH_ACK)
        .payload(Bytes::from_static(b"GET / HTTP/1.1\r\n\r\n"))
        .build()
    }

    /// Frame a capture the way the engine's reader does: every record's
    /// timestamp and frame bytes, and the source itself for its tail
    /// state.
    fn framed(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, PcapMemSource) {
        let bytes = Bytes::copy_from_slice(bytes);
        let mut src = PcapMemSource::new(bytes.clone()).unwrap();
        let mut items = Vec::new();
        let mut chunk = Vec::new();
        loop {
            let more = src.fill(&mut chunk, 4);
            items.append(&mut chunk);
            if !more {
                break;
            }
        }
        let frames = items
            .iter()
            .map(|it| (it.ts, bytes[it.off..it.off + it.len as usize].to_vec()))
            .collect();
        (frames, src)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(100, 250_000, &v4_packet()).unwrap();
        w.write_packet(101, 0, &v4_packet()).unwrap();
        let bytes = w.into_inner();
        // The first record header's ts_usec field (Wireshark reads it).
        assert_eq!(&bytes[28..32], &250_000u32.to_le_bytes());

        let (records, src) = framed(&bytes);
        assert!(!src.corrupt_tail());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 100);
        assert_eq!(records[1].0, 101);
        // Frames re-parse into identical packets.
        let parsed = Packet::parse(&records[0].1).unwrap();
        assert_eq!(parsed.tcp.flags, TcpFlags::PSH_ACK);
        assert_eq!(&parsed.payload[..], b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn header_fields_are_standard() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.into_inner();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(&bytes[20..24], &101u32.to_le_bytes());
    }

    #[test]
    fn rejects_bad_magic() {
        let bogus = Bytes::from_static(&[0u8; 24]);
        match PcapMemSource::new(bogus) {
            Err(PcapError::BadMagic(0)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("bogus header accepted"),
        }
    }

    #[test]
    fn rejects_wrong_linktype() {
        let mut bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        bytes[20..24].copy_from_slice(&1u32.to_le_bytes()); // Ethernet
        match PcapMemSource::new(Bytes::from(bytes)) {
            Err(PcapError::BadLinkType(1)) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("wrong linktype accepted"),
        }
    }

    #[test]
    fn rejects_a_cut_global_header() {
        let bytes = PcapWriter::new(Vec::new()).unwrap().into_inner();
        match PcapMemSource::new(Bytes::copy_from_slice(&bytes[..23])) {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("cut header accepted"),
        }
    }

    #[test]
    fn ipv6_frames_round_trip() {
        let pkt = PacketBuilder::new(
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)),
            5,
            443,
        )
        .flags(TcpFlags::SYN)
        .build();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(7, 8, &pkt).unwrap();
        let (records, src) = framed(&w.into_inner());
        assert_eq!(records.len(), 1);
        assert!(!src.corrupt_tail());
        let parsed = Packet::parse(&records[0].1).unwrap();
        assert!(!parsed.ip.is_v4());
    }

    #[test]
    fn oversize_record_is_rejected_not_allocated() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(1, 2, &v4_packet()).unwrap();
        let mut bytes = w.into_inner();
        // Corrupt the first record's incl_len (global header is 24 bytes,
        // incl_len sits 8 bytes into the record header) to claim 1 GiB.
        bytes[32..36].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let (records, src) = framed(&bytes);
        assert!(records.is_empty());
        assert!(src.corrupt_tail());
        match src.tail_error() {
            Some(PcapError::OversizeRecord(n)) => assert_eq!(n, 1 << 30),
            other => panic!("expected oversize error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_is_a_corrupt_tail() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(1, 2, &v4_packet()).unwrap();
        w.write_packet(2, 0, &v4_packet()).unwrap();
        let bytes = w.into_inner();
        let rec_len = (bytes.len() - 24) / 2;
        // Cut inside the second frame body, then inside its header.
        for cut in [3, rec_len - 4] {
            let (records, src) = framed(&bytes[..bytes.len() - cut]);
            assert_eq!(records.len(), 1, "cut {cut}");
            assert!(src.corrupt_tail(), "cut {cut}");
            assert!(
                matches!(src.tail_error(), Some(PcapError::Io(_))),
                "cut {cut}"
            );
        }
        // A cut on a record boundary is a clean end.
        let (records, src) = framed(&bytes[..24 + rec_len]);
        assert_eq!(records.len(), 1);
        assert!(!src.corrupt_tail());
        assert!(src.tail_error().is_none());
    }

    #[test]
    fn session_trace_round_trips_through_pcap() {
        let client = "203.0.113.30".parse().unwrap();
        let server = "198.51.100.1".parse().unwrap();
        let cfg = ClientConfig::default_tls(client, server, "exported.example");
        let mut path = Path::direct(SimDuration::from_millis(25), 9);
        let mut rng = derive_rng(21, 1);
        let trace = run_session(
            SessionParams::new(cfg, ServerConfig::default_edge(server, 443), SimTime::ZERO),
            &mut path,
            &mut rng,
        );
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let n = write_session_trace(&mut w, &trace).unwrap();
        assert_eq!(n as usize, trace.packets.len());
        assert!(n > 10, "both directions should be present");
        let (records, _) = framed(&w.into_inner());
        assert_eq!(records.len(), trace.packets.len());
        // Every frame re-parses, and both directions appear.
        let mut to_server = 0;
        let mut to_client = 0;
        for (_, frame) in &records {
            let pkt = Packet::parse(frame).unwrap();
            if pkt.tcp.dst_port == 443 {
                to_server += 1;
            } else {
                to_client += 1;
            }
        }
        assert!(to_server > 0 && to_client > 0);
    }
}
