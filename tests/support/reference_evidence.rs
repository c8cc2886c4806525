//! A test-only reference for the IP-ID/TTL evidence: the five
//! per-statistic functions as they stood before the classifier's walk
//! computed them, each re-sorting the packets on its own. The
//! differential proptests compare `FlowAnalysis::evidence` against these,
//! and the reference classifier fills its `evidence` from them.

#![allow(dead_code)]

use tamperscope::capture::FlowRecord;
use tamperscope::core::{reconstruct_order_view_into, FlowEvidence, PacketsView};

/// All five statistics of one flow, each from its own reference body.
pub fn evidence(flow: &FlowRecord) -> FlowEvidence {
    FlowEvidence {
        max_rst_ipid_delta: max_rst_ipid_delta(flow),
        max_rst_ttl_delta: max_rst_ttl_delta(flow),
        min_consecutive_ipid_delta: min_consecutive_ipid_delta(flow),
        max_consecutive_ipid_delta: max_consecutive_ipid_delta(flow),
        max_consecutive_ttl_delta: max_consecutive_ttl_delta(flow),
    }
}

/// Absolute difference between two IP-IDs (no wrap folding: the paper
/// plots plain absolute change, with the x-axis running to 65535).
fn ipid_delta(a: u16, b: u16) -> u32 {
    (i32::from(a) - i32::from(b)).unsigned_abs()
}

/// Maximum absolute IP-ID change between each RST-flagged packet and the
/// nearest preceding non-RST packet. `None` if the flow has no RSTs, no
/// IPv4 IP-IDs, or no preceding packet.
pub fn max_rst_ipid_delta(flow: &FlowRecord) -> Option<u32> {
    max_rst_ipid_delta_view(flow.packets.as_slice())
}

/// [`max_rst_ipid_delta`] over any packet storage layout.
pub fn max_rst_ipid_delta_view<V: PacketsView + ?Sized>(v: &V) -> Option<u32> {
    let mut order = Vec::new();
    reconstruct_order_view_into(v, &mut order);
    let mut last_non_rst: Option<u16> = None;
    let mut max: Option<u32> = None;
    for &i in &order {
        if v.flags(i).has_rst() {
            if let (Some(prev), Some(cur)) = (last_non_rst, v.ip_id(i)) {
                let d = ipid_delta(cur, prev);
                max = Some(max.map_or(d, |m: u32| m.max(d)));
            }
        } else if let Some(id) = v.ip_id(i) {
            last_non_rst = Some(id);
        }
    }
    max
}

/// Maximum absolute IP-ID change between consecutive packets — the
/// baseline ("Not Tampering") statistic.
pub fn max_consecutive_ipid_delta(flow: &FlowRecord) -> Option<u32> {
    max_consecutive_ipid_delta_view(flow.packets.as_slice())
}

/// [`max_consecutive_ipid_delta`] over any packet storage layout.
pub fn max_consecutive_ipid_delta_view<V: PacketsView + ?Sized>(v: &V) -> Option<u32> {
    consecutive_ipid_deltas(v).1
}

/// Minimum absolute IP-ID change between consecutive packets — used for
/// the paper's sanity check that ≥93% of connections have a minimum delta
/// of 0 or 1.
pub fn min_consecutive_ipid_delta(flow: &FlowRecord) -> Option<u32> {
    min_consecutive_ipid_delta_view(flow.packets.as_slice())
}

/// [`min_consecutive_ipid_delta`] over any packet storage layout.
pub fn min_consecutive_ipid_delta_view<V: PacketsView + ?Sized>(v: &V) -> Option<u32> {
    consecutive_ipid_deltas(v).0
}

/// (min, max) absolute IP-ID delta over consecutive IPv4 packets in
/// reconstructed order (IPv6 packets in between are skipped, matching the
/// filtered-window semantics of the per-record path).
fn consecutive_ipid_deltas<V: PacketsView + ?Sized>(v: &V) -> (Option<u32>, Option<u32>) {
    let mut order = Vec::new();
    reconstruct_order_view_into(v, &mut order);
    let mut prev: Option<u16> = None;
    let mut min: Option<u32> = None;
    let mut max: Option<u32> = None;
    for &i in &order {
        if let Some(id) = v.ip_id(i) {
            if let Some(p) = prev {
                let d = ipid_delta(id, p);
                min = Some(min.map_or(d, |m: u32| m.min(d)));
                max = Some(max.map_or(d, |m: u32| m.max(d)));
            }
            prev = Some(id);
        }
    }
    (min, max)
}

/// Signed TTL change between each RST packet and the nearest preceding
/// non-RST packet; returns the change with the largest magnitude
/// (Figure 3 plots signed changes in −255..255).
pub fn max_rst_ttl_delta(flow: &FlowRecord) -> Option<i16> {
    max_rst_ttl_delta_view(flow.packets.as_slice())
}

/// [`max_rst_ttl_delta`] over any packet storage layout.
pub fn max_rst_ttl_delta_view<V: PacketsView + ?Sized>(v: &V) -> Option<i16> {
    let mut order = Vec::new();
    reconstruct_order_view_into(v, &mut order);
    let mut last_non_rst: Option<u8> = None;
    let mut max: Option<i16> = None;
    for &i in &order {
        if v.flags(i).has_rst() {
            if let Some(prev) = last_non_rst {
                let d = i16::from(v.ttl(i)) - i16::from(prev);
                max = Some(match max {
                    Some(m) if m.abs() >= d.abs() => m,
                    _ => d,
                });
            }
        } else {
            last_non_rst = Some(v.ttl(i));
        }
    }
    max
}

/// Signed TTL change of largest magnitude between consecutive packets —
/// baseline statistic.
pub fn max_consecutive_ttl_delta(flow: &FlowRecord) -> Option<i16> {
    max_consecutive_ttl_delta_view(flow.packets.as_slice())
}

/// [`max_consecutive_ttl_delta`] over any packet storage layout.
pub fn max_consecutive_ttl_delta_view<V: PacketsView + ?Sized>(v: &V) -> Option<i16> {
    let mut order = Vec::new();
    reconstruct_order_view_into(v, &mut order);
    let mut max: Option<i16> = None;
    for w in order.windows(2) {
        let d = i16::from(v.ttl(w[1])) - i16::from(v.ttl(w[0]));
        max = Some(match max {
            Some(m) if m.abs() >= d.abs() => m,
            _ => d,
        });
    }
    max
}
