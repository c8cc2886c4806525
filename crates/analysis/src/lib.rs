#![warn(missing_docs)]

//! # tamper-analysis
//!
//! Aggregation and reporting: a single-pass streaming [`Collector`] keyed
//! the way the paper aggregates (country, AS, signature, hour, category,
//! domain, IP version, protocol), plus one generator per paper artifact
//! (Table 1–3, Figures 1–10, the §4 validation numbers) in [`report`].
//!
//! The aggregation state itself lives in [`agg::PartialAggregate`] — a
//! pure, serializable, *mergeable* layer (exact counter sums plus
//! deterministic keep-lowest-k reservoirs), encoded to `.agg` files by
//! [`aggfile`] and read by the generators through [`view::ReportView`].
//! N per-PoP partials merged in any order reproduce the single-machine
//! report byte-for-byte.

pub mod agg;
pub mod aggfile;
pub mod capture;
pub mod collector;
pub mod fmt;
pub mod jsonl;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod stats;
pub mod view;

pub use agg::{
    class_code_label, config_fingerprint, flow_priority, postpsh_class_code, DomainCell, PairSeq,
    PartialAggregate, Reservoir, TruthStats, CLASS_NOT_TAMPERED, CLASS_OTHER, N_CLASSES,
    PAIR_SEQ_CAP, RESERVOIR_CAP,
};
pub use aggfile::{decode as decode_agg, encode as encode_agg, merge_checked, AggError};
pub use capture::{
    capture_collector, capture_meta, capture_summary_to_json, engine_perf_to_json,
    label_capture_flow,
};
pub use collector::Collector;
pub use fmt::{pct, pct_f, Table};
pub use jsonl::{
    escape_into, escape_json, flow_to_jsonl, flow_to_line, summary_to_json, write_jsonl,
    write_line, JsonObject,
};
pub use metrics::{metrics_to_json, write_metrics_json};
pub use paper::{comparison_table, comparisons, Comparison};
pub use stats::{ols_slope, slope_through_origin, Cdf};
pub use tamper_worldgen::TestList;
pub use view::ReportView;
