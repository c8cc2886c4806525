#![warn(missing_docs)]

//! # tamper-core
//!
//! The paper's primary contribution as a library: passive detection of
//! connection tampering from server-side flow records.
//!
//! Pipeline: a [`FlowRecord`](tamper_capture::FlowRecord) (≤10 inbound
//! packets, 1-second timestamps, possibly out of order) is
//! [reordered](reorder), tested for **possibly-tampered** status (RST
//! present, or a ≥3 s inactivity gap without a FIN), matched against the
//! 19 [tampering signatures](signature::Signature) of Table 1, and
//! annotated with the [`trigger`] (SNI / Host) and
//! [injection evidence](evidence) (IP-ID / TTL discontinuities, scanner
//! fingerprints).
//!
//! The classifier sees exactly what the paper's pipeline saw — it never
//! touches simulation ground truth, which lives only in `tamper-netsim`
//! traces and is used by tests to measure precision/recall.

pub mod batch;
pub mod classify;
pub mod evidence;
pub mod explain;
pub mod machine;
pub mod reorder;
pub mod signature;
pub mod trigger;
pub mod view;

pub use batch::BatchClassifier;
pub use classify::{classify, ClassifierConfig, FlowAnalysis};
pub use evidence::{
    is_zmap_fingerprint, scanner_marks, FlowEvidence, ScannerMarks, HIGH_TTL, ZMAP_IP_ID,
};
pub use explain::explain;
pub use machine::{
    classify_view, event_of, reachable_graph, stage_of, transition, Count, Event, FlowMachine,
    Input, Output, StageState,
};
pub use reorder::{
    reconstruct_order, reconstruct_order_into, reconstruct_order_view_into, reordered,
};
pub use signature::{Classification, Signature, Stage};
pub use trigger::{
    extract as extract_trigger, extract_from_parts as extract_trigger_from_parts, user_agent,
    AppProtocol, TriggerInfo,
};
pub use view::PacketsView;
