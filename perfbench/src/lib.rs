//! The tamperscope benchmark: seeded inputs, traced library compositions
//! of the `classify`, `report` and `merge` commands, and the per-layer
//! metrics computed from their spans. `run.py` drives the release binary
//! for the end-to-end figures and calls this crate's `perfbench` binary
//! for inputs, set-up timing and the traced run.

pub mod compose;
pub mod metrics;
pub mod recipe;
pub mod trace;
pub mod wrap;
