//! End-to-end and per-layer host-time benchmark of the bcc workspace.
//!
//! The benchmark drives the program only through public API. Untraced
//! runs give the end-to-end metrics; traced runs wrap each layer's public
//! trait object in a timing decorator ([`trace`]) and give the per-layer
//! metrics. See `NOTES.md` for the workloads, the metrics and the layer →
//! end-to-end map.

pub mod affinity;
pub mod check;
pub mod measure;
pub mod run;
pub mod trace;
pub mod workload;
