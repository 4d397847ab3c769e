//! Host-time benchmark of the group key agreement simulator.
//!
//! Four workloads each load a different layer (see `README.md` in this
//! directory). An untraced run times every unit of a workload through
//! the library's public entry points and reports the end-to-end
//! metrics; a traced run replays the same units with a timer at every
//! layer boundary and reports the split by layer.

#![forbid(unsafe_code)]

pub mod probe;
pub mod replay;
pub mod run;
pub mod speed;
pub mod stats;
pub mod workload;
