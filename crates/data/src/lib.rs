//! Synthetic video corpus and query workloads for the TASM reproduction.
//!
//! The paper evaluates on seven video corpora (Table 1) and six query
//! workloads (§5.3). This crate generates faithful synthetic equivalents:
//!
//! * [`scene`] — a procedural renderer producing textured moving objects
//!   over textured backgrounds, with exact ground-truth bounding boxes and
//!   O(1) random access to any frame;
//! * [`datasets`] — presets matching each Table 1 row's object classes and
//!   per-frame coverage band (sparse vs dense);
//! * [`workloads`] — generators for Workloads 1–6 plus the microbenchmark
//!   `SELECT o FROM v` query;
//! * [`zipf`] — the Zipfian start-frame sampler used by Workloads 3–4.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod scene;
pub mod workloads;
pub mod zipf;

pub use datasets::{Dataset, RES_2K, RES_4K};
pub use scene::{ObjectClass, SceneError, SceneSpec, SyntheticVideo};
pub use workloads::{
    select_all, workload1, workload2, workload3, workload4, workload5, workload6, Query,
    WorkloadParams,
};
pub use zipf::Zipf;
