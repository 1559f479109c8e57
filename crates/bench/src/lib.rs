//! # pandora-bench
//!
//! The harness that regenerates the tables and figures of the PANDORA
//! paper's evaluation (§6). Each figure has a dedicated binary (see
//! `src/bin/`); criterion micro/meso benchmarks live in `benches/`.
//!
//! Measurement policy (`docs/ARCHITECTURE.md`, *Evaluation harness*):
//! every printed number is measured on this host. The paper's 64-core
//! CPU and GPU numbers are printed beside the host columns they mirror,
//! and each binary names the paper claims this host cannot test.

pub mod harness;
pub mod suite;

pub use harness::{run_pipeline, PipelineRun};
pub use suite::{bench_scale, fig11_suite, fig12_suite, FigDataset};
