//! # pandora-bench
//!
//! The harness that regenerates every table and figure of the PANDORA
//! paper's evaluation (§6). Each figure has a dedicated binary (see
//! `src/bin/`); criterion micro/meso benchmarks live in `benches/`.
//!
//! Measurement policy (`docs/ARCHITECTURE.md`, *Evaluation harness*):
//! algorithmic comparisons and CPU phase breakdowns are **real
//! measurements** on this host; the paper's 64-core / GPU series are
//! **modeled** by replaying the kernel traces of the real runs through the
//! device models in `pandora_exec::device`. Every printed table marks each
//! column `measured` or `modeled`.

pub mod harness;
pub mod suite;

pub use harness::{project, run_pipeline, PipelineRun};
pub use suite::{bench_scale, fig11_suite, fig12_suite, FigDataset};
