//! End-to-end benchmark of the getafix check pipelines.
//!
//! The benchmark generates seeded inputs, runs the `check --trace`,
//! `check` and `check-conc --trace` pipelines in-process from source text
//! through the crates' public functions, checks every answer, and reports
//! time to verdict and checks per second. A traced run adds per-layer
//! self times and counts, measured from spans the benchmark records
//! around its own calls into each layer. See `perfbench/README.md`.

pub mod args;
pub mod check;
pub mod inputs;
pub mod report;
pub mod run;
pub mod spans;
