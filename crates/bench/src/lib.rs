//! # pm-bench — the PolyMath evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (see DESIGN.md §4 for the experiment index):
//!
//! the [`figures`] module prints each table/figure's rows from the
//! simulated platforms (`cargo run -p pm-bench --bin figures -- --all`),
//! and `figures --dse` adds the fabric-parameter sweeps and the two
//! compiler ablations EXPERIMENTS.md quotes.
//!
//! Performance of the stack is measured by the repository's benchmark in
//! `benchmark/` (see `BENCHMARK.json`), not here.

#![warn(missing_docs)]

pub mod figures;
