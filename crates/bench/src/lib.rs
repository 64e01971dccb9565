//! Experiment harness regenerating every table and figure of
//! *Support for High-Frequency Streaming in CMPs* (MICRO 2006).
//!
//! Each experiment is a row of [`experiments::FIGURES`], named on
//! `all_figures`'s command line to run it alone:
//!
//! | Artifact | Name | What it reproduces |
//! |---|---|---|
//! | Table 1 | `table1` | Benchmark loop inventory |
//! | Table 2 | `table2` | Baseline simulator configuration |
//! | Figure 3 | `fig3` | Analytic single-buffer vs queue vs reduced COMM-OP |
//! | Figure 6 | `fig6` | HEAVYWT transit-delay sensitivity |
//! | Figure 7 | `fig7` | Normalized execution time + stall breakdown per design |
//! | Figure 8 | `fig8` | Communication-to-application instruction ratios |
//! | Figure 9 | `fig9` | HEAVYWT speedup over single-threaded execution |
//! | Figure 10 | `fig10` | 4-cycle bus sensitivity |
//! | Figure 11 | `fig11` | 128-byte bus sensitivity |
//! | Figure 12 | `fig12` | SYNCOPTI stream-cache / queue-size optimizations |
//!
//! Run everything with `cargo run -p hfs-bench --release --bin all_figures`,
//! one figure with `... --bin all_figures -- fig7`.
//! Set `HFS_QUICK=1` to cap per-benchmark iteration counts for a fast
//! (less steady-state) pass.
//!
//! Nothing here measures wall-clock time: `benchmark/run.sh` is the
//! repository's one benchmark.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod perfbench;
pub mod runner;
pub mod table;
