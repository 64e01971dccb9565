//! Simulation kernel for the `hfs` cycle-level CMP simulator.
//!
//! This crate provides the time base and bookkeeping primitives shared by
//! every other crate in the workspace:
//!
//! * [`Cycle`] — a newtype over `u64` representing simulated time, and
//!   [`fold_bound`] — the clamp-and-min fold behind every `next_event`,
//! * [`TimedQueue`] — the latency-stamped message channel used to connect
//!   hardware components without shared mutable aliasing,
//! * [`stats`] — counters, histograms, and the per-component stall
//!   [`stats::Breakdown`] that reproduces the paper's Figure 7 accounting
//!   (`PreL2` / `L2` / `BUS` / `L3` / `MEM` / `PostL2`),
//! * [`Rng64`] — the workspace-wide deterministic PRNG (SplitMix64-seeded
//!   xorshift64*) behind workload address randomness and randomized tests,
//! * [`FnvMap`] — std's `HashMap` keyed by `u64` under an FNV-1a hasher,
//!   for per-transaction hot-path state (cheaper than SipHash),
//!   and [`DenseMap`] — a flat table for small dense ids (queues, regions),
//! * [`ConfigError`] — validation errors for machine configuration,
//! * [`json`] — the one JSON reader and writer: result cache, artifacts,
//!   the wire, the structured log and the Chrome trace export,
//! * [`env_flag`] and [`env_path`] — the one reading of every on/off
//!   and every path `HFS_*` variable,
//! * [`CancelToken`] — a thread-safe cooperative cancellation flag polled
//!   by long-running simulations (used by the `hfs-serve` service layer
//!   to abandon jobs whose clients disconnected),
//! * [`sched`] — a calendar queue (timing wheel + overflow heap) that no
//!   production code uses; retained for `benchmark/` until its next PR.
//!
//! # Example
//!
//! ```
//! use hfs_sim::{Cycle, TimedQueue};
//!
//! // A 3-cycle link: a message sent at cycle 10 pops at cycle 13.
//! let mut link = TimedQueue::new();
//! let sent = Cycle::new(10);
//! link.push(sent + 3, "hello");
//! assert_eq!(link.pop_ready(Cycle::new(12)), None);
//! assert_eq!(link.pop_ready(Cycle::new(13)), Some("hello"));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cancel;
mod cycle;
mod env;
mod error;
pub mod json;
mod map;
mod queue;
mod rng;
pub mod sched;
pub mod stats;

pub use cancel::CancelToken;
pub use cycle::{fold_bound, Cycle};
pub use env::{env_flag, env_path};
pub use error::ConfigError;
pub use map::{DenseMap, FnvMap};
pub use queue::TimedQueue;
pub use rng::Rng64;
