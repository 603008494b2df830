//! Host-time benchmark of the modeling stack.
//!
//! Four closed-loop workloads — `offline`, `sweep`, `fleet` and
//! `lifecycle` — drive the public APIs of `energy_model`, `ml`,
//! `gpu_sim`/`synergy` and `governor` with inputs generated from a seed,
//! check every simulated output, and report end-to-end host time. A
//! separate traced run splits each workload's host time by layer
//! ([`trace`]). `README.md` maps each layer metric to the end-to-end
//! metric it should move.

pub mod check;
pub mod env;
pub mod host;
pub mod trace;
pub mod workloads;

/// Default workload seed (the SC-W '23 workshop date, shared with the
/// committed BENCH_*.json headlines).
pub const DEFAULT_SEED: u64 = 20231112;

/// Repetitions per measured configuration point (the paper's five).
pub const REPS: usize = 5;
