//! # energy-repro — workspace umbrella crate
//!
//! Reproduction of *"Domain-Specific Energy Modeling for Drug Discovery and
//! Magnetohydrodynamics Applications"* (SC-W 2023). This crate re-exports
//! the workspace members so the examples and cross-crate integration tests
//! have a single import surface; the substance lives in the member crates:
//!
//! * [`gpu_sim`] — analytical DVFS GPU simulator (V100/MI100 stand-in)
//! * [`synergy`] — portable energy profiling / frequency scaling API
//! * [`cronos`] — finite-volume MHD solver (the Cronos stand-in)
//! * [`ligen`] — molecular docking & virtual screening (the LiGen stand-in)
//! * [`ml`] — from-scratch regression models, CV, and metrics
//! * [`energy_model`] — the paper's contribution: general-purpose and
//!   domain-specific energy/time models with Pareto-front analysis
//! * [`governor`] — the online frequency governor: versioned model
//!   registry, batched prediction serving, and deadline-aware closed-loop
//!   DVFS over the trained models

#![forbid(unsafe_code)]

pub use cronos;
pub use energy_model;
pub use governor;
pub use gpu_sim;
pub use ligen;
pub use ml;
pub use synergy;
