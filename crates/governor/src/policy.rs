//! Frequency-selection policies over a predicted Pareto set.
//!
//! A policy turns a [`PredictedProfile`] plus a per-job deadline into a
//! clock request — or into *no* request ([`Policy::DefaultClock`], the
//! baseline every other policy is measured against, and the fallback
//! every failure mode converges to).
//!
//! The core clock is the one axis a served profile carries. Gangs of
//! devices have their own selector, [`crate::gang::choose_gang`], over
//! measured strong-scaling profiles.
//!
//! Tie-breaking is fully deterministic: candidates are compared by
//! `total_cmp` chains, never by float `==` alone, so two runs of the same
//! stream make the same choices bit-for-bit.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::serving::PredictedProfile;
use energy_model::ds_model::PredictedPoint;
use serde::{Deserialize, Serialize};

/// A frequency-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Never change the clock — the vendor-default baseline.
    DefaultClock,
    /// Minimize predicted energy among points that meet the deadline;
    /// if no point does, take the fastest point (least deadline damage).
    MinEnergyUnderDeadline,
    /// Minimize the predicted energy-delay product, ignoring deadlines.
    MinEdp,
}

impl Policy {
    /// All policies, baseline first.
    pub fn all() -> [Policy; 3] {
        [
            Policy::DefaultClock,
            Policy::MinEnergyUnderDeadline,
            Policy::MinEdp,
        ]
    }

    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::DefaultClock => "default-clock",
            Policy::MinEnergyUnderDeadline => "min-energy-under-deadline",
            Policy::MinEdp => "min-edp",
        }
    }

    /// Parses a [`Policy::name`] string.
    pub fn parse(s: &str) -> Option<Policy> {
        Policy::all().into_iter().find(|p| p.name() == s)
    }
}

/// Predicted wall time of a Pareto point, derived from the profile's
/// default-clock anchor (`speedup` is relative to the default clock).
fn predicted_time_s(profile: &PredictedProfile, point: &PredictedPoint) -> f64 {
    profile.default_time_s / point.speedup
}

fn finite(point: &PredictedPoint) -> bool {
    point.speedup.is_finite() && point.norm_energy.is_finite() && point.speedup > 0.0
}

/// Picks the clock a policy requests for one job: `None` means "leave the
/// device at its default clock" (always the answer for
/// [`Policy::DefaultClock`], and the degenerate answer when the predicted
/// front is empty or non-finite).
pub fn choose_frequency(
    policy: Policy,
    profile: &PredictedProfile,
    deadline_s: f64,
) -> Option<f64> {
    let candidates: Vec<&PredictedPoint> = profile.pareto.iter().filter(|p| finite(p)).collect();
    if candidates.is_empty() {
        return None;
    }
    match policy {
        Policy::DefaultClock => None,
        Policy::MinEnergyUnderDeadline => {
            let feasible: Vec<&&PredictedPoint> = candidates
                .iter()
                .filter(|p| predicted_time_s(profile, p) <= deadline_s)
                .collect();
            let pick = if feasible.is_empty() {
                // Nothing meets the deadline: minimize the damage by
                // running as fast as the model believes possible.
                candidates.iter().max_by(|a, b| {
                    a.speedup
                        .total_cmp(&b.speedup)
                        .then(b.norm_energy.total_cmp(&a.norm_energy))
                        .then(a.freq_mhz.total_cmp(&b.freq_mhz))
                })?
            } else {
                feasible.into_iter().min_by(|a, b| {
                    a.norm_energy
                        .total_cmp(&b.norm_energy)
                        .then(b.speedup.total_cmp(&a.speedup))
                        .then(a.freq_mhz.total_cmp(&b.freq_mhz))
                })?
            };
            Some(pick.freq_mhz)
        }
        Policy::MinEdp => {
            // EDP in normalized units: (1/speedup) · norm_energy — the
            // default-clock anchors cancel, so this orders points exactly
            // as absolute energy·delay would.
            let pick = candidates.iter().min_by(|a, b| {
                let edp_a = a.norm_energy / a.speedup;
                let edp_b = b.norm_energy / b.speedup;
                edp_a
                    .total_cmp(&edp_b)
                    .then(b.speedup.total_cmp(&a.speedup))
                    .then(a.freq_mhz.total_cmp(&b.freq_mhz))
            })?;
            Some(pick.freq_mhz)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn point(freq_mhz: f64, speedup: f64, norm_energy: f64) -> PredictedPoint {
        PredictedPoint {
            freq_mhz,
            speedup,
            norm_energy,
        }
    }

    fn profile(pareto: Vec<PredictedPoint>) -> PredictedProfile {
        PredictedProfile {
            default_time_s: 10.0,
            default_energy_j: 100.0,
            default_freq_mhz: 1500.0,
            pareto,
        }
    }

    #[test]
    fn default_clock_never_requests_a_frequency() {
        let p = profile(vec![point(900.0, 0.9, 0.7), point(1500.0, 1.0, 1.0)]);
        assert_eq!(choose_frequency(Policy::DefaultClock, &p, 1.0), None);
    }

    #[test]
    fn min_energy_picks_cheapest_feasible_point() {
        // deadline 12 s: 900 MHz runs in 10/0.9 ≈ 11.1 s (feasible, cheap);
        // 700 MHz runs in 10/0.7 ≈ 14.3 s (infeasible, cheaper).
        let p = profile(vec![
            point(700.0, 0.7, 0.5),
            point(900.0, 0.9, 0.7),
            point(1500.0, 1.0, 1.0),
        ]);
        assert_eq!(
            choose_frequency(Policy::MinEnergyUnderDeadline, &p, 12.0),
            Some(900.0)
        );
    }

    #[test]
    fn min_energy_falls_back_to_fastest_when_nothing_feasible() {
        let p = profile(vec![point(700.0, 0.7, 0.5), point(1200.0, 0.95, 0.8)]);
        assert_eq!(
            choose_frequency(Policy::MinEnergyUnderDeadline, &p, 1.0),
            Some(1200.0)
        );
    }

    #[test]
    fn min_edp_ignores_deadline() {
        // EDP: 700 → 0.5/0.7 ≈ 0.714; 1500 → 1.0. Tight deadline must not
        // change the answer.
        let p = profile(vec![point(700.0, 0.7, 0.5), point(1500.0, 1.0, 1.0)]);
        assert_eq!(choose_frequency(Policy::MinEdp, &p, 0.001), Some(700.0));
    }

    #[test]
    fn empty_or_degenerate_front_yields_no_request() {
        let empty = profile(vec![]);
        let nan = profile(vec![point(900.0, f64::NAN, 0.5)]);
        for policy in Policy::all() {
            assert_eq!(choose_frequency(policy, &empty, 10.0), None);
            assert_eq!(choose_frequency(policy, &nan, 10.0), None);
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in Policy::all() {
            assert_eq!(Policy::parse(policy.name()), Some(policy));
        }
        assert_eq!(Policy::parse("nope"), None);
    }
}
