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
//!
//! ## One clock table per served profile
//!
//! A profile is built once per serving-memo miss and decided on once per
//! job, so every decision is answered from a clock table built with the
//! profile. The table keeps the points a policy may pick (finite energy,
//! finite positive speedup) in ascending predicted time
//! `default_time_s / speedup`, with NaN times last whatever their sign.
//! The points that meet a deadline are then exactly a prefix of that
//! order, so the table stores the min-energy point of every prefix, and a
//! decision is one binary search and one lookup. An empty prefix (a NaN
//! deadline, or one below every predicted time) takes the fastest point;
//! the min-EDP point ignores the deadline and is stored once.
//!
//! Each order compares a full `total_cmp` key chain, so points that tie
//! carry the same clock and the same prediction, and the minimum of a set
//! does not depend on the order it is visited in: the table answers
//! exactly what a linear scan of the points does, bit for bit. The tests
//! keep that scan as their oracle.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cmp::Ordering;

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

/// Whether a policy may pick `point` at all.
fn finite(point: &PredictedPoint) -> bool {
    point.speedup.is_finite() && point.norm_energy.is_finite() && point.speedup > 0.0
}

/// Min-energy order, least first: lower energy, then higher speedup,
/// then lower clock.
fn by_energy(a: &PredictedPoint, b: &PredictedPoint) -> Ordering {
    a.norm_energy
        .total_cmp(&b.norm_energy)
        .then(b.speedup.total_cmp(&a.speedup))
        .then(a.freq_mhz.total_cmp(&b.freq_mhz))
}

/// Fallback order, greatest wins: higher speedup, then lower energy, then
/// higher clock.
fn by_speed(a: &PredictedPoint, b: &PredictedPoint) -> Ordering {
    a.speedup
        .total_cmp(&b.speedup)
        .then(b.norm_energy.total_cmp(&a.norm_energy))
        .then(a.freq_mhz.total_cmp(&b.freq_mhz))
}

/// Min-EDP order, least first: lower EDP, then higher speedup, then lower
/// clock. EDP in normalized units is (1/speedup) · norm_energy — the
/// default-clock anchors cancel, so this orders points exactly as
/// absolute energy·delay would.
fn by_edp(a: &PredictedPoint, b: &PredictedPoint) -> Ordering {
    let edp_a = a.norm_energy / a.speedup;
    let edp_b = b.norm_energy / b.speedup;
    edp_a
        .total_cmp(&edp_b)
        .then(b.speedup.total_cmp(&a.speedup))
        .then(a.freq_mhz.total_cmp(&b.freq_mhz))
}

/// A point as a decision reports it: the clock to request and the
/// model's predicted time (`default_time_s / speedup`) and energy
/// (`norm_energy * default_energy_j`) there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClockPoint {
    pub(crate) freq_mhz: f64,
    pub(crate) time_s: f64,
    pub(crate) energy_j: f64,
}

/// Every policy's answer over one profile's Pareto set (see the module
/// docs). It holds copies of the points, not indices into the profile,
/// so a profile whose `pareto` was edited after it was built gets a stale
/// answer, never an out-of-bounds one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClockTable {
    /// Predicted times of the points a policy may pick, ascending, NaN
    /// last.
    times_s: Vec<f64>,
    /// `cheapest[k]`: the min-energy point among the first `k + 1` of
    /// `times_s`.
    cheapest: Vec<ClockPoint>,
    /// The fastest point: the pick when no point meets the deadline.
    fastest: Option<ClockPoint>,
    /// The min-EDP point.
    min_edp: Option<ClockPoint>,
}

impl ClockTable {
    /// Builds the table over `pareto`, anchored at the profile's
    /// default-clock time and energy.
    pub(crate) fn new(
        default_time_s: f64,
        default_energy_j: f64,
        pareto: &[PredictedPoint],
    ) -> Self {
        let mut usable: Vec<(f64, &PredictedPoint)> = pareto
            .iter()
            .filter(|p| finite(p))
            .map(|p| (default_time_s / p.speedup, p))
            .collect();
        // `total_cmp` alone would put a negative NaN first; a NaN time
        // meets no deadline, so it must sort after every number for the
        // met times to stay a prefix.
        usable.sort_by(|(a, _), (b, _)| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
        let report = |&(time_s, p): &(f64, &PredictedPoint)| ClockPoint {
            freq_mhz: p.freq_mhz,
            time_s,
            energy_j: p.norm_energy * default_energy_j,
        };
        let mut best: Option<(f64, &PredictedPoint)> = None;
        let cheapest = usable
            .iter()
            .map(|&entry| {
                let pick = match best {
                    Some(kept) if by_energy(kept.1, entry.1).is_le() => kept,
                    _ => entry,
                };
                best = Some(pick);
                report(&pick)
            })
            .collect();
        ClockTable {
            times_s: usable.iter().map(|&(time_s, _)| time_s).collect(),
            cheapest,
            fastest: usable.iter().max_by(|a, b| by_speed(a.1, b.1)).map(report),
            min_edp: usable.iter().min_by(|a, b| by_edp(a.1, b.1)).map(report),
        }
    }

    /// The point `policy` picks against `deadline_s`: `None` for
    /// [`Policy::DefaultClock`], and when no point may be picked.
    pub(crate) fn choose(&self, policy: Policy, deadline_s: f64) -> Option<ClockPoint> {
        match policy {
            Policy::DefaultClock => None,
            Policy::MinEnergyUnderDeadline => {
                let met = self.times_s.partition_point(|&t| t <= deadline_s);
                // Nothing meets the deadline: minimize the damage by
                // running as fast as the model believes possible.
                met.checked_sub(1)
                    .and_then(|last| self.cheapest.get(last).copied())
                    .or(self.fastest)
            }
            Policy::MinEdp => self.min_edp,
        }
    }
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
    profile
        .clocks
        .choose(policy, deadline_s)
        .map(|clock| clock.freq_mhz)
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// The oracle: the linear scan of the Pareto set that every decision
    /// ran before the clock table.
    pub(crate) fn scan_frequency(
        policy: Policy,
        profile: &PredictedProfile,
        deadline_s: f64,
    ) -> Option<f64> {
        let candidates: Vec<&PredictedPoint> = profile
            .pareto
            .iter()
            .filter(|p| p.speedup.is_finite() && p.norm_energy.is_finite() && p.speedup > 0.0)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match policy {
            Policy::DefaultClock => None,
            Policy::MinEnergyUnderDeadline => {
                let feasible: Vec<&&PredictedPoint> = candidates
                    .iter()
                    .filter(|p| profile.default_time_s / p.speedup <= deadline_s)
                    .collect();
                let pick = if feasible.is_empty() {
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

    fn point(freq_mhz: f64, speedup: f64, norm_energy: f64) -> PredictedPoint {
        PredictedPoint {
            freq_mhz,
            speedup,
            norm_energy,
        }
    }

    fn profile_timed(default_time_s: f64, pareto: Vec<PredictedPoint>) -> PredictedProfile {
        PredictedProfile::new(default_time_s, 100.0, 1500.0, pareto)
    }

    fn profile(pareto: Vec<PredictedPoint>) -> PredictedProfile {
        profile_timed(10.0, pareto)
    }

    /// At a 10 s default time: 700 MHz is the cheapest point (14.3 s),
    /// 900 MHz the middle one (11.1 s), 1500 MHz the fastest (10 s).
    fn front() -> Vec<PredictedPoint> {
        vec![
            point(700.0, 0.7, 0.5),
            point(900.0, 0.9, 0.7),
            point(1500.0, 1.0, 1.0),
        ]
    }

    /// Asserts `policy`'s pick over `points`, in their given order and
    /// reversed: which point wins must not depend on where it sits.
    fn assert_picks(policy: Policy, points: &[PredictedPoint], deadline_s: f64, want: f64) {
        let reversed: Vec<PredictedPoint> = points.iter().rev().copied().collect();
        for pareto in [points.to_vec(), reversed] {
            assert_eq!(
                choose_frequency(policy, &profile(pareto), deadline_s),
                Some(want),
                "{policy:?} at {deadline_s} over {points:?}"
            );
        }
    }

    const MIN_ENERGY: Policy = Policy::MinEnergyUnderDeadline;

    #[test]
    fn a_deadline_equal_to_a_points_time_is_met() {
        let t900 = 10.0 / 0.9;
        assert_picks(MIN_ENERGY, &front(), t900, 900.0);
        assert_picks(MIN_ENERGY, &front(), t900.next_down(), 1500.0);
        // Signed zeros are equal: zero times meet a -0.0 deadline, and
        // -0.0 times a zero one.
        for (default_time_s, deadline_s) in [(0.0, -0.0), (-0.0, 0.0)] {
            let p = profile_timed(default_time_s, front());
            assert_eq!(choose_frequency(MIN_ENERGY, &p, deadline_s), Some(700.0));
        }
    }

    #[test]
    fn a_nan_deadline_or_one_below_every_point_takes_the_fastest() {
        for deadline_s in [f64::NAN, -f64::NAN, 9.99, 0.0, f64::NEG_INFINITY] {
            assert_picks(MIN_ENERGY, &front(), deadline_s, 1500.0);
        }
    }

    #[test]
    fn an_infinite_deadline_takes_the_cheapest_point() {
        assert_picks(MIN_ENERGY, &front(), f64::INFINITY, 700.0);
    }

    #[test]
    fn energy_ties_go_to_the_higher_speedup_then_the_lower_clock() {
        let by_speedup = [
            point(800.0, 0.8, 0.6),
            point(900.0, 0.9, 0.6),
            point(1500.0, 1.0, 1.0),
        ];
        assert_picks(MIN_ENERGY, &by_speedup, f64::INFINITY, 900.0);
        let by_clock = [point(900.0, 0.9, 0.6), point(950.0, 0.9, 0.6)];
        assert_picks(MIN_ENERGY, &by_clock, f64::INFINITY, 900.0);
    }

    #[test]
    fn fallback_speedup_ties_go_to_the_lower_energy_then_the_higher_clock() {
        let by_energy = [
            point(700.0, 0.7, 0.5),
            point(1400.0, 1.0, 0.8),
            point(1500.0, 1.0, 0.9),
        ];
        assert_picks(MIN_ENERGY, &by_energy, 1.0, 1400.0);
        let by_clock = [point(1400.0, 1.0, 0.8), point(1500.0, 1.0, 0.8)];
        assert_picks(MIN_ENERGY, &by_clock, 1.0, 1500.0);
    }

    #[test]
    fn min_edp_ties_go_to_the_higher_speedup_then_the_lower_clock() {
        // EDP 0.5/0.5 = 1.0/1.0 = 1; 0.9/0.8 = 1.125 loses.
        let by_speedup = [
            point(700.0, 0.5, 0.5),
            point(1000.0, 0.8, 0.9),
            point(1500.0, 1.0, 1.0),
        ];
        assert_picks(Policy::MinEdp, &by_speedup, 1.0, 1500.0);
        let by_clock = [point(1400.0, 1.0, 1.0), point(1500.0, 1.0, 1.0)];
        assert_picks(Policy::MinEdp, &by_clock, 1.0, 1400.0);
    }

    #[test]
    fn points_with_unusable_speedup_or_energy_are_never_picked() {
        // Each unusable point would win some policy on its raw numbers:
        // a lower energy, a higher speedup, or a time that meets any
        // deadline.
        let mut points: Vec<PredictedPoint> = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -2.0,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, speedup)| point(100.0 + i as f64, speedup, 0.1))
        .collect();
        for (i, norm_energy) in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            points.push(point(2000.0 + i as f64, 2.0, norm_energy));
        }
        points.push(point(1000.0, 0.8, 0.9));
        for deadline_s in [f64::INFINITY, 0.0] {
            assert_picks(MIN_ENERGY, &points, deadline_s, 1000.0);
        }
        assert_picks(Policy::MinEdp, &points, 1.0, 1000.0);
    }

    #[test]
    fn a_nan_default_time_leaves_every_point_infeasible() {
        for default_time_s in [f64::NAN, -f64::NAN] {
            let p = profile_timed(default_time_s, front());
            assert_eq!(
                choose_frequency(MIN_ENERGY, &p, f64::INFINITY),
                Some(1500.0)
            );
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
