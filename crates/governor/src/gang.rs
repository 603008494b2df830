//! Gang placement: scheduling one domain-decomposed job onto a *set* of
//! fleet devices.
//!
//! A decomposed Cronos run is an all-or-nothing reservation — every slab's
//! device must run in lockstep, so the job needs `num_devices` devices for
//! its whole duration. This module answers the two questions the governor
//! faces when such a job arrives:
//!
//! 1. **Which gang?** [`choose_gang`] picks the energy-optimal
//!    `(device count, core clock)` point from a strong-scaling
//!    [`GangProfile`] under a per-job deadline — the gang counterpart of
//!    [`crate::policy::choose_frequency`], with the same deterministic
//!    `total_cmp` discipline but a body of its own: points must fit the
//!    fleet, and equal-objective points break toward fewer devices before
//!    a lower clock. Shrinking subdomains buy makespan
//!    but pay halo-exchange and barrier energy, so under a loose deadline
//!    the answer is a small gang at a cheap clock, and under a tight one a
//!    bigger gang at whatever clock still makes the date.
//! 2. **Which devices?** [`reserve_gang`] maps the chosen gang size onto
//!    concrete fleet devices: the `k` earliest-available devices are
//!    reserved together, and the gang starts when the *last* of them
//!    frees — the lockstep start is what distinguishes a gang from `k`
//!    independent placements.
//!
//! Profiles come from measurement
//! ([`GangProfile::from_characterization`] over
//! [`energy_model::DistributedCharacterization`]), normalized against the
//! 1-device default-clock anchor.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use energy_model::DistributedCharacterization;
use serde::{Deserialize, Serialize};

/// One strong-scaling operating point: a gang size and a uniform core
/// clock, normalized against the 1-device default-clock anchor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GangPoint {
    /// Devices in the gang.
    pub num_devices: usize,
    /// Core clock every gang member runs at (MHz).
    pub core_mhz: f64,
    /// `anchor_time / time` — above 1 when the gang beats one device.
    pub speedup: f64,
    /// `energy / anchor_energy` — gang total, halo and barrier included.
    pub norm_energy: f64,
}

/// A strong-scaling profile: the 1-device default-clock anchor plus the
/// measured or predicted gang points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GangProfile {
    /// Anchor makespan: one device at the default configuration (s).
    pub default_time_s: f64,
    /// Anchor energy of the same run (J).
    pub default_energy_j: f64,
    /// Gang operating points.
    pub points: Vec<GangPoint>,
}

impl GangProfile {
    /// Builds a profile from a measured strong-scaling characterization.
    pub fn from_characterization(c: &DistributedCharacterization) -> Self {
        GangProfile {
            default_time_s: c.baseline_time_s,
            default_energy_j: c.baseline_energy_j,
            points: c
                .points
                .iter()
                .map(|p| GangPoint {
                    num_devices: p.num_devices,
                    core_mhz: p.core_mhz,
                    speedup: p.speedup,
                    norm_energy: p.norm_energy,
                })
                .collect(),
        }
    }

    /// Predicted makespan of a point (s).
    pub fn time_s(&self, p: &GangPoint) -> f64 {
        self.default_time_s / p.speedup
    }

    /// Predicted gang energy of a point (J).
    pub fn energy_j(&self, p: &GangPoint) -> f64 {
        p.norm_energy * self.default_energy_j
    }
}

/// The gang the governor decided to run: size, clock, and the predicted
/// absolute cost of the choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GangChoice {
    /// Devices to reserve.
    pub num_devices: usize,
    /// Core clock to pin on every member (MHz).
    pub core_mhz: f64,
    /// Predicted makespan (s).
    pub time_s: f64,
    /// Predicted gang energy (J).
    pub energy_j: f64,
}

/// Tie-break ordering over gang points: fewer devices first (a smaller
/// reservation blocks less of the fleet), then ascending clock — a total
/// order so equal-objective points resolve identically on every run.
fn gang_order(a: &GangPoint, b: &GangPoint) -> std::cmp::Ordering {
    a.num_devices
        .cmp(&b.num_devices)
        .then(a.core_mhz.total_cmp(&b.core_mhz))
}

fn finite_gang(p: &GangPoint) -> bool {
    p.num_devices >= 1 && p.speedup.is_finite() && p.norm_energy.is_finite() && p.speedup > 0.0
}

/// Picks the energy-optimal gang under a deadline: among points that fit
/// the fleet (`num_devices <= fleet_size`) and whose predicted makespan
/// meets `deadline_s`, minimize predicted energy; if nothing is feasible,
/// minimize the damage by running as fast as the profile believes
/// possible. `None` only when no point fits the fleet or none is finite.
pub fn choose_gang(
    profile: &GangProfile,
    fleet_size: usize,
    deadline_s: f64,
) -> Option<GangChoice> {
    let candidates: Vec<&GangPoint> = profile
        .points
        .iter()
        .filter(|p| finite_gang(p) && p.num_devices <= fleet_size)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let feasible: Vec<&&GangPoint> = candidates
        .iter()
        .filter(|p| profile.time_s(p) <= deadline_s)
        .collect();
    let pick = if feasible.is_empty() {
        candidates.iter().max_by(|a, b| {
            a.speedup
                .total_cmp(&b.speedup)
                .then(b.norm_energy.total_cmp(&a.norm_energy))
                .then(gang_order(b, a))
        })?
    } else {
        feasible.into_iter().min_by(|a, b| {
            a.norm_energy
                .total_cmp(&b.norm_energy)
                .then(b.speedup.total_cmp(&a.speedup))
                .then(gang_order(a, b))
        })?
    };
    Some(GangChoice {
        num_devices: pick.num_devices,
        core_mhz: pick.core_mhz,
        time_s: profile.time_s(pick),
        energy_j: profile.energy_j(pick),
    })
}

/// A placed gang: the reserved device indices and the lockstep window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GangReservation {
    /// Reserved device indices, ascending.
    pub devices: Vec<usize>,
    /// When the gang starts: the moment its *last* member frees.
    pub start_s: f64,
    /// `start_s + duration_s` — the new `busy_until` of every member.
    pub end_s: f64,
}

/// Reserves the `num_devices` earliest-available devices for a lockstep
/// window of `duration_s`, advancing their `busy_until` entries. Ties on
/// availability break by device index, so placement is deterministic.
/// Returns `None` when the request is empty or exceeds the fleet.
pub fn reserve_gang(
    busy_until: &mut [f64],
    num_devices: usize,
    duration_s: f64,
) -> Option<GangReservation> {
    if num_devices == 0 || num_devices > busy_until.len() {
        return None;
    }
    let mut order: Vec<usize> = (0..busy_until.len()).collect();
    order.sort_by(|&a, &b| busy_until[a].total_cmp(&busy_until[b]).then(a.cmp(&b)));
    let mut devices: Vec<usize> = order.into_iter().take(num_devices).collect();
    devices.sort_unstable();
    // The gang is lockstep: it starts when its slowest-to-free member
    // does, and every member is held until the common end.
    let start_s = devices
        .iter()
        .map(|&d| busy_until[d])
        .fold(f64::NEG_INFINITY, f64::max);
    let end_s = start_s + duration_s;
    for &d in &devices {
        busy_until[d] = end_s;
    }
    Some(GangReservation {
        devices,
        start_s,
        end_s,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn gp(num_devices: usize, core_mhz: f64, speedup: f64, norm_energy: f64) -> GangPoint {
        GangPoint {
            num_devices,
            core_mhz,
            speedup,
            norm_energy,
        }
    }

    fn profile(points: Vec<GangPoint>) -> GangProfile {
        GangProfile {
            default_time_s: 10.0,
            default_energy_j: 100.0,
            points,
        }
    }

    #[test]
    fn deadline_pressure_prefers_a_bigger_gang_at_a_cheap_clock() {
        // Deadline 9 s. One device must up-clock to make it (expensive);
        // two devices make it at a cheap clock with halo overhead priced
        // in — and still save energy.
        let p = profile(vec![
            gp(1, 1380.0, 1.05, 1.15),
            gp(1, 900.0, 0.85, 0.88),  // cheapest, but misses the deadline
            gp(2, 900.0, 1.45, 0.95),  // feasible and cheaper than 1@1380
            gp(2, 1380.0, 1.80, 1.25), // feasible, faster, dearer
        ]);
        let c = choose_gang(&p, 4, 9.0).unwrap();
        assert_eq!((c.num_devices, c.core_mhz), (2, 900.0));
        assert!((c.energy_j - 95.0).abs() < 1e-9);
        assert!(c.time_s <= 9.0);
    }

    #[test]
    fn loose_deadline_prefers_the_smallest_cheapest_gang() {
        let p = profile(vec![
            gp(1, 900.0, 0.85, 0.88),
            gp(2, 900.0, 1.45, 0.95),
            gp(4, 900.0, 2.40, 1.10),
        ]);
        let c = choose_gang(&p, 4, 100.0).unwrap();
        assert_eq!((c.num_devices, c.core_mhz), (1, 900.0));
    }

    #[test]
    fn nothing_feasible_falls_back_to_the_fastest_gang() {
        let p = profile(vec![gp(1, 1380.0, 1.05, 1.15), gp(4, 1380.0, 3.1, 1.4)]);
        let c = choose_gang(&p, 4, 0.001).unwrap();
        assert_eq!(c.num_devices, 4);
    }

    #[test]
    fn fleet_size_caps_the_gang() {
        let p = profile(vec![gp(2, 900.0, 1.45, 0.95), gp(8, 900.0, 4.0, 1.3)]);
        // An 8-gang would be fastest, but only 4 devices exist.
        let c = choose_gang(&p, 4, 0.001).unwrap();
        assert_eq!(c.num_devices, 2);
        assert_eq!(choose_gang(&p, 1, 10.0), None);
    }

    #[test]
    fn degenerate_points_yield_no_choice() {
        assert_eq!(choose_gang(&profile(vec![]), 4, 10.0), None);
        let nan = profile(vec![gp(2, 900.0, f64::NAN, 0.9)]);
        assert_eq!(choose_gang(&nan, 4, 10.0), None);
    }

    #[test]
    fn equal_objective_gangs_tie_break_deterministically() {
        let a = gp(2, 900.0, 1.45, 0.95);
        let b = gp(4, 1100.0, 1.45, 0.95);
        let p1 = profile(vec![a, b]);
        let p2 = profile(vec![b, a]);
        let c1 = choose_gang(&p1, 8, 100.0).unwrap();
        let c2 = choose_gang(&p2, 8, 100.0).unwrap();
        assert_eq!(c1, c2);
        // Fewer devices wins the tie: a smaller reservation blocks less
        // of the fleet.
        assert_eq!(c1.num_devices, 2);
    }

    #[test]
    fn reservation_takes_the_earliest_free_devices_and_locksteps_the_start() {
        let mut busy = vec![5.0, 1.0, 3.0, 9.0];
        let r = reserve_gang(&mut busy, 2, 4.0).unwrap();
        // Devices 1 (free at 1) and 2 (free at 3): the gang starts when
        // the later of them frees.
        assert_eq!(r.devices, vec![1, 2]);
        assert_eq!(r.start_s, 3.0);
        assert_eq!(r.end_s, 7.0);
        assert_eq!(busy, vec![5.0, 7.0, 7.0, 9.0]);
    }

    #[test]
    fn sequential_reservations_stack_deterministically() {
        let mut busy = vec![0.0; 3];
        let r1 = reserve_gang(&mut busy, 2, 2.0).unwrap();
        assert_eq!(r1.devices, vec![0, 1]);
        assert_eq!((r1.start_s, r1.end_s), (0.0, 2.0));
        // Next 2-gang: device 2 (free now) + the earlier-indexed of the
        // two busy ones; lockstep start at 2.0.
        let r2 = reserve_gang(&mut busy, 2, 2.0).unwrap();
        assert_eq!(r2.devices, vec![0, 2]);
        assert_eq!((r2.start_s, r2.end_s), (2.0, 4.0));
        assert_eq!(busy, vec![4.0, 2.0, 4.0]);
    }

    #[test]
    fn oversized_or_empty_reservations_are_refused() {
        let mut busy = vec![0.0; 2];
        assert_eq!(reserve_gang(&mut busy, 0, 1.0), None);
        assert_eq!(reserve_gang(&mut busy, 3, 1.0), None);
        assert_eq!(busy, vec![0.0, 0.0], "a refused reservation is a no-op");
    }

    #[test]
    fn profile_from_characterization_maps_the_anchor_and_points() {
        use energy_model::{DistributedCharacterization, DistributedPoint};
        let c = DistributedCharacterization {
            device: "Tesla V100".into(),
            workload: "cronos-dist".into(),
            baseline_time_s: 10.0,
            baseline_energy_j: 100.0,
            points: vec![DistributedPoint {
                num_devices: 2,
                core_mhz: 900.0,
                time_s: 6.0,
                energy_j: 95.0,
                speedup: 10.0 / 6.0,
                norm_energy: 0.95,
                exchange_time_s: 0.5,
                exchange_energy_j: 5.0,
                barrier_wait_s: 0.1,
                halo_bytes: 1 << 20,
            }],
        };
        let p = GangProfile::from_characterization(&c);
        assert_eq!(p.default_time_s, 10.0);
        assert_eq!(p.points.len(), 1);
        let pt = &p.points[0];
        assert_eq!((pt.num_devices, pt.core_mhz), (2, 900.0));
        assert!((p.time_s(pt) - 6.0).abs() < 1e-12);
        assert!((p.energy_j(pt) - 95.0).abs() < 1e-12);
    }
}
