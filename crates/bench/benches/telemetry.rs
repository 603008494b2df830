//! Telemetry overhead guard: the metrics registry and point-level span
//! tracing must stay marginal on the hot trace-replay sweep path. Arming
//! a sweep may cost at most [`OVERHEAD_MAX_PCT`] percent, and an armed
//! sweep must be bit-identical to a disarmed one. Run with
//! `cargo bench -p bench --bench telemetry`.

use std::sync::Arc;
use std::time::Instant;

use energy_model::characterize::{characterize_with_options, SweepOptions};
use energy_model::telemetry::Telemetry;
use gpu_sim::DeviceSpec;

/// Budget for the armed sweep's cost over the disarmed one, in percent.
const OVERHEAD_MAX_PCT: f64 = 10.0;

/// Paired rounds; each round times the disarmed side, then the armed one.
const ROUNDS: usize = 16;

/// Back-to-back sweeps timed as one round of the overhead guard. One
/// sweep of the guard's shape takes ~3 ms on a 2-vCPU Xeon VM, so a round
/// lasts ~30 ms there: a scheduler hiccup is diluted across the round
/// instead of deciding a single-sweep reading.
const SWEEPS_PER_ROUND: usize = 10;

fn sweep_opts(telemetry: Option<Arc<Telemetry>>) -> SweepOptions {
    SweepOptions {
        reps: 5,
        noise_seed: Some(7),
        telemetry,
        ..SweepOptions::default()
    }
}

fn main() {
    // A full-resolution frequency list with five-rep noisy medians, so
    // per-sweep fixed costs don't masquerade as per-point overhead the
    // way they would on a toy sweep.
    let spec = DeviceSpec::v100();
    let freqs = energy_model::workflow::experiment_frequencies(&spec, 1);
    let w = cronos::GpuCronos::new(cronos::Grid::cubic(40, 16, 16), 2);

    // Warm both paths (thread pool, allocator, price tables).
    let _ = characterize_with_options(&spec, &w, &freqs, &sweep_opts(None));
    let _ = characterize_with_options(&spec, &w, &freqs, &sweep_opts(Some(Telemetry::new())));

    // The median of paired per-round ratios: the two halves of a round run
    // back to back, so a slow phase of a shared host lifts both and
    // cancels in their ratio, and one preempted round moves the median by
    // at most one rank.
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let plain: Vec<_> = (0..SWEEPS_PER_ROUND)
            .map(|_| characterize_with_options(&spec, &w, &freqs, &sweep_opts(None)).0)
            .collect();
        let disarmed_s = t0.elapsed().as_secs_f64();

        let sinks: Vec<_> = (0..SWEEPS_PER_ROUND).map(|_| Telemetry::new()).collect();
        let t1 = Instant::now();
        let armed: Vec<_> = sinks
            .into_iter()
            .map(|tel| characterize_with_options(&spec, &w, &freqs, &sweep_opts(Some(tel))).0)
            .collect();
        let armed_s = t1.elapsed().as_secs_f64();

        for (plain, armed) in plain.iter().zip(&armed) {
            assert_eq!(plain, armed, "armed sweep diverged from disarmed");
        }
        ratios.push(armed_s / disarmed_s);
    }
    ratios.sort_by(f64::total_cmp);
    let median = (ratios[ROUNDS / 2 - 1] + ratios[ROUNDS / 2]) / 2.0;
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let overhead_pct = pct(median);
    println!(
        "telemetry overhead: armed/disarmed per round of {SWEEPS_PER_ROUND} sweeps over \
         {ROUNDS} rounds: min {:+.2} %, median {overhead_pct:+.2} %, max {:+.2} % \
         (budget {OVERHEAD_MAX_PCT} %)",
        pct(ratios[0]),
        pct(ratios[ROUNDS - 1]),
    );
    assert!(
        overhead_pct <= OVERHEAD_MAX_PCT,
        "armed telemetry costs {overhead_pct:.2} % (budget {OVERHEAD_MAX_PCT} %)"
    );
}
