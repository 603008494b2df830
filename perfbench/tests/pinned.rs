//! Pinned cross-check: at the pinned seed and sizes, the benchmark's own
//! fleet, lifecycle, lattice and gang calls reproduce the headline
//! numbers committed in the repository's BENCH_*.json files exactly — so
//! the workloads drive the same code paths as `figures`.

use std::path::Path;

use energy_model::characterize::{
    LatticeAxes, LatticeCharacterization, LatticePoint, SweepOptions,
};
use energy_model::workflow::{experiment_frequencies, CRONOS_STEPS};
use energy_model::{CronosInput, LigenInput, Workload};
use governor::{choose_gang, GangProfile};
use gpu_sim::DeviceSpec;
use perfbench::env::Env;
use perfbench::trace::Tracer;
use perfbench::workloads::sweep::{gang_sweep, gang_workload, lattice_axes, lattice_sweeps};
use perfbench::workloads::{BenchWorkload, Fleet, Input, Lifecycle, PassOutput, Stages};
use perfbench::{DEFAULT_SEED, REPS};
use serde::Value;

fn committed(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn number(v: &Value, path: &[&str]) -> f64 {
    let mut v = v;
    for key in path {
        v = v.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::Bool(b) => f64::from(u8::from(*b)),
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: {got} vs committed {want}"
    );
}

fn pinned_pass<W: BenchWorkload>(w: &W) -> PassOutput {
    let env = Env::new(DEFAULT_SEED).expect("scratch dir");
    let tracer = Tracer::off();
    let state = w.setup(&env, &tracer).expect("set-up");
    w.pass(&state, &env, &tracer).expect("pass")
}

#[test]
fn fleet_reproduces_bench_fleet() {
    let bench = committed("BENCH_fleet.json");
    let out = pinned_pass(&Fleet { n_jobs: 40 });
    assert_eq!(out.items as f64, number(&bench, &["n_jobs"]));
    for (sim, key) in [
        ("sim_energy_j", "total_energy_j"),
        ("sim_miss_rate", "miss_rate"),
        ("sim_deadline_misses", "deadline_misses"),
        ("sim_fallbacks", "fallbacks"),
        ("sim_jobs_stolen", "jobs_stolen"),
        ("sim_items_rescheduled", "items_rescheduled"),
        ("sim_affinity_fallbacks", "affinity_fallbacks"),
        ("sim_cache_hit_rate", "cache_hit_rate"),
    ] {
        let got = out.sim(sim).expect(sim);
        assert_bits(key, got, number(&bench, &["fleet", key]));
    }
}

#[test]
fn lifecycle_reproduces_bench_lifecycle() {
    let bench = committed("BENCH_lifecycle.json");
    let out = pinned_pass(&Lifecycle { n_jobs: 40 });
    assert_eq!(out.items as f64, number(&bench, &["n_jobs"]));
    for (sim, key) in [
        ("sim_energy_j", "lifecycle_energy_j"),
        ("sim_retrains", "retrains"),
        ("sim_promotes", "promotes"),
        ("sim_rollbacks", "rollbacks"),
        ("sim_lifecycle_fallbacks", "lifecycle_fallbacks"),
        ("sim_promote_at_job", "promote_at_job"),
        ("sim_post_promote_mape", "post_promote_mape"),
    ] {
        let got = out.sim(sim).expect(sim);
        assert_bits(key, got, number(&bench, &[key]));
    }
}

/// Min energy under the deadline, else the fastest point (the figures'
/// and the governor's fallback).
fn pick(ch: &LatticeCharacterization, deadline_s: f64) -> &LatticePoint {
    ch.min_energy_within(deadline_s).unwrap_or_else(|| {
        ch.points
            .iter()
            .min_by(|a, b| a.time_s.total_cmp(&b.time_s))
            .expect("non-empty lattice")
    })
}

fn pinned_opts() -> SweepOptions {
    SweepOptions {
        reps: REPS,
        noise_seed: Some(DEFAULT_SEED),
        ..SweepOptions::default()
    }
}

#[test]
fn lattice_reproduces_bench_lattice() {
    let bench = committed("BENCH_lattice.json");
    let spec = DeviceSpec::v100();
    let slack = number(&bench, &["deadline_slack"]);
    let axes = lattice_axes(&spec, 8);
    let core_axes = LatticeAxes::core_only(axes.core_mhz.clone());
    assert_eq!(
        axes.len() as f64,
        number(&bench, &["lattice_points_per_workload"])
    );
    let inputs = [
        Input::cronos(&CronosInput::new(40, 16, 16)),
        Input::cronos(&CronosInput::new(160, 64, 64)),
        Input::ligen(&LigenInput::new(1024, 63, 8)),
        Input::ligen(&LigenInput::new(10_000, 89, 20)),
    ];
    let workloads: Vec<&dyn Workload> = inputs.iter().map(|i| i.workload.as_ref()).collect();
    let stages = &mut Stages::default();
    let full = lattice_sweeps(&spec, &workloads, &axes, &pinned_opts(), stages);
    let core = lattice_sweeps(&spec, &workloads, &core_axes, &pinned_opts(), stages);

    let (mut baseline, mut lattice, mut core_only) = (0.0, 0.0, 0.0);
    let (mut lattice_misses, mut core_misses) = (0, 0);
    for ((lat, lat_diag), (core_ch, core_diag)) in full.iter().zip(&core) {
        assert!(lat_diag.is_clean() && core_diag.is_clean());
        let deadline = slack * lat.baseline_time_s;
        let (l, c) = (pick(lat, deadline), pick(core_ch, deadline));
        baseline += lat.baseline_energy_j;
        lattice += l.energy_j;
        core_only += c.energy_j;
        lattice_misses += usize::from(l.time_s > deadline);
        core_misses += usize::from(c.time_s > deadline);
    }
    assert_bits(
        "baseline_energy_j",
        baseline,
        number(&bench, &["baseline_energy_j"]),
    );
    assert_bits(
        "lattice_energy_j",
        lattice,
        number(&bench, &["lattice_energy_j"]),
    );
    assert_bits(
        "core_only_energy_j",
        core_only,
        number(&bench, &["core_only_energy_j"]),
    );
    assert_eq!(
        lattice_misses as f64,
        number(&bench, &["lattice_deadline_misses"])
    );
    assert_eq!(
        core_misses as f64,
        number(&bench, &["core_only_deadline_misses"])
    );
}

#[test]
fn gang_reproduces_bench_decomp() {
    let bench = committed("BENCH_decomp.json");
    let spec = DeviceSpec::v100();
    let (workload, axes) = gang_workload(&spec);
    let dist = gang_sweep(&spec, &workload, &axes, Some(DEFAULT_SEED), &Tracer::off());
    assert_eq!(
        dist.points.len() as f64,
        number(&bench, &["surface_points"])
    );

    let deadline = number(&bench, &["deadline_frac"]) * dist.baseline_time_s;
    let fleet_size = *axes.device_counts.iter().max().expect("gang sizes");
    let gang = choose_gang(
        &GangProfile::from_characterization(&dist),
        fleet_size,
        deadline,
    )
    .expect("a gang fits");
    assert_eq!(gang.num_devices as f64, number(&bench, &["gang_devices"]));
    assert_bits(
        "gang_core_mhz",
        gang.core_mhz,
        number(&bench, &["gang_core_mhz"]),
    );
    assert_bits(
        "gang_energy_j",
        gang.energy_j,
        number(&bench, &["gang_energy_j"]),
    );
    let max_share = dist
        .points
        .iter()
        .map(|p| p.exchange_energy_share())
        .fold(0.0f64, f64::max);
    assert_bits(
        "max_halo_energy_share",
        max_share,
        number(&bench, &["max_halo_energy_share"]),
    );

    // The single-device contender: the full lattice on the monolithic run.
    let mono = cronos::GpuCronos::new(cronos::Grid::cubic(192, 64, 64), CRONOS_STEPS);
    let single_axes = lattice_axes(&spec, 16);
    assert_eq!(single_axes.core_mhz, experiment_frequencies(&spec, 16));
    let single = lattice_sweeps(
        &spec,
        &[&mono],
        &single_axes,
        &pinned_opts(),
        &mut Stages::default(),
    );
    let best = pick(&single[0].0, deadline);
    assert_bits(
        "single_energy_j",
        best.energy_j,
        number(&bench, &["single_energy_j"]),
    );
    assert_eq!(
        f64::from(u8::from(best.time_s > deadline)),
        number(&bench, &["single_missed_deadline"])
    );
}
