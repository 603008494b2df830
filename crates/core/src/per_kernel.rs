//! Per-kernel domain-specific modeling and frequency planning — the
//! paper's future work (§7): *"using SYnergy's support for per-kernel
//! frequency scaling, we can use the domain-specific model to select a
//! different frequency configuration for each kernel of the application by
//! focusing on each kernel's input rather than the input for the entire
//! program."*
//!
//! The pipeline: characterize each kernel of the application separately
//! over the frequency sweep ([`characterize_kernels`]), train one
//! time/energy model pair per kernel over the input features
//! ([`PerKernelModel::train_cronos`]), then plan a per-kernel frequency
//! assignment optimizing an energy target under a slowdown bound
//! ([`PerKernelModel::plan`]), which drops straight into a
//! [`synergy::FrequencyPolicy`].

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::noise::NoiseModel;
use gpu_sim::{Device, DeviceSpec, KernelProfile};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use synergy::{FrequencyPolicy, SynergyQueue};

use crate::ds_model::{DomainSpecificModel, DsSample};
use crate::features::CronosInput;

/// One kernel's measured frequency sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCharacterization {
    /// Kernel name (the policy key).
    pub kernel: String,
    /// `(freq_mhz, time_s, energy_j)` per swept frequency, ascending.
    pub points: Vec<(f64, f64, f64)>,
}

/// Sweeps every kernel individually through a SYnergy queue (per-kernel
/// events are exactly what SYnergy's profiling exposes).
///
/// # Panics
/// Panics on an empty kernel or frequency list.
pub fn characterize_kernels(
    spec: &DeviceSpec,
    kernels: &[KernelProfile],
    freqs: &[f64],
    noise_seed: Option<u64>,
) -> Vec<KernelCharacterization> {
    assert!(!kernels.is_empty(), "need at least one kernel");
    assert!(!freqs.is_empty(), "need at least one frequency");
    // One device per kernel, so the per-kernel sweeps are independent and
    // fan out across threads (output stays in kernel order).
    kernels
        .par_iter()
        .map(|k| {
            let dev = match noise_seed {
                Some(s) => Device::with_noise(spec.clone(), NoiseModel::realistic(s)),
                None => Device::new(spec.clone()),
            };
            let mut q = SynergyQueue::for_device(dev);
            let points = freqs
                .iter()
                .map(|&f| {
                    let ev = q.submit_at(k, Some(f));
                    (f, ev.time_s, ev.energy_j)
                })
                .collect();
            KernelCharacterization {
                kernel: k.name.clone(),
                points,
            }
        })
        .collect()
}

/// A set of per-kernel domain-specific model pairs for one application.
#[derive(Debug, Clone)]
pub struct PerKernelModel {
    models: HashMap<String, DomainSpecificModel>,
    default_freq_mhz: f64,
}

impl PerKernelModel {
    /// Trains one model pair per Cronos kernel: for every input grid, every
    /// kernel is swept individually and its `(grid features, freq) →
    /// (time, energy)` samples train that kernel's models.
    pub fn train_cronos(
        spec: &DeviceSpec,
        configs: &[CronosInput],
        freqs: &[f64],
        seed: u64,
    ) -> Self {
        assert!(!configs.is_empty(), "need at least one input configuration");
        let mut samples_by_kernel: HashMap<String, Vec<DsSample>> = HashMap::new();
        for cfg in configs {
            let grid = cronos::Grid::cubic(cfg.grid_x, cfg.grid_y, cfg.grid_z);
            let kernels = cronos::kernelize::substep_kernels(&grid);
            let features = Arc::new(cfg.features());
            for ch in characterize_kernels(spec, &kernels, freqs, None) {
                let entry = samples_by_kernel.entry(ch.kernel.clone()).or_default();
                for (f, t, e) in ch.points {
                    entry.push(DsSample {
                        features: Arc::clone(&features),
                        freq_mhz: f,
                        time_s: t,
                        energy_j: e,
                    });
                }
            }
        }
        let models = samples_by_kernel
            .into_iter()
            .map(|(name, samples)| {
                (
                    name,
                    DomainSpecificModel::train(&samples, spec.default_core_mhz, seed),
                )
            })
            .collect();
        PerKernelModel {
            models,
            default_freq_mhz: spec.default_core_mhz,
        }
    }

    /// Kernel names this model covers.
    pub fn kernels(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Plans a per-kernel frequency assignment for `features`: for each
    /// kernel, the predicted-minimum-energy frequency whose predicted
    /// slowdown vs the default clock stays within `max_slowdown`.
    ///
    /// # Panics
    /// Panics on a negative slowdown bound or empty frequency list.
    pub fn plan(&self, features: &[f64], freqs: &[f64], max_slowdown: f64) -> PerKernelPlan {
        assert!(max_slowdown >= 0.0, "slowdown bound must be ≥ 0");
        assert!(!freqs.is_empty(), "need at least one candidate frequency");
        let mut assignments = Vec::with_capacity(self.models.len());
        for (name, model) in &self.models {
            let (t_def, _) = model.predict_time_energy(features, self.default_freq_mhz);
            let best = freqs
                .iter()
                .map(|&f| {
                    let (t, e) = model.predict_time_energy(features, f);
                    (f, t, e)
                })
                .filter(|(_, t, _)| *t <= t_def * (1.0 + max_slowdown))
                .min_by(|a, b| a.2.total_cmp(&b.2));
            // The default clock always satisfies the bound in the model's
            // own prediction space; fall back to it defensively.
            let freq = best.map(|(f, _, _)| f).unwrap_or(self.default_freq_mhz);
            assignments.push((name.clone(), freq));
        }
        assignments.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic order
        PerKernelPlan { assignments }
    }
}

/// A per-kernel frequency assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerKernelPlan {
    /// `(kernel name, frequency MHz)` pairs, name-sorted.
    pub assignments: Vec<(String, f64)>,
}

impl PerKernelPlan {
    /// Converts into a SYnergy per-kernel policy (unlisted kernels run at
    /// the device default).
    pub fn policy(&self) -> FrequencyPolicy {
        FrequencyPolicy::per_kernel(self.assignments.iter().map(|(k, f)| (k.clone(), *f)), None)
    }

    /// The frequency assigned to `kernel`, if any.
    pub fn frequency_for(&self, kernel: &str) -> Option<f64> {
        self.assignments
            .iter()
            .find(|(k, _)| k == kernel)
            .map(|(_, f)| *f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::experiment_frequencies;
    use cronos::kernelize::names;

    fn setup() -> (DeviceSpec, Vec<f64>) {
        let spec = DeviceSpec::v100();
        let freqs = experiment_frequencies(&spec, 8);
        (spec, freqs)
    }

    #[test]
    fn characterize_kernels_sweeps_each_kernel() {
        let (spec, freqs) = setup();
        let grid = cronos::Grid::cubic(40, 16, 16);
        let kernels = cronos::kernelize::substep_kernels(&grid);
        let chars = characterize_kernels(&spec, &kernels, &freqs, None);
        assert_eq!(chars.len(), 4);
        for ch in &chars {
            assert_eq!(ch.points.len(), freqs.len());
            for (f, t, e) in &ch.points {
                assert!(freqs.contains(f));
                assert!(*t > 0.0 && *e > 0.0);
            }
        }
    }

    #[test]
    fn per_kernel_model_covers_all_kernels() {
        let (spec, freqs) = setup();
        let configs = [
            CronosInput::new(20, 8, 8),
            CronosInput::new(40, 16, 16),
            CronosInput::new(160, 64, 64),
        ];
        let model = PerKernelModel::train_cronos(&spec, &configs, &freqs, 0);
        let mut names: Vec<&str> = model.kernels();
        names.sort_unstable();
        assert_eq!(
            names,
            vec![
                names::APPLY_BOUNDARY,
                names::COMPUTE_CHANGES,
                names::INTEGRATE_TIME,
                names::REDUCE_CFL,
            ]
        );
    }

    #[test]
    fn plan_respects_slowdown_bound_in_truth() {
        let (spec, freqs) = setup();
        let configs = [
            CronosInput::new(20, 8, 8),
            CronosInput::new(40, 16, 16),
            CronosInput::new(160, 64, 64),
        ];
        let model = PerKernelModel::train_cronos(&spec, &configs, &freqs, 0);
        let target = CronosInput::new(160, 64, 64);
        let plan = model.plan(&target.features(), &freqs, 0.05);
        assert_eq!(plan.assignments.len(), 4);

        // Apply the plan and compare against the default run: ≤ ~6 % slower
        // (5 % bound + model error), with real energy savings.
        let workload = cronos::GpuCronos::new(cronos::Grid::cubic(160, 64, 64), 3);
        let mut q_def = SynergyQueue::for_spec(spec.clone());
        let base = workload.run(&mut q_def);
        let mut q = SynergyQueue::for_spec(spec.clone());
        q.set_policy(plan.policy());
        let tuned = workload.run(&mut q);
        assert!(
            tuned.time_s <= base.time_s * 1.07,
            "slowdown {}",
            tuned.time_s / base.time_s
        );
        assert!(
            tuned.energy_j < base.energy_j * 0.90,
            "energy ratio {}",
            tuned.energy_j / base.energy_j
        );
    }

    #[test]
    fn plan_is_heterogeneous_by_kernel_intensity() {
        // The per-kernel plan exploits kernel heterogeneity: the stencil's
        // arithmetic intensity (≈5 cycles/byte) puts its compute crossover
        // near 850 MHz, while the pure-streaming integrate and boundary
        // kernels tolerate the bottom of the sweep — so the plan assigns
        // them *different* clocks, with the stencil highest.
        let (spec, freqs) = setup();
        let configs = [
            CronosInput::new(20, 8, 8),
            CronosInput::new(40, 16, 16),
            CronosInput::new(160, 64, 64),
        ];
        let model = PerKernelModel::train_cronos(&spec, &configs, &freqs, 0);
        let plan = model.plan(&CronosInput::new(160, 64, 64).features(), &freqs, 0.05);
        let stencil = plan.frequency_for(names::COMPUTE_CHANGES).unwrap();
        let integrate = plan.frequency_for(names::INTEGRATE_TIME).unwrap();
        let boundary = plan.frequency_for(names::APPLY_BOUNDARY).unwrap();
        assert!(
            stencil > integrate && stencil > boundary,
            "stencil {stencil} MHz vs integrate {integrate} / boundary {boundary} MHz"
        );
    }

    #[test]
    fn plan_policy_round_trips() {
        let plan = PerKernelPlan {
            assignments: vec![("a".into(), 800.0), ("b".into(), 1200.0)],
        };
        let policy = plan.policy();
        assert_eq!(policy.frequency_for("a"), Some(800.0));
        assert_eq!(policy.frequency_for("b"), Some(1200.0));
        assert_eq!(policy.frequency_for("c"), None);
        assert_eq!(plan.frequency_for("a"), Some(800.0));
        assert_eq!(plan.frequency_for("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "at least one input configuration")]
    fn empty_configs_rejected() {
        let (spec, freqs) = setup();
        let _ = PerKernelModel::train_cronos(&spec, &[], &freqs, 0);
    }
}
