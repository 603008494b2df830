//! Kernel-pricing memoization.
//!
//! Frequency sweeps re-run the *same* handful of kernels at the *same*
//! handful of clocks thousands of times (a characterization run prices a
//! four-kernel MHD period at ~200 frequencies × 5 repetitions). The cost
//! model ([`crate::timing::kernel_timing`] + [`crate::power::kernel_energy`])
//! is pure: for a fixed device spec, `(kernel, core clock, memory clock)`
//! fully determines the noiseless `(time, energy)` of a launch. A
//! [`PriceTable`] caches exactly that mapping so a sweep pays for the model
//! once per distinct `(kernel, frequency)` pair. After that a replayed
//! trace costs one hash lookup per distinct kernel per replay.
//!
//! ## Key and correctness
//!
//! Entries are keyed by `(kernel-id, freq-bits, cap-bits)`:
//!
//! * the *kernel id* is an FNV-1a hash over the kernel's complete pricing
//!   inputs (name, work items, op mix, ILP efficiency);
//! * the *freq bits* are the raw IEEE-754 bits of the **requested** core and
//!   memory clocks — snapping to a supported frequency is itself
//!   deterministic, so it can happen lazily inside the priced computation
//!   and only on a cache miss (a binary search over the frequency table,
//!   cheap next to the cost model it feeds, but still work a hit skips);
//! * the *cap bits* are the operator power cap's bits (`u64::MAX` for "no
//!   cap"), since a binding cap throttles the effective clock and changes
//!   the price of the very same requested clocks.
//!
//! A 64-bit hash can collide in principle, so every entry stores the full
//! [`KernelProfile`] it was priced for and a hit is only served after an
//! exact equality check. Colliding profiles live in a per-key overflow
//! chain (a short `Vec`, verified entry by entry), so a collision costs
//! one extra equality compare per lookup — it never disables memoization
//! for the colliding kernel. Cached values are therefore *bit-identical*
//! to what the uncached path would produce — the property the
//! trace-replay sweep engine relies on.
//!
//! Lookup traffic is counted ([`PriceTable::stats`]): hits, misses, and
//! chain collisions, cheap relaxed atomics on the hot path, so sweeps can
//! surface cache effectiveness through the telemetry registry.
//!
//! The table is internally synchronized (`RwLock`) and meant to be shared
//! across devices via `Arc`: a parallel sweep hands one table to every
//! per-frequency replica so each `(kernel, frequency)` pair in the whole
//! sweep is priced exactly once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::kernel::KernelProfile;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Stable 64-bit identity of a kernel's pricing inputs (FNV-1a over
/// 64-bit words — this runs once per `price()` call, i.e. once per
/// distinct kernel of a replayed trace, so the hash walks words, not
/// bytes).
///
/// Two kernels with equal [`KernelProfile`]s always hash equal; unequal
/// profiles hash unequal up to 64-bit collisions, which [`PriceTable`]
/// guards against with a full equality check.
pub fn kernel_cache_id(kernel: &KernelProfile) -> u64 {
    let mut h = FNV_OFFSET;
    let bytes = kernel.name.as_bytes();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = fnv_word(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = fnv_word(h, u64::from_le_bytes(last));
    }
    // Name length doubles as the separator word: names that differ only in
    // trailing zero padding, and field boundaries, cannot alias.
    h = fnv_word(h, bytes.len() as u64 ^ 0xff00_0000_0000_0000);
    h = fnv_word(h, kernel.work_items);
    for v in kernel.mix.as_feature_vector() {
        h = fnv_word(h, v.to_bits());
    }
    h = fnv_word(h, kernel.ilp_efficiency.to_bits());
    h
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct PriceKey {
    kernel_id: u64,
    core_bits: u64,
    mem_bits: u64,
    /// Operator power cap bits; `u64::MAX` (a NaN pattern no real cap can
    /// produce) encodes "no cap", so capped and uncapped prices of the same
    /// clocks never alias.
    cap_bits: u64,
}

#[inline]
fn cap_bits(cap_w: Option<f64>) -> u64 {
    match cap_w {
        Some(c) => c.to_bits(),
        None => u64::MAX,
    }
}

/// Map hasher for [`PriceKey`]: the key's first field is already a 64-bit
/// FNV digest and the clock bits are near-constant across a sweep, so an
/// FNV fold of the three words is both cheap (three multiply-xors on the
/// hot lookup path) and well distributed — SipHash would only add cost.
struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(FNV_OFFSET)
    }
}

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = fnv_word(self.0, *b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = fnv_word(self.0, n);
    }
}

struct PriceEntry {
    /// Full profile for collision-proof verification of hits.
    profile: KernelProfile,
    time_s: f64,
    energy_j: f64,
}

/// Lookup counters of a [`PriceTable`] — how effective the memo cache was
/// over its lifetime. Counters are cumulative across [`PriceTable::clear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PriceTableStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the cost model (first sight of the key, or
    /// first sight of a colliding profile under an occupied key).
    pub misses: u64,
    /// Entries chained behind another profile with the same 64-bit kernel
    /// id — each one is a real `kernel_cache_id` collision.
    pub collisions: u64,
}

/// A shareable, internally synchronized memo cache of noiseless launch
/// prices, keyed by `(kernel-id, freq-bits)`. See the module docs.
#[derive(Default)]
pub struct PriceTable {
    entries: RwLock<HashMap<PriceKey, Vec<PriceEntry>, std::hash::BuildHasherDefault<KeyHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl PriceTable {
    /// An empty table.
    pub fn new() -> Self {
        PriceTable::default()
    }

    /// Number of cached `(kernel, frequency)` prices, chained collision
    /// entries included.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("price table poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True when nothing has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached prices. Lifetime lookup counters survive.
    pub fn clear(&self) {
        self.entries.write().expect("price table poisoned").clear();
    }

    /// Lifetime lookup counters (relaxed reads; exact once concurrent
    /// pricing has quiesced).
    pub fn stats(&self) -> PriceTableStats {
        PriceTableStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached price for `(kernel, core_mhz, mem_mhz, cap_w)`,
    /// or computes it with `compute` and caches it. A kernel-id collision
    /// (two unequal profiles hashing to the same 64-bit id) lands the new
    /// profile in the key's overflow chain: lookups verify by equality
    /// over the chain, so a collision can never serve wrong numbers *and*
    /// never disables memoization for either kernel.
    pub fn price_or_insert_with(
        &self,
        kernel: &KernelProfile,
        core_mhz: f64,
        mem_mhz: f64,
        cap_w: Option<f64>,
        compute: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        self.price_with_id(
            kernel_cache_id(kernel),
            kernel,
            core_mhz,
            mem_mhz,
            cap_w,
            compute,
        )
    }

    /// [`Self::price_or_insert_with`] with the kernel id supplied by the
    /// caller. Internal seam: 64-bit FNV collisions cannot be constructed
    /// on demand, so the collision-chain tests force one by pinning the id.
    fn price_with_id(
        &self,
        kernel_id: u64,
        kernel: &KernelProfile,
        core_mhz: f64,
        mem_mhz: f64,
        cap_w: Option<f64>,
        compute: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        let key = PriceKey {
            kernel_id,
            core_bits: core_mhz.to_bits(),
            mem_bits: mem_mhz.to_bits(),
            cap_bits: cap_bits(cap_w),
        };
        if let Some(chain) = self.entries.read().expect("price table poisoned").get(&key) {
            if let Some(entry) = chain.iter().find(|e| e.profile == *kernel) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (entry.time_s, entry.energy_j);
            }
        }
        let (time_s, energy_j) = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.entries.write().expect("price table poisoned");
        let chain = map.entry(key).or_default();
        // Re-check under the write lock: a racing thread may have priced
        // the same profile between our read probe and here. The model is
        // pure, so serving its entry is bit-identical to serving ours.
        if let Some(entry) = chain.iter().find(|e| e.profile == *kernel) {
            return (entry.time_s, entry.energy_j);
        }
        if !chain.is_empty() {
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        chain.push(PriceEntry {
            profile: kernel.clone(),
            time_s,
            energy_j,
        });
        (time_s, energy_j)
    }
}

impl std::fmt::Debug for PriceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriceTable")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::OpMix;

    fn k(name: &str, items: u64) -> KernelProfile {
        KernelProfile::new(
            name,
            items,
            OpMix {
                float_add: 10.0,
                global_access: 4.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn second_lookup_is_cached() {
        let table = PriceTable::new();
        let kernel = k("a", 1000);
        let mut calls = 0;
        let first = table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || {
            calls += 1;
            (1.0, 2.0)
        });
        let second = table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || {
            calls += 1;
            (99.0, 99.0)
        });
        assert_eq!(calls, 1, "second lookup must hit the cache");
        assert_eq!(first, second);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn distinct_kernels_and_freqs_get_distinct_entries() {
        let table = PriceTable::new();
        table.price_or_insert_with(&k("a", 1000), 1312.0, 1107.0, None, || (1.0, 1.0));
        table.price_or_insert_with(&k("a", 2000), 1312.0, 1107.0, None, || (2.0, 2.0));
        table.price_or_insert_with(&k("a", 1000), 800.0, 1107.0, None, || (3.0, 3.0));
        assert_eq!(table.len(), 3);
        let hit =
            table.price_or_insert_with(&k("a", 2000), 1312.0, 1107.0, None, || unreachable!());
        assert_eq!(hit, (2.0, 2.0));
    }

    #[test]
    fn mem_clock_and_cap_are_part_of_the_key() {
        let table = PriceTable::new();
        let kernel = k("a", 1000);
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || (1.0, 1.0));
        table.price_or_insert_with(&kernel, 1312.0, 810.0, None, || (2.0, 2.0));
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, Some(200.0), || (3.0, 3.0));
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, Some(250.0), || (4.0, 4.0));
        assert_eq!(table.len(), 4, "mem clock and cap each key new entries");
        let uncapped = table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || unreachable!());
        assert_eq!(uncapped, (1.0, 1.0));
        let capped =
            table.price_or_insert_with(&kernel, 1312.0, 1107.0, Some(200.0), || unreachable!());
        assert_eq!(capped, (3.0, 3.0));
    }

    #[test]
    fn cache_id_depends_on_every_pricing_input() {
        let base = k("a", 1000);
        let mut renamed = base.clone();
        renamed.name = "b".into();
        let mut resized = base.clone();
        resized.work_items = 1001;
        let mut remixed = base.clone();
        remixed.mix.float_mul += 1.0;
        let mut ilp = base.clone();
        ilp.ilp_efficiency *= 0.5;
        let id = kernel_cache_id(&base);
        assert_eq!(id, kernel_cache_id(&base.clone()));
        for other in [renamed, resized, remixed, ilp] {
            assert_ne!(id, kernel_cache_id(&other));
        }
    }

    #[test]
    fn clear_empties_the_table() {
        let table = PriceTable::new();
        table.price_or_insert_with(&k("a", 1000), 1312.0, 1107.0, None, || (1.0, 1.0));
        assert!(!table.is_empty());
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let table = PriceTable::new();
        let kernel = k("a", 1000);
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || (1.0, 2.0));
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || unreachable!());
        table.price_or_insert_with(&kernel, 1312.0, 1107.0, None, || unreachable!());
        let s = table.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn colliding_profiles_are_both_cached() {
        // Force two different profiles onto the same 64-bit kernel id:
        // the second must land in the overflow chain and memoize, not
        // permanently fall back to recomputation.
        let table = PriceTable::new();
        let a = k("a", 1000);
        let b = k("b", 2000);
        let mut b_computes = 0;
        table.price_with_id(42, &a, 1312.0, 1107.0, None, || (1.0, 10.0));
        let first_b = table.price_with_id(42, &b, 1312.0, 1107.0, None, || {
            b_computes += 1;
            (2.0, 20.0)
        });
        assert_eq!(first_b, (2.0, 20.0));
        // Both profiles now hit, each serving its own numbers.
        let hit_a = table.price_with_id(42, &a, 1312.0, 1107.0, None, || unreachable!());
        let hit_b = table.price_with_id(42, &b, 1312.0, 1107.0, None, || {
            b_computes += 1;
            (99.0, 99.0)
        });
        assert_eq!(hit_a, (1.0, 10.0));
        assert_eq!(hit_b, (2.0, 20.0));
        assert_eq!(b_computes, 1, "collision must not disable memoization");
        assert_eq!(table.len(), 2, "chain holds both colliding profiles");
        let s = table.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn collision_chain_survives_repeated_lookups() {
        let table = PriceTable::new();
        let profiles: Vec<KernelProfile> = (0..4).map(|i| k("k", 1000 + i)).collect();
        for (i, p) in profiles.iter().enumerate() {
            table.price_with_id(7, p, 800.0, 1107.0, None, || (i as f64, i as f64));
        }
        assert_eq!(table.stats().collisions, 3);
        for (i, p) in profiles.iter().enumerate() {
            let got = table.price_with_id(7, p, 800.0, 1107.0, None, || unreachable!());
            assert_eq!(got, (i as f64, i as f64));
        }
    }
}
