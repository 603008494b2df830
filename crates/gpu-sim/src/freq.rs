//! Frequency tables.
//!
//! Real GPUs expose a discrete set of supported clock frequencies (the V100
//! reports 196 graphics clocks through `nvmlDeviceGetSupportedGraphicsClocks`).
//! [`FrequencyTable`] models that set: an ascending, deduplicated list of
//! frequencies in MHz with nearest-neighbour snapping, which is exactly what
//! the driver does when asked for an unsupported clock.

use serde::{Deserialize, Serialize};

/// An ascending table of supported frequencies in MHz.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyTable {
    freqs: Vec<f64>,
}

impl FrequencyTable {
    /// Builds a table from arbitrary frequencies; sorts ascending and
    /// removes duplicates (within 1 kHz).
    ///
    /// # Panics
    /// Panics if `freqs` is empty or contains a non-finite or non-positive
    /// frequency — a device with no valid clocks is a programming error.
    pub fn new(mut freqs: Vec<f64>) -> Self {
        assert!(!freqs.is_empty(), "frequency table must not be empty");
        assert!(
            freqs.iter().all(|f| f.is_finite() && *f > 0.0),
            "frequencies must be finite and positive"
        );
        freqs.sort_by(f64::total_cmp);
        // Dedup against the last *retained* frequency, never the previous
        // raw element: a chain of near-duplicates each within 1 kHz of its
        // neighbour must not transitively collapse entries that are farther
        // than 1 kHz apart. Retained entries are therefore always ≥ 1 kHz
        // from each other, which is what makes `snap_index` exact.
        let mut deduped: Vec<f64> = Vec::with_capacity(freqs.len());
        for f in freqs {
            match deduped.last() {
                Some(&kept) if (f - kept).abs() < 1e-3 => {}
                _ => deduped.push(f),
            }
        }
        FrequencyTable { freqs: deduped }
    }

    /// Builds `n` evenly spaced frequencies over `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `n < 2` or `lo >= hi`.
    pub fn linspace(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 2, "linspace needs at least two points");
        assert!(lo < hi, "lo must be < hi");
        let step = (hi - lo) / (n as f64 - 1.0);
        let freqs = (0..n).map(|i| lo + step * i as f64).collect();
        FrequencyTable::new(freqs)
    }

    /// Number of supported frequencies.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when the table is empty (never, by construction, but kept for
    /// API completeness / clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Lowest supported frequency (MHz).
    pub fn min(&self) -> f64 {
        self.freqs[0]
    }

    /// Highest supported frequency (MHz).
    pub fn max(&self) -> f64 {
        *self.freqs.last().expect("non-empty")
    }

    /// All supported frequencies, ascending.
    pub fn as_slice(&self) -> &[f64] {
        &self.freqs
    }

    /// Iterator over supported frequencies, ascending.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.freqs.iter().copied()
    }

    /// Snaps `mhz` to the nearest supported frequency, like the driver does.
    /// Always equal to `self.as_slice()[self.snap_index(mhz)]` — `snap` and
    /// `snap_index` share one nearest-neighbour search, so they can never
    /// disagree about which table entry a request lands on.
    pub fn snap(&self, mhz: f64) -> f64 {
        self.freqs[self.snap_index(mhz)]
    }

    /// Index of the nearest supported frequency, the primitive `snap` is
    /// defined in terms of. Distances are `(f - mhz).abs()` as computed in
    /// floating point, and of equally near entries the lowest index wins —
    /// so a request exactly between two entries takes the lower one, and a
    /// non-finite request (NaN, ±inf) lands on index 0, the lowest clock.
    ///
    /// O(log n): a binary search finds the first entry at or above `mhz`
    /// (`hi`). Distances never grow towards `hi` from below nor shrink
    /// beyond it, so the nearest entry is `hi` or the first of the entries
    /// below it that are exactly as far away as its lower neighbour —
    /// found by a second binary search, and the neighbour itself unless
    /// `mhz` is so far above the table that rounding makes several
    /// distances equal.
    pub fn snap_index(&self, mhz: f64) -> usize {
        let freqs = &self.freqs;
        let dist = |f: f64| (f - mhz).abs();
        let hi = freqs.partition_point(|&f| f < mhz);
        if hi == 0 {
            return 0;
        }
        let d = dist(freqs[hi - 1]);
        if hi < freqs.len() && dist(freqs[hi]) < d {
            return hi;
        }
        freqs[..hi].partition_point(|&f| dist(f) > d)
    }

    /// Whether `mhz` is (within 1 kHz of) a supported frequency.
    pub fn contains(&self, mhz: f64) -> bool {
        self.freqs.iter().any(|f| (*f - mhz).abs() < 1e-3)
    }

    /// Returns every `stride`-th frequency (ascending), always including the
    /// highest one. Used by sweep drivers to thin very dense tables.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn strided(&self, stride: usize) -> Vec<f64> {
        assert!(stride > 0, "stride must be positive");
        let mut out: Vec<f64> = self.freqs.iter().copied().step_by(stride).collect();
        let max = self.max();
        if out.last().map(|f| (*f - max).abs() > 1e-9).unwrap_or(true) {
            out.push(max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_count() {
        let t = FrequencyTable::linspace(135.0, 1597.0, 196);
        assert_eq!(t.len(), 196);
        assert!((t.min() - 135.0).abs() < 1e-12);
        assert!((t.max() - 1597.0).abs() < 1e-12);
    }

    #[test]
    fn new_sorts_and_dedups() {
        let t = FrequencyTable::new(vec![500.0, 100.0, 500.0, 300.0]);
        assert_eq!(t.as_slice(), &[100.0, 300.0, 500.0]);
    }

    #[test]
    fn snap_picks_nearest() {
        let t = FrequencyTable::new(vec![100.0, 200.0, 300.0]);
        assert_eq!(t.snap(149.0), 100.0);
        assert_eq!(t.snap(151.0), 200.0);
        assert_eq!(t.snap(1000.0), 300.0);
        assert_eq!(t.snap(-5.0), 100.0);
    }

    #[test]
    fn snap_index_roundtrips() {
        let t = FrequencyTable::linspace(135.0, 1597.0, 196);
        for (i, f) in t.iter().enumerate() {
            assert_eq!(t.snap_index(f), i);
        }
    }

    #[test]
    fn neighbour_chain_does_not_collapse_distant_points() {
        // Five entries, each 0.4 kHz from its neighbour: pairwise-adjacent
        // values are "duplicates", but the ends are 1.6 kHz apart and must
        // survive. Transitive dedup would collapse the whole chain to one.
        let t = FrequencyTable::new(vec![100.0, 100.0004, 100.0008, 100.0012, 100.0016]);
        assert!(t.len() >= 2, "chain ends are > 1 kHz apart: {:?}", t);
        assert!((t.min() - 100.0).abs() < 1e-12);
        assert!(t.max() - t.min() > 1e-3);
        // Every retained pair is at least the dedup tolerance apart.
        for w in t.as_slice().windows(2) {
            assert!(w[1] - w[0] >= 1e-3);
        }
    }

    /// Reference nearest-neighbour search: a linear scan keeping the first
    /// of equally near entries. `snap_index` must agree with it exactly.
    fn scan_index(t: &FrequencyTable, mhz: f64) -> usize {
        t.iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - mhz).abs().total_cmp(&(*b - mhz).abs()))
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    #[test]
    fn device_tables_snap_like_the_scan() {
        use crate::spec::DeviceSpec;
        for spec in [
            DeviceSpec::v100(),
            DeviceSpec::mi100(),
            DeviceSpec::max1100(),
        ] {
            for t in [&spec.core_freqs, &spec.mem_freqs] {
                let steps = ((t.max() + 100.0) * 4.0) as usize;
                for q in (0..=steps).map(|k| k as f64 * 0.25) {
                    assert_eq!(t.snap_index(q), scan_index(t, q), "{}: {q} MHz", spec.name);
                }
                for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    assert_eq!(t.snap_index(q), 0, "{}: {q}", spec.name);
                    assert_eq!(scan_index(t, q), 0, "{}: {q}", spec.name);
                }
            }
        }
    }

    proptest::proptest! {
        /// `snap` ∘ `snap_index` round-trips on arbitrary tables: every
        /// table entry snaps to itself (same index, same bits), and an
        /// arbitrary query snaps to the entry its index points at. The
        /// index equals the reference scan's for the query, for every
        /// exact midpoint between neighbours (the lower one wins) and for
        /// queries below the minimum and above the maximum.
        #[test]
        fn snap_and_snap_index_agree(
            raw in proptest::collection::vec(1.0f64..5000.0, 1..40),
            query in -100.0f64..6000.0,
            below_exp in -3.0f64..6.0,
            above_exp in -3.0f64..30.0,
        ) {
            let t = FrequencyTable::new(raw);
            for (i, f) in t.iter().enumerate() {
                proptest::prop_assert_eq!(t.snap_index(f), i);
                proptest::prop_assert_eq!(t.snap(f).to_bits(), f.to_bits());
            }
            let i = t.snap_index(query);
            proptest::prop_assert_eq!(t.snap(query).to_bits(), t.as_slice()[i].to_bits());
            proptest::prop_assert_eq!(i, scan_index(&t, query));
            for (lo, w) in t.as_slice().windows(2).enumerate() {
                let mid = (w[0] + w[1]) / 2.0;
                proptest::prop_assert_eq!(t.snap_index(mid), scan_index(&t, mid));
                if (w[1] - mid).abs() == (mid - w[0]).abs() {
                    proptest::prop_assert_eq!(t.snap_index(mid), lo);
                }
            }
            // Log-uniform offsets reach far above the table, where
            // rounding makes runs of entries equally far from the query
            // (all of them past ~1e20 MHz, so index 0 wins).
            for q in [t.min() - 10f64.powf(below_exp), t.max() + 10f64.powf(above_exp)] {
                proptest::prop_assert_eq!(t.snap_index(q), scan_index(&t, q));
            }
        }
    }

    #[test]
    fn strided_includes_max() {
        let t = FrequencyTable::linspace(100.0, 1000.0, 10);
        let s = t.strided(4);
        assert!((s.last().unwrap() - 1000.0).abs() < 1e-9);
        assert!(s.len() < t.len());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_table_panics() {
        let _ = FrequencyTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn negative_frequency_panics() {
        let _ = FrequencyTable::new(vec![-1.0]);
    }
}
