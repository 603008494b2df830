//! Offline shim for `rayon`: genuinely parallel iterators built on
//! `std::thread::scope`, covering the adapter surface this workspace
//! uses (`par_iter`, `par_iter_mut`, `into_par_iter`, `map`, `filter`,
//! `enumerate`, `copied`, `for_each`, `sum`, `reduce`, `collect`).
//!
//! Differences from real rayon, by design:
//!
//! - Adapters are **eager**: each `map` materializes its results before
//!   the next adapter runs. For the chunky closures this workspace
//!   parallelizes (whole frequency sweeps, whole tree fits) the extra
//!   allocation is noise.
//! - Item order is always preserved: work is dealt round-robin to a
//!   bounded set of worker threads and scattered back by index, so
//!   `collect` returns exactly what the sequential iterator would.
//! - Nested parallelism is throttled by a global thread budget instead
//!   of a work-stealing pool: inner `par_iter`s fall back to sequential
//!   execution once the budget is exhausted, bounding total threads to
//!   roughly the core count.

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
    };
}

/// Outstanding worker threads across all live `par_*` calls.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel map preserving input order. Falls back to a sequential map
/// when the item count is small or the thread budget is spent.
fn pmap<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let budget = max_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    let workers = budget.min(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Deal items round-robin so unevenly sized work spreads out.
    let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push((i, item));
    }

    ACTIVE_WORKERS.fetch_add(workers, Ordering::Relaxed);
    let f = &f;
    let produced: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect()
    });
    ACTIVE_WORKERS.fetch_sub(workers, Ordering::Relaxed);

    // Scatter back by index to restore input order.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for chunk in produced {
        for (i, u) in chunk {
            out[i] = Some(u);
        }
    }
    out.into_iter().map(|slot| slot.unwrap()).collect()
}

/// An order-preserving parallel iterator over materialized items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Send + Sync,
    {
        ParIter {
            items: pmap(self.items, f),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        pmap(self.items, f);
    }

    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Send + Sync,
    {
        ParIter {
            items: self.items.into_iter().filter(|t| f(t)).collect(),
        }
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> T
    where
        Id: Fn() -> T + Send + Sync,
        Op: Fn(T, T) -> T + Send + Sync,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }

    pub fn count(self) -> usize {
        self.items.len()
    }
}

impl<T: Copy + Send + Sync> ParIter<&T> {
    pub fn copied(self) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().copied().collect(),
        }
    }
}

impl<T: Clone + Send + Sync> ParIter<&T> {
    pub fn cloned(self) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().cloned().collect(),
        }
    }
}

/// By-value conversion (`Vec<T>`, ranges).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_into_par!(u32, u64, usize, i32, i64);

/// By-shared-reference conversion (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// By-mutable-reference conversion (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = max_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    if budget <= 1 {
        return (a(), b());
    }
    ACTIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
    let out = std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon shim join worker panicked"))
    });
    ACTIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_over_range() {
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out[0], 1);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v = vec![1u64; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn sum_and_reduce_agree() {
        let v: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let a: f64 = v.par_iter().copied().sum();
        let b = v.par_iter().copied().reduce(|| 0.0, |x, y| x + y);
        assert_eq!(a, b);
    }

    #[test]
    fn nested_parallelism_terminates() {
        let out: Vec<usize> = (0..32usize)
            .into_par_iter()
            .map(|i| {
                (0..32usize)
                    .into_par_iter()
                    .map(|j| i * j)
                    .collect::<Vec<_>>()
                    .len()
            })
            .collect();
        assert!(out.iter().all(|&n| n == 32));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }
}
