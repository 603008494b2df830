//! Offline shim for `proptest`: random-input property testing with the
//! subset of proptest's API this workspace uses — the `proptest!`
//! macro, `Strategy` with `prop_map`, numeric range strategies, tuple
//! strategies, `proptest::collection::vec`, `Just`, `prop_oneof!`, and
//! the `prop_assert*`/`prop_assume!` macros.
//!
//! Simplifications vs. real proptest: no shrinking (a failing case
//! reports its inputs via `Debug` where available, and always its case
//! number and seed), and case generation is derived deterministically
//! from the test's module path + case index, so failures reproduce
//! exactly on re-run.

use std::ops::Range;

/// Runner configuration (`cases` = number of generated inputs).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Sentinel error used by `prop_assume!` to skip a case.
pub const ASSUME_REJECT: &str = "__proptest_shim_assume_rejected__";

/// Deterministic splitmix64 generator for case inputs.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_case(test_path: &str, case: u32) -> Self {
        // FNV-1a over the test path, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }
}

/// A generator of test-case inputs.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<U, S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy<Value = U>,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, S2: Strategy<Value = T>, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Constant strategy.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                assert!(span > 0, "empty integer range strategy");
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9)
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is uniform in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::for_case(__path, __case);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), ::std::string::String> =
                    (|| { { $body } ::std::result::Result::Ok(()) })();
                match __result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err(e) if e == $crate::ASSUME_REJECT => {}
                    ::std::result::Result::Err(e) => {
                        panic!("property `{}` failed at case {}: {}", __path, __case, e);
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside `proptest!`, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} == {}", stringify!($a), stringify!($b)));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        if !(__a == __b) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} == {}: {}",
                    stringify!($a), stringify!($b), format!($($fmt)+)));
        }
    }};
}

/// Asserts inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a == __b {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

/// Skips the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::ASSUME_REJECT.to_string());
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let __choices: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::OneOf(__choices)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (f64, u64)> {
        (0.5..1.5f64, 10u64..20).prop_map(|(x, n)| (x * 2.0, n + 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -0.8..0.8f64, n in 3usize..9) {
            prop_assert!((-0.8..0.8).contains(&x));
            prop_assert!((3..9).contains(&n));
        }

        #[test]
        fn mapped_strategies_apply(pair in arb_pair()) {
            prop_assert!((1.0..3.0).contains(&pair.0));
            prop_assert!((11..=20).contains(&pair.1));
        }

        #[test]
        fn vec_strategy_respects_size(v in crate::collection::vec((0.1..2.0f64, 0.1..2.0f64), 1..40)) {
            prop_assert!((1..40).contains(&v.len()));
            for (a, b) in &v {
                prop_assert!(*a >= 0.1 && *a < 2.0, "a = {}", a);
                prop_assert!(*b >= 0.1 && *b < 2.0);
            }
        }

        #[test]
        fn oneof_and_assume(pick in prop_oneof![Just(1u32), Just(2), Just(3)], n in 0u32..10) {
            prop_assume!(n != 5);
            prop_assert!((1..=3).contains(&pick));
            prop_assert_ne!(n, 5);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_case("x::y", 3);
        let mut b = crate::TestRng::for_case("x::y", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
