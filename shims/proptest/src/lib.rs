//! Workspace-local stand-in for the `proptest` crate.
//!
//! The build environment has no route to a crates registry, so the real
//! `proptest` can never be fetched. This crate implements the subset its
//! property tests rely on:
//!
//! * the [`Strategy`] trait with `prop_map` / `prop_flat_map`, implemented
//!   for integer and float ranges and tuples;
//! * [`collection::vec`], [`collection::btree_set`], [`option::of`], and
//!   [`any`];
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`
//!   header) plus [`prop_assert!`] / [`prop_assert_eq!`];
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from upstream: case generation is **deterministic** (seeded
//! from the test's module path, name, and case index) and there is **no
//! shrinking** — a failing case reports its case index and seed so it can
//! be re-run, but is not minimised. Sizes of generated sets may fall
//! short of the requested range when the element domain is too small,
//! matching upstream's documented `btree_set` behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed test-case assertion (produced by [`prop_assert!`] /
/// [`prop_assert_eq!`]).
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure carrying `message`.
    pub fn fail(message: String) -> Self {
        TestCaseError(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Derives the deterministic RNG for one test case.
pub fn test_rng(test_path: &str, case: u32) -> TestRng {
    // FNV-1a over the test path, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value and samples it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// [`Strategy::prop_map`] adaptor.
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// [`Strategy::prop_flat_map`] adaptor.
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident => $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A => 0);
impl_tuple_strategy!(A => 0, B => 1);
impl_tuple_strategy!(A => 0, B => 1, C => 2);
impl_tuple_strategy!(A => 0, B => 1, C => 2, D => 3);
impl_tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4);

/// Types with a canonical "any value" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// The canonical strategy for the type.
    type Strategy: Strategy<Value = Self>;
    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for primitives (used through [`any`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyOf<T>(std::marker::PhantomData<T>);

macro_rules! impl_arbitrary_standard {
    ($($t:ty),*) => {$(
        impl Strategy for AnyOf<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyOf<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyOf(std::marker::PhantomData)
            }
        }
    )*};
}
impl_arbitrary_standard!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// The canonical strategy for `T` — `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Size specifications accepted by the [`collection`] strategies.
pub trait SizeRange {
    /// Draws a concrete size.
    fn sample_size(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn sample_size(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn sample_size(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_size(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample_size(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a size drawn from `size`.
    ///
    /// As with upstream proptest, the resulting set may be smaller than
    /// the drawn size when the element domain cannot supply enough
    /// distinct values.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample_size(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 20 + 50 {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for `Option<S::Value>`: `None` half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

/// The common imports property tests start with.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                stringify!($left), stringify!($right), l, r, format!($($fmt)+),
            )));
        }
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ..)`
/// runs `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let path = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut rng = $crate::test_rng(path, case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            path, case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_rng_per_case() {
        let mut a = crate::test_rng("x::y", 3);
        let mut b = crate::test_rng("x::y", 3);
        let mut c = crate::test_rng("x::y", 4);
        use rand::Rng;
        let va: Vec<u64> = (0..4).map(|_| a.gen_range(0u64..1000)).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen_range(0u64..1000)).collect();
        let vc: Vec<u64> = (0..4).map(|_| c.gen_range(0u64..1000)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn collection_sizes_respected() {
        let strat = crate::collection::vec(0u32..5, 2..6);
        let mut rng = crate::test_rng("sizes", 0);
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn btree_set_exact_when_achievable() {
        let strat = crate::collection::btree_set(0u32..100, 5..=5);
        let mut rng = crate::test_rng("bts", 1);
        for _ in 0..50 {
            assert_eq!(strat.sample(&mut rng).len(), 5);
        }
    }

    #[test]
    fn option_of_produces_both_variants() {
        let strat = crate::option::of(0u32..10);
        let mut rng = crate::test_rng("opt", 2);
        let samples: Vec<Option<u32>> =
            (0..100).map(|_| strat.sample(&mut rng)).collect();
        assert!(samples.iter().any(Option::is_some));
        assert!(samples.iter().any(Option::is_none));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_end_to_end(
            v in crate::collection::vec(0u32..10, 0..8),
            flag in any::<bool>(),
            x in (1usize..4).prop_flat_map(|n| crate::collection::vec(0u32..5, n..=n)),
        ) {
            prop_assert!(v.len() < 8);
            prop_assert_eq!(flag, flag);
            prop_assert!(!x.is_empty() && x.len() < 4);
        }

        /// Doc comments on property tests must parse.
        #[test]
        fn tuple_and_map(pair in (0u32..4, 0.0f64..=1.0).prop_map(|(a, b)| (a, b))) {
            prop_assert!(pair.0 < 4);
            prop_assert!((0.0..=1.0).contains(&pair.1));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_case_reports_index() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
