//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the proptest API the workspace's property tests use:
//! [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, integer-range
//! and tuple strategies, [`collection::vec`], [`bool::ANY`],
//! [`prop_oneof!`], and the [`proptest!`] macro with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.
//!
//! Differences from real proptest, on purpose:
//!
//! - **no shrinking** — a failing case reports the test name, case index,
//!   and per-test seed (enough to reproduce deterministically, since
//!   generation is seeded by the test name);
//! - **rejections count as cases** — `prop_assume!` skips the body but the
//!   runner does not generate a replacement case;
//! - the default case count is 64, not 256, to keep simulation-heavy
//!   property tests fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng as _;

/// The RNG all strategies draw from.
pub type TestRng = StdRng;

/// Returns the deterministic per-test RNG for `test_name` and `case`.
///
/// Used by the [`proptest!`] expansion; public so failures can be replayed.
pub fn rng_for(test_name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// Marker returned by a body that called [`prop_assume!`] with a false
/// condition: the case is skipped, not failed.
#[derive(Debug)]
pub struct TestCaseReject;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use rand::RngExt as _;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy generating `f(v)` for `v` drawn from `self`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// A strategy that draws `v` from `self`, then draws from the
        /// strategy `f(v)`.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (**self).new_value(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).new_value(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);

    /// Boxes a strategy (helper for [`crate::prop_oneof!`]).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// A uniform choice between alternative strategies of one value type.
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    /// Builds a [`Union`] (helper for [`crate::prop_oneof!`]).
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn union_of<V>(options: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let i = rng.random_range(0..self.options.len());
            self.options[i].new_value(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngExt as _;

    /// Anything that can describe the length of a generated `Vec`: an exact
    /// `usize`, a `Range<usize>`, or a `RangeInclusive<usize>`.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// A strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.draw_len(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngExt as _;

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// The strategy generating `true` or `false` with equal probability.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.random_bool(0.5)
        }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseReject);
        }
    };
}

/// A uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::union_of(vec![$($crate::strategy::boxed($strat)),+])
    };
}

/// Defines seeded random-input tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
///
/// In test code, write `#[test]` above each property function, exactly as
/// with real proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::rng_for(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        || -> ::core::result::Result<(), $crate::TestCaseReject> {
                            $body
                            ::core::result::Result::Ok(())
                        },
                    ),
                );
                match outcome {
                    Ok(_pass_or_reject) => {}
                    Err(payload) => {
                        eprintln!(
                            "proptest {}: failed at case {} (reproduce: rng_for({:?}, {}))",
                            stringify!($name), case, stringify!($name), case,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(a in 3u64..9, b in 0usize..=4) {
            prop_assert!((3..9).contains(&a));
            prop_assert!(b <= 4);
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn vec_and_tuple_compose(pairs in crate::collection::vec((0u32..5, crate::bool::ANY), 0..8)) {
            prop_assert!(pairs.len() < 8);
            prop_assert!(pairs.iter().all(|(v, _)| *v < 5));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![0u32..1, 10u32..11];
        let mut rng = crate::rng_for("oneof", 0);
        let draws: Vec<u32> = (0..50).map(|_| s.new_value(&mut rng)).collect();
        assert!(draws.contains(&0) && draws.contains(&10));
    }

    #[test]
    fn flat_map_threads_values() {
        let s = (1usize..4).prop_flat_map(|n| crate::collection::vec(0u32..10, n));
        let mut rng = crate::rng_for("flat_map", 1);
        for _ in 0..20 {
            let v = s.new_value(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = crate::collection::vec(0u32..1000, 0..20);
        let a: Vec<Vec<u32>> = (0..10)
            .map(|c| s.new_value(&mut crate::rng_for("d", c)))
            .collect();
        let b: Vec<Vec<u32>> = (0..10)
            .map(|c| s.new_value(&mut crate::rng_for("d", c)))
            .collect();
        assert_eq!(a, b);
    }
}
