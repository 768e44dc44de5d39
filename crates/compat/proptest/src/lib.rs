//! Offline stand-in for the subset of `proptest` used by this workspace:
//! the [`Strategy`] trait with `prop_map`/`prop_flat_map`, numeric range and
//! tuple strategies, [`collection::vec`], and the [`proptest!`] /
//! [`prop_assert!`] family of macros.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the deterministic seed and case number, which is reproducible because
//! the generator stream is a pure function of the seed
//! (`PROPTEST_SEED`, default 0) and case count (`PROPTEST_CASES`,
//! default 64).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG driving strategy generation.
pub type TestRng = StdRng;

/// Number of cases each `proptest!` test runs.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Deterministic RNG for one test function.
pub fn test_rng() -> TestRng {
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    StdRng::seed_from_u64(seed)
}

/// A generator of random values of one type.
pub trait Strategy: Sized {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Generate an intermediate value, then generate from the strategy it
    /// maps to.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F> {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $i:tt),+)),+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact `usize` or a
    /// `Range<usize>`.
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Run `cases()` random cases of each enclosed test function.
///
/// Each argument is `pattern in strategy`; the body runs once per case with
/// fresh values drawn from the strategies.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut __rng = $crate::test_rng();
            for __case in 0..$crate::cases() {
                $(let $p = $crate::Strategy::generate(&($s), &mut __rng);)+
                let _ = __case;
                $body
            }
        }
    )*};
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The imports `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Just, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths(v in collection::vec(0u8..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn map_and_flat_map(v in (1usize..4).prop_flat_map(|n| collection::vec(0u8..3, n)).prop_map(|v| v.len())) {
            prop_assert!((1..4).contains(&v));
        }

        #[test]
        fn tuples_and_just(t in (0u8..3, Just(7i64)), mut s in collection::vec(0u8..3, 1..3)) {
            prop_assert_eq!(t.1, 7);
            s.push(0);
            prop_assert!(!s.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_rng();
        let mut b = crate::test_rng();
        let s = 0u64..100;
        for _ in 0..10 {
            assert_eq!(
                Strategy::generate(&s, &mut a),
                Strategy::generate(&s, &mut b)
            );
        }
    }
}
