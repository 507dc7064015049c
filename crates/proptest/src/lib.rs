//! Offline stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no access to a crate
//! registry, so this crate provides — under the same package name and
//! module paths — exactly the subset of proptest's API the workspace's
//! property tests use: the [`proptest!`]/[`prop_compose!`] macros, range
//! and tuple strategies, `prop::collection::vec`, `prop::option::of`,
//! `prop::bool::weighted`, `any::<T>()`, and the `prop_assert*` macros.
//!
//! Semantics differ from upstream in two deliberate ways:
//!
//! * **No shrinking.** A failing case reports its case index and the
//!   deterministic per-test seed instead of a minimized input. Every
//!   value is derived from `(test name, case index)`, so failures
//!   reproduce exactly across runs and machines.
//! * **Fixed case counts.** `ProptestConfig::with_cases(n)` runs exactly
//!   `n` cases; there is no persistence/regression file handling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// `prop::collection` — collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec`s with lengths drawn from `size` and elements
    /// from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Generates vectors whose length lies in `size` (half-open) and
    /// whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop::option` — strategies for `Option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Some` three times out of four.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Wraps a strategy to produce `Option`s (mostly `Some`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// `prop::bool` — strategies for `bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `true` with a fixed probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted {
        p: f64,
    }

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "probability in [0,1]");
        Weighted { p }
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_f64() < self.p
        }
    }
}

/// Types with a canonical strategy, for `any::<T>()`.
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    type Strategy: strategy::Strategy<Value = Self>;
    /// Returns the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

impl Arbitrary for bool {
    type Strategy = bool::Weighted;
    fn arbitrary() -> bool::Weighted {
        bool::weighted(0.5)
    }
}

macro_rules! arbitrary_full_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = strategy::FnStrategy<$t, fn(&mut test_runner::TestRng) -> $t>;
            fn arbitrary() -> Self::Strategy {
                strategy::fn_strategy(|rng| rng.next_u64() as $t)
            }
        }
    )*};
}
arbitrary_full_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// The canonical strategy for `T`, as in `any::<bool>()`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Everything a property-test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest, Arbitrary,
    };

    /// Namespaced strategy modules, as upstream's `prop::` re-export.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Drives one `proptest!`-generated test: `cases` deterministic cases
/// seeded from the test name. Panics (failing the surrounding `#[test]`)
/// on the first case whose body returns an error.
pub fn run_proptest<F>(cfg: &test_runner::Config, name: &str, mut body: F)
where
    F: FnMut(&mut test_runner::TestRng) -> test_runner::TestCaseResult,
{
    for case in 0..cfg.cases {
        let seed = test_runner::case_seed(name, case);
        let mut rng = test_runner::TestRng::new(seed);
        if let Err(e) = body(&mut rng) {
            panic!(
                "proptest '{name}' failed at case {case}/{} (seed {seed:#x}): {}",
                cfg.cases, e.message
            );
        }
    }
}

/// Defines property tests. Supports the upstream form
/// `proptest! { #![proptest_config(...)] #[test] fn name(x in strat, ..) { body } .. }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            $crate::run_proptest(&__cfg, stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                let __out: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                __out
            });
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

/// Defines a named strategy function from component strategies, as
/// upstream's `prop_compose!`. Both the zero-argument and parameterized
/// forms are supported.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)
     ($($bind:pat in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::fn_strategy(move |__rng: &mut $crate::test_runner::TestRng| -> $ret {
                $(let $bind = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts two values are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(__l == __r, "assertion failed: {:?} != {:?}", __l, __r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(__l == __r, "{}: {:?} != {:?}", format!($($fmt)*), __l, __r);
    }};
}

/// Asserts two values are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(__l != __r, "assertion failed: both sides equal {:?}", __l);
    }};
}
