//! Offline, vendored stand-in for [`proptest`](https://proptest-rs.github.io/proptest/).
//!
//! Same spelling, smaller engine: strategies are deterministic seeded
//! generators (seeded from the test function's name, so every run and
//! every machine sees the same cases) and there is **no shrinking** — a
//! failing case panics with the generated inputs' debug representation
//! instead. A test builds its strategies once, before its first case,
//! and each case draws its parameters left to right. The surface covered
//! is exactly what this workspace uses:
//!
//! * `proptest! { #[test] fn f(x in strategy, y: Type) { … } }` with an
//!   optional `#![proptest_config(ProptestConfig::with_cases(n))]`
//! * integer / float range strategies, `any::<T>()`, tuple strategies,
//!   string-regex strategies (character classes and `{m,n}` repeats)
//! * `prop_map`, `prop_recursive`, `boxed`, `prop_oneof!`,
//!   `proptest::collection::vec`, `proptest::sample::select`
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything the tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs property-test functions.
///
/// Supported grammar (a subset of real proptest): an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn` items
/// whose parameters are either `pattern in strategy` or `name: Type`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])+ fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])+
        fn $name() {
            let __cfg = $cfg;
            let __strategy = $crate::__proptest_strategy!($($params)*);
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            // one case; a closure, so that the body's `prop_assert!`s return from it
            let mut __case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                let $crate::__proptest_pattern!($($params)*) =
                    $crate::strategy::Strategy::new_value(&__strategy, &mut __rng);
                { $body }
                Ok(())
            };
            let mut __ran: u32 = 0;
            let mut __attempts: u32 = 0;
            while __ran < __cfg.cases {
                __attempts += 1;
                assert!(
                    __attempts < __cfg.cases.saturating_mul(20).max(1000),
                    "proptest {}: too many rejected cases (prop_assume too strict?)",
                    stringify!($name),
                );
                match __case() {
                    Ok(()) => __ran += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => continue,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __ran + 1,
                            __cfg.cases,
                            msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// One strategy for a whole parameter list, built once per test: nested
/// `(parameter, rest)` pairs ending in `Just(())`, so a case draws its
/// parameters left to right.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_strategy {
    () => {
        $crate::strategy::Just(())
    };
    ($pat:pat in $strat:expr $(, $($rest:tt)*)?) => {
        ($strat, $crate::__proptest_strategy!($($($rest)*)?))
    };
    ($name:ident: $ty:ty $(, $($rest:tt)*)?) => {
        (
            $crate::arbitrary::any::<$ty>(),
            $crate::__proptest_strategy!($($($rest)*)?),
        )
    };
}

/// The pattern that binds a value of [`__proptest_strategy!`] over the
/// same parameter list.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_pattern {
    () => {
        ()
    };
    ($pat:pat in $strat:expr $(, $($rest:tt)*)?) => {
        ($pat, $crate::__proptest_pattern!($($($rest)*)?))
    };
    ($name:ident: $ty:ty $(, $($rest:tt)*)?) => {
        ($name, $crate::__proptest_pattern!($($($rest)*)?))
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg", args…)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a != __b {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        if __a != __b {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// `prop_assert_ne!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let __a = $a;
        let __b = $b;
        if __a == __b {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        if __a == __b {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Rejects the current case (not counted against `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use crate::prelude::*;

    thread_local! {
        static BUILT: Cell<u32> = const { Cell::new(0) };
        static CASES: Cell<u32> = const { Cell::new(0) };
        static SEEN: RefCell<Vec<(u32, u64, String)>> = const { RefCell::new(Vec::new()) };
    }

    /// A strategy that counts its constructions.
    fn counted() -> std::ops::Range<u32> {
        BUILT.with(|built| built.set(built.get() + 1));
        0..100
    }

    // Called by the tests below, on their threads.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        /// Fifty cases over one counted strategy.
        fn fifty_cases(x in counted()) {
            prop_assert!(x < 100);
            CASES.with(|cases| cases.set(cases.get() + 1));
        }

        /// Three parameters, one of them `name: Type`.
        fn three_params(a in 0u32..1000, b: u64, c in "[a-z]{1,8}") {
            SEEN.with(|seen| seen.borrow_mut().push((a, b, c)));
        }
    }

    #[test]
    fn strategies_are_built_once_per_test() {
        fifty_cases();
        assert_eq!(CASES.with(Cell::get), 50);
        assert_eq!(BUILT.with(Cell::get), 1, "built once, not once per case");
    }

    #[test]
    fn cases_draw_their_parameters_left_to_right() {
        three_params();
        let mut rng = TestRng::for_test("three_params");
        let expected: Vec<(u32, u64, String)> = (0..50)
            .map(|_| {
                let a = (0u32..1000).new_value(&mut rng);
                let b = any::<u64>().new_value(&mut rng);
                let c = "[a-z]{1,8}".new_value(&mut rng);
                (a, b, c)
            })
            .collect();
        assert_eq!(SEEN.with(RefCell::take), expected);
    }
}
