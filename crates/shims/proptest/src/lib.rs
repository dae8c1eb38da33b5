//! Offline shim for the `proptest` crate.
//!
//! A deterministic property-testing harness implementing the surface
//! the simart test suites use: the [`proptest!`] macro, `prop_assert*`,
//! `prop_assume!`, `prop_oneof!`, [`strategy::Strategy`] with
//! `prop_map`/`prop_recursive`/`boxed`, `any::<T>()`, numeric-range and
//! character-class string strategies, and `collection::{vec,
//! btree_map}`.
//!
//! Unlike upstream proptest there is no shrinking: every generated case
//! is derived deterministically from the test name and case index, so a
//! failure message names the case and rerunning reproduces it exactly.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a property test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares deterministic property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item expands to a
/// `#[test]` running `PROPTEST_CASES` (default 64) generated cases; an
/// optional leading `#![proptest_config(ProptestConfig::with_cases(n))]`
/// fixes the case count for the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run_cases_n(
                    stringify!($name),
                    ($cfg).cases,
                    |__proptest_rng| {
                        $(let $arg =
                            $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                        $body
                    },
                );
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                    $body
                });
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_ne!($left, $right, $($fmt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Picks uniformly among several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
