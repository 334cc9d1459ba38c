//! Offline stand-in for the `proptest` crate.
//!
//! The real `proptest` cannot be fetched in a registry-less build, so
//! this in-tree shim implements the subset of its API the workspace's
//! property tests use: the [`proptest!`] entry macro, the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map` / `prop_recursive`, union strategies via
//! [`prop_oneof!`], range and string-pattern strategies, tuple
//! composition, and `proptest::collection::vec`.
//!
//! Generation is deterministic: case `i` of every test draws from a
//! splitmix64 stream seeded with `i`, so failures reproduce exactly.
//! `PROPTEST_CASES` overrides the per-test case count (default 64).
//! Shrinking is intentionally not implemented — on failure the harness
//! reports the case number, which is enough to replay it.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Assert inside a property test (panics like `assert!`; the runner
/// reports the failing case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `PROPTEST_CASES` deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::cases();
                for case in 0..cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(case);
                    $(let $pat = $crate::strategy::Strategy::generate(&$strat, &mut __rng);)+
                    let run = || $body;
                    if let Err(payload) = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(run),
                    ) {
                        eprintln!(
                            "proptest shim: case {case}/{cases} of {} failed \
                             (deterministic; rerun reproduces it)",
                            stringify!($name),
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}
