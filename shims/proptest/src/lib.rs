//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of the proptest 1.x API its property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map` / `prop_recursive` / `boxed`,
//! [`Just`](strategy::Just), [`any`](arbitrary::any), range and tuple
//! strategies, [`collection::vec`], the [`prop_oneof!`] / [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros, and
//! [`ProptestConfig::with_cases`](test_runner::ProptestConfig::with_cases).
//!
//! Differences from real proptest, deliberately accepted for a test shim:
//!
//! * **No shrinking.** A failing case panics with its case index; cases
//!   are seeded deterministically from the test name and index, so a
//!   failure reproduces by rerunning the test.
//! * Value distributions are simpler (uniform draws, uniform recursion
//!   depth) — properties must hold for *all* inputs, so this only shifts
//!   coverage, not soundness.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The customary glob import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Strategy combinators and primitive strategies.
pub mod strategy_impl_details {}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn combinators_generate() {
        use crate::test_runner::new_case_rng;
        let strat = prop_oneof![Just(1u8), Just(2u8)]
            .prop_map(|v| v * 10)
            .boxed();
        let mut rng = new_case_rng("combinators_generate", 0);
        for _ in 0..20 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v == 10 || v == 20);
        }
    }

    #[test]
    fn vec_and_tuple_strategies() {
        use crate::test_runner::new_case_rng;
        let strat = crate::collection::vec((0usize..5, any::<bool>()), 0..8);
        let mut rng = new_case_rng("vec_and_tuple", 1);
        for _ in 0..20 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v.len() < 8);
            assert!(v.iter().all(|&(n, _)| n < 5));
        }
        let exact = crate::collection::vec(0usize..3, 4usize);
        assert_eq!(Strategy::generate(&exact, &mut rng).len(), 4);
    }

    #[test]
    fn recursive_strategies_terminate() {
        use crate::test_runner::new_case_rng;
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(4, 32, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = new_case_rng("recursive", 2);
        let mut max_seen = 0;
        for _ in 0..100 {
            let t = Strategy::generate(&strat, &mut rng);
            let d = depth(&t);
            assert!(d <= 4, "depth bound respected, got {d}");
            max_seen = max_seen.max(d);
        }
        assert!(max_seen >= 1, "recursion actually taken");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_roundtrip(n in 1usize..10, flag in any::<bool>()) {
            prop_assert!((1..10).contains(&n));
            if flag {
                // Early Ok-return must compile, mirroring real proptest.
                return Ok(());
            }
            prop_assert_eq!(n * 2 / 2, n);
        }
    }

    proptest! {
        #[test]
        fn macro_without_config(x in 0u8..4) {
            prop_assert!(x < 4);
        }
    }
}
