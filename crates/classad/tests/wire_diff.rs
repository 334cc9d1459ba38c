//! Remembered wire sizes vs a fresh rendering.
//!
//! A `ClassAd` carries its own wire size: the first `wire_size()`
//! formats the ad, later calls answer from a memo, and every `&mut self`
//! method of an ad must forget it.  The oracle is the definition itself
//! — `to_string().len()`, rendered anew at every check.  Random mutation
//! sequences interleave measuring (so memos are warm when they have to
//! be dropped) with every way an ad can change, and the memo must stay
//! invisible to `==`.

use classad::{BinOp, ClassAd, Expr, Value};
use proptest::prelude::*;

const NAMES: &str = "[a-dA-D]";

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = || {
        prop_oneof![
            (-1000i64..1000).prop_map(|i| Expr::Lit(Value::Int(i))),
            (-100.0f64..100.0).prop_map(|r| Expr::Lit(Value::Real(r))),
            "[a-zA-Z0-9 \"\\\\]{0,6}".prop_map(|s| Expr::Lit(Value::Str(s))),
            any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
            NAMES.prop_map(|s| Expr::attr(&s)),
            Just(Expr::Lit(Value::Undefined)),
        ]
    };
    prop_oneof![
        leaf(),
        (leaf(), leaf()).prop_map(|(a, b)| Expr::Binary(BinOp::And, Box::new(a), Box::new(b))),
        (leaf(), leaf()).prop_map(|(a, b)| Expr::Binary(BinOp::Lt, Box::new(a), Box::new(b))),
    ]
}

#[derive(Debug, Clone)]
enum AdOp {
    Insert(String, Expr),
    SetInt(String, i64),
    SetReal(String, f64),
    SetStr(String, String),
    SetBool(String, bool),
    SetExpr(String, i64),
    Remove(String),
    Merge(Vec<(String, Expr)>),
    /// Replace the ad by a clone of itself (the clone copies the memo).
    Clone,
}

fn ad_op_strategy() -> impl Strategy<Value = AdOp> {
    prop_oneof![
        (NAMES, expr_strategy()).prop_map(|(n, e)| AdOp::Insert(n, e)),
        (NAMES, -1000i64..1000).prop_map(|(n, v)| AdOp::SetInt(n, v)),
        (NAMES, -100.0f64..100.0).prop_map(|(n, v)| AdOp::SetReal(n, v)),
        (NAMES, "[a-z \"]{0,12}").prop_map(|(n, v)| AdOp::SetStr(n, v)),
        (NAMES, any::<bool>()).prop_map(|(n, v)| AdOp::SetBool(n, v)),
        (NAMES, 0i64..100_000).prop_map(|(n, v)| AdOp::SetExpr(n, v)),
        NAMES.prop_map(AdOp::Remove),
        proptest::collection::vec((NAMES, expr_strategy()), 0..4).prop_map(AdOp::Merge),
        Just(AdOp::Clone),
    ]
}

fn apply(ad: &mut ClassAd, op: &AdOp) {
    match op {
        AdOp::Insert(n, e) => ad.insert(n, e.clone()),
        AdOp::SetInt(n, v) => ad.set_int(n, *v),
        AdOp::SetReal(n, v) => ad.set_real(n, *v),
        AdOp::SetStr(n, v) => ad.set_str(n, v),
        AdOp::SetBool(n, v) => ad.set_bool(n, *v),
        AdOp::SetExpr(n, v) => ad
            .set_expr(n, &format!("TARGET.Memory > {v} && OpSys == \"LINUX\""))
            .expect("literal expression parses"),
        AdOp::Remove(n) => {
            ad.remove(n);
        }
        AdOp::Merge(attrs) => {
            let mut other = ClassAd::new();
            for (n, e) in attrs {
                other.insert(n, e.clone());
            }
            // Half of the merged-in ads arrive measured.
            if attrs.len() % 2 == 0 {
                other.wire_size();
            }
            ad.merge(&other);
        }
        AdOp::Clone => *ad = ad.clone(),
    }
}

/// `==` is hand-written: check it from either side.
fn assert_equal_both_ways<T: PartialEq + std::fmt::Debug>(a: &T, b: &T, when: &str) {
    assert!(a == b, "{when}: {a:?} != {b:?}");
    assert!(b == a, "{when}: {b:?} != {a:?}");
}

fn assert_ad_size_fresh(ad: &ClassAd) {
    let fresh = ad.to_string().len() as u64;
    assert_eq!(ad.wire_size(), fresh, "ad:\n{ad}");
    assert_eq!(ad.wire_size(), fresh, "ad (memo):\n{ad}");
}

proptest! {
    /// An ad's remembered size equals a fresh rendering after any
    /// sequence of `&mut self` calls, measured in between or not, and
    /// two ads built alike compare equal whichever has been measured.
    #[test]
    fn ad_sizes_survive_every_mutation(
        ops in proptest::collection::vec((ad_op_strategy(), any::<bool>()), 1..40),
    ) {
        let mut ad = ClassAd::new();
        let mut twin = ClassAd::new();
        for (op, measure) in &ops {
            apply(&mut ad, op);
            apply(&mut twin, op);
            if *measure {
                assert_ad_size_fresh(&ad);
            }
            // `twin` is measured only at the very end.
            assert_equal_both_ways(&ad, &twin, "measured vs unmeasured");
            // A clone carries the memo; changing the clone must not
            // change the original's answer, nor the other way round.
            let mut copy = ad.clone();
            copy.set_str("Extra", "attribute only the clone has");
            assert_ad_size_fresh(&copy);
            prop_assert!(copy != ad);
        }
        assert_ad_size_fresh(&ad);
        assert_equal_both_ways(&ad, &twin, "one side measured");
        assert_ad_size_fresh(&twin);
        assert_equal_both_ways(&ad, &twin, "both measured");
    }
}
