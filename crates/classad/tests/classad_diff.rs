//! ClassAd matchmaking over held requirements vs entering through the
//! attribute.
//!
//! `classad::matchmaker` looks an ad's `Requirements` up once and
//! evaluates the held body in a context seeded with the `requirements`
//! reference; [`reference`]'s forms re-enter the evaluator through the
//! attribute on every call.  Both routes must give the same answer on
//! every random expression and ad pair — including the self- and
//! mutually-recursive bodies whose cycles the seed has to catch.

use classad::{matchmaker, BinOp, ClassAd, CompiledExpr, Expr, Scope, Value};
use proptest::prelude::*;

/// ClassAd matchmaking as it stood before requirements were held once per
/// ad: each call looks the attribute up and enters the evaluator through
/// it.
mod reference {
    use classad::{eval, ClassAd, Expr, Value};

    /// Evaluate `ad`'s `Requirements` against `target`.  A missing
    /// `Requirements` attribute counts as `TRUE` (Condor semantics for ads
    /// that don't constrain their matches).
    pub fn requirements_met(ad: &ClassAd, target: &ClassAd) -> bool {
        match ad.get("requirements") {
            None => true,
            Some(_) => matches!(
                eval(&Expr::attr("requirements"), ad, Some(target)),
                Value::Bool(true)
            ),
        }
    }

    /// Two-way match: both ads' requirements hold against each other.
    pub fn symmetric_match(a: &ClassAd, b: &ClassAd) -> bool {
        requirements_met(a, b) && requirements_met(b, a)
    }

    /// One-sided constraint evaluation (e.g. `condor_status -constraint`):
    /// evaluate an arbitrary expression against `ad` (no target).
    pub fn matches_constraint(ad: &ClassAd, constraint: &Expr) -> bool {
        matches!(eval(constraint, ad, None), Value::Bool(true))
    }
}

/// Arbitrary expressions over a deliberately small attribute alphabet so
/// references frequently resolve — and frequently collide into cycles.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(|i| Expr::Lit(Value::Int(i))),
        (-100.0f64..100.0).prop_map(|r| Expr::Lit(Value::Real(r))),
        "[a-f]".prop_map(|s| Expr::attr(&s)),
        "[a-f]".prop_map(|s| Expr::scoped_attr(Scope::My, &s)),
        "[a-f]".prop_map(|s| Expr::scoped_attr(Scope::Target, &s)),
        "[a-zA-Z0-9 ]{0,6}".prop_map(|s| Expr::Lit(Value::Str(s))),
        Just(Expr::Lit(Value::Bool(true))),
        Just(Expr::Lit(Value::Bool(false))),
        Just(Expr::Lit(Value::Undefined)),
        Just(Expr::Lit(Value::Error)),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::And),
            Just(BinOp::Or),
            Just(BinOp::MetaEq),
            Just(BinOp::MetaNe),
        ];
        prop_oneof![
            (bin, inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Arbitrary ads binding the same small alphabet, so generated expressions
/// resolve against them (including self- and mutually-recursive bodies).
fn arb_ad() -> impl Strategy<Value = ClassAd> {
    proptest::collection::vec(("[a-f]", arb_expr()), 0..6).prop_map(|attrs| {
        let mut ad = ClassAd::new();
        for (name, e) in attrs {
            ad.insert(&name, e);
        }
        ad
    })
}

proptest! {
    /// Requirements matching: the held form seeds its context the same
    /// way entering through the `requirements` attribute would.
    #[test]
    fn requirements_met_agrees(mut ad in arb_ad(), req in arb_expr(), target in arb_ad()) {
        ad.insert("Requirements", req);
        let compiled = matchmaker::compile_requirements(&ad);
        prop_assert_eq!(
            matchmaker::requirements_met_compiled(&ad, compiled.as_ref(), &target),
            reference::requirements_met(&ad, &target)
        );
        // An ad with no requirements is permissive in both.
        let open = ClassAd::new();
        prop_assert!(matchmaker::requirements_met_compiled(&open, None, &target));
        prop_assert!(reference::requirements_met(&open, &target));
    }

    /// Symmetric (gang) matching over random ad-store pairs.
    #[test]
    fn symmetric_match_agrees(
        mut a in arb_ad(),
        ra in arb_expr(),
        mut b in arb_ad(),
        rb in arb_expr(),
    ) {
        a.insert("Requirements", ra);
        b.insert("Requirements", rb);
        let ca = matchmaker::compile_requirements(&a);
        let cb = matchmaker::compile_requirements(&b);
        prop_assert_eq!(
            matchmaker::symmetric_match_compiled(&a, ca.as_ref(), &b, cb.as_ref()),
            reference::symmetric_match(&a, &b)
        );
    }

    /// Constraint scans (the Experiment-4 Hawkeye workload shape).
    #[test]
    fn matches_constraint_agrees(c in arb_expr(), ad in arb_ad()) {
        let compiled = CompiledExpr::compile(&c);
        prop_assert_eq!(
            matchmaker::matches_constraint_compiled(&ad, &compiled),
            reference::matches_constraint(&ad, &c)
        );
    }
}
