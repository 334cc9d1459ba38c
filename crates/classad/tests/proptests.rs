//! Property-based tests for the ClassAd language.

use classad::{eval, parse_expr, BinOp, ClassAd, Expr, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary well-formed ClassAd expressions.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(|i| Expr::Lit(Value::Int(i))),
        (-100.0f64..100.0).prop_map(|r| Expr::Lit(Value::Real((r * 100.0).round() / 100.0))),
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| Expr::attr(&s)),
        "[a-zA-Z0-9 ]{0,8}".prop_map(|s| Expr::Lit(Value::Str(s))),
        Just(Expr::Lit(Value::Bool(true))),
        Just(Expr::Lit(Value::Bool(false))),
        Just(Expr::Lit(Value::Undefined)),
        Just(Expr::Lit(Value::Error)),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Or),
            Just(BinOp::And),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::MetaEq),
            Just(BinOp::MetaNe),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
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

/// Text drawn from the characters the grammar gives meaning to — quotes,
/// escapes, parentheses, `=`, the other operator characters, digits,
/// signs, a letter run and a multi-byte char — so most strings get
/// deep into the lexer and parser before they fail.
const HOSTILE: &str = "[a-cMYTRUEGT.\\\"*()=!?<>&|+%,:#_ \n0-9é-]{0,40}";

proptest! {
    /// Printing then reparsing yields the same AST (parenthesisation and
    /// precedence are mutually consistent).
    #[test]
    fn print_parse_round_trip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of {printed:?} failed: {err}"));
        prop_assert_eq!(e, reparsed);
    }

    /// Evaluation is total: any expression evaluates to some value without
    /// panicking, in an empty ad and in a populated one.
    #[test]
    fn eval_is_total(e in arb_expr()) {
        let empty = ClassAd::new();
        let _ = eval(&e, &empty, None);
        let ad = ClassAd::parse("a = 1\nb = a\nc = b > a\nd = \"str\"\n").unwrap();
        let _ = eval(&e, &ad, Some(&empty));
    }

    /// Meta-equality is reflexive for any evaluated value.
    #[test]
    fn meta_eq_reflexive(e in arb_expr()) {
        let ad = ClassAd::new();
        let v = eval(&e, &ad, None);
        prop_assert!(v.meta_eq(&v));
    }

    /// The three-valued connectives are commutative in their result for
    /// pure literal operands.
    #[test]
    fn and_commutative_on_literals(a in prop_oneof![
        Just(Value::Bool(true)), Just(Value::Bool(false)),
        Just(Value::Undefined), Just(Value::Error)
    ], b in prop_oneof![
        Just(Value::Bool(true)), Just(Value::Bool(false)),
        Just(Value::Undefined), Just(Value::Error)
    ]) {
        let ad = ClassAd::new();
        let ab = Expr::Binary(BinOp::And,
            Box::new(Expr::Lit(a.clone())), Box::new(Expr::Lit(b.clone())));
        let ba = Expr::Binary(BinOp::And,
            Box::new(Expr::Lit(b)), Box::new(Expr::Lit(a)));
        prop_assert_eq!(eval(&ab, &ad, None), eval(&ba, &ad, None));
    }

    /// Ads survive a serialize/parse cycle.
    #[test]
    fn ad_round_trip(attrs in proptest::collection::vec(
        ("[a-z][a-z0-9]{0,5}", arb_expr()), 0..8)) {
        let mut ad = ClassAd::new();
        for (name, e) in &attrs {
            ad.insert(name, e.clone());
        }
        let printed = ad.to_string();
        let reparsed = ClassAd::parse(&printed)
            .unwrap_or_else(|err| panic!("reparse of ad {printed:?} failed: {err}"));
        prop_assert_eq!(ad, reparsed);
    }

    /// Any text is an expression or a typed error, never a panic.
    #[test]
    fn parse_expr_never_panics(src in HOSTILE) {
        let _ = parse_expr(&src);
    }

    /// Any text, as lines of `Name = Expr` or otherwise, is an ad or a
    /// typed error, never a panic.
    #[test]
    fn ad_parse_never_panics(lines in proptest::collection::vec(
        ("[a-cA-C_0-9 ]{0,4}", "[ =]{0,2}", HOSTILE), 0..6)) {
        let text: String = lines
            .iter()
            .map(|(name, eq, body)| format!("{name}{eq}{body}\n"))
            .collect();
        let _ = ClassAd::parse(&text);
    }

    /// Arbitrary bytes, read as UTF-8 with replacement, never panic either
    /// parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_expr(&text);
        let _ = ClassAd::parse(&text);
    }
}
