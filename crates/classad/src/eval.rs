//! Three-valued ClassAd expression evaluation.
//!
//! Evaluation happens relative to an *evaluating* ad (`MY`) and an optional
//! *candidate* ad (`TARGET`), as during matchmaking.  Unscoped attribute
//! references resolve in `MY` first, then `TARGET`; unresolved references
//! evaluate to `UNDEFINED`.  Circular attribute definitions evaluate to
//! `UNDEFINED` as in Condor (e.g. `a = b; b = a`).

use crate::ad::ClassAd;
use crate::expr::{BinOp, Expr, Scope};
use crate::value::Value;
use gintern::Sym;

/// Evaluation context: the two ads and the in-progress reference stack for
/// cycle detection.
pub struct EvalCtx<'a> {
    pub my: &'a ClassAd,
    pub target: Option<&'a ClassAd>,
    visiting: Vec<(bool, Sym)>, // (is_target_scope, name)
}

impl<'a> EvalCtx<'a> {
    pub fn new(my: &'a ClassAd, target: Option<&'a ClassAd>) -> Self {
        EvalCtx {
            my,
            target,
            visiting: Vec::new(),
        }
    }

    /// A context with one reference already on the cycle stack — used when
    /// an attribute's *body* is evaluated directly (e.g. a `Requirements`
    /// the matchmaker holds) so circular definitions behave exactly as if the
    /// evaluation had entered through the attribute reference.
    pub fn seeded(my: &'a ClassAd, target: Option<&'a ClassAd>, visiting: (bool, Sym)) -> Self {
        EvalCtx {
            my,
            target,
            visiting: vec![visiting],
        }
    }
}

/// Evaluate `expr` in the context of `my` (and optionally `target`).
pub fn eval(expr: &Expr, my: &ClassAd, target: Option<&ClassAd>) -> Value {
    let mut cx = EvalCtx::new(my, target);
    eval_in(expr, &mut cx)
}

/// Evaluate with an explicit context (used recursively).
pub fn eval_in(expr: &Expr, cx: &mut EvalCtx) -> Value {
    match expr {
        Expr::Lit(v) => v.clone(),
        Expr::Attr { scope, name, .. } => eval_attr(*scope, *name, cx),
        Expr::Not(e) => match eval_in(e, cx) {
            Value::Bool(b) => Value::Bool(!b),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, cx),
    }
}

fn eval_attr(scope: Scope, name: Sym, cx: &mut EvalCtx) -> Value {
    // Resolve which ad the reference lands in.  The body is borrowed from
    // that ad, which outlives the context, so nothing is cloned.
    let candidates: &[(bool, &ClassAd)] = match scope {
        Scope::My => &[(false, cx.my)],
        Scope::Target => match cx.target {
            Some(t) => &[(true, t)],
            None => return Value::Undefined,
        },
        Scope::None => match cx.target {
            Some(t) => &[(false, cx.my), (true, t)],
            None => &[(false, cx.my)],
        },
    };
    let Some((is_target, e)) = candidates
        .iter()
        .find_map(|&(is_target, ad)| Some((is_target, ad.get(&name)?)))
    else {
        return Value::Undefined;
    };
    // `Expr::Attr` names are interned lowercase, so the cycle stack
    // compares symbol ids — no per-resolution lowercasing or allocation.
    if cx.visiting.contains(&(is_target, name)) {
        // Circular reference.
        return Value::Undefined;
    }
    // A literal body cannot recurse: answer without the bookkeeping.
    if let Expr::Lit(v) = e {
        return v.clone();
    }
    cx.visiting.push((is_target, name));
    // Inside the referenced ad, unscoped references resolve relative to
    // *that* ad: swap MY/TARGET when we crossed into the target.
    let v = if is_target {
        let mut swapped = EvalCtx {
            my: cx.target.unwrap(),
            target: Some(cx.my),
            visiting: std::mem::take(&mut cx.visiting),
        };
        let v = eval_in(e, &mut swapped);
        cx.visiting = swapped.visiting;
        v
    } else {
        eval_in(e, cx)
    };
    cx.visiting.pop();
    v
}

fn eval_binary(op: BinOp, a: &Expr, b: &Expr, cx: &mut EvalCtx) -> Value {
    let va = eval_in(a, cx);
    match op {
        BinOp::And | BinOp::Or => {
            // Non-strict three-valued connectives: the deciding value
            // (`false` for &&, `true` for ||) wins from either side, and
            // the right operand is not evaluated when the left decides.
            let decides = Value::Bool(op == BinOp::Or);
            if va == decides {
                return va;
            }
            let vb = eval_in(b, cx);
            if vb == decides {
                return vb;
            }
            // Neither decides: Error dominates, then a non-boolean operand
            // (an error too), then Undefined; two booleans give the
            // complement of the deciding value.
            match (&va, &vb) {
                (Value::Error, _) | (_, Value::Error) => Value::Error,
                (Value::Undefined, Value::Bool(_) | Value::Undefined)
                | (Value::Bool(_), Value::Undefined) => Value::Undefined,
                (Value::Bool(_), Value::Bool(_)) => Value::Bool(op == BinOp::And),
                _ => Value::Error,
            }
        }
        BinOp::MetaEq => Value::Bool(va.meta_eq(&eval_in(b, cx))),
        BinOp::MetaNe => Value::Bool(!va.meta_eq(&eval_in(b, cx))),
        _ => {
            let vb = eval_in(b, cx);
            // Strict exceptional propagation: ERROR beats UNDEFINED.
            if matches!(va, Value::Error) || matches!(vb, Value::Error) {
                return Value::Error;
            }
            if matches!(va, Value::Undefined) || matches!(vb, Value::Undefined) {
                return Value::Undefined;
            }
            cmp(op, va, vb)
        }
    }
}

fn cmp(op: BinOp, a: Value, b: Value) -> Value {
    // Strings compare with other strings (case-insensitively, as in classic
    // ClassAds); numbers/booleans compare numerically; mixing is an error.
    let ord = match (&a, &b) {
        (Value::Str(x), Value::Str(y)) => {
            // Byte-wise lowercase comparison without building lowered
            // copies — identical ordering to comparing the lowercased
            // strings.
            x.bytes()
                .map(|c| c.to_ascii_lowercase())
                .cmp(y.bytes().map(|c| c.to_ascii_lowercase()))
        }
        _ => {
            let (Some(x), Some(y)) = (a.as_number(), b.as_number()) else {
                return Value::Error;
            };
            match x.partial_cmp(&y) {
                Some(o) => o,
                None => return Value::Error, // NaN
            }
        }
    };
    let r = match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!(),
    };
    Value::Bool(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn ev(src: &str) -> Value {
        let ad = ClassAd::new();
        eval(&parse_expr(src).unwrap(), &ad, None)
    }

    fn ev_in(src: &str, my: &str) -> Value {
        let ad = ClassAd::parse(my).unwrap();
        eval(&parse_expr(src).unwrap(), &ad, None)
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev("2 < 3"), Value::Bool(true));
        assert_eq!(ev("2.5 >= 2.5"), Value::Bool(true));
        assert_eq!(ev("\"abc\" == \"ABC\""), Value::Bool(true)); // case-insensitive
        assert_eq!(ev("\"abc\" < \"abd\""), Value::Bool(true));
        assert_eq!(ev("\"abc\" == 3"), Value::Error); // type mismatch
        assert_eq!(ev("TRUE == 1"), Value::Bool(true)); // bool coerces numerically
    }

    #[test]
    fn undefined_propagation() {
        assert_eq!(ev("missing > 5"), Value::Undefined);
        assert_eq!(ev("missing == \"x\""), Value::Undefined);
        assert_eq!(ev("!missing"), Value::Undefined);
        assert_eq!(ev("!5"), Value::Error);
        assert_eq!(ev("ERROR < missing"), Value::Error); // ERROR beats UNDEFINED
    }

    #[test]
    fn three_valued_connectives() {
        assert_eq!(ev("FALSE && missing"), Value::Bool(false));
        assert_eq!(ev("missing && FALSE"), Value::Bool(false));
        assert_eq!(ev("TRUE || missing"), Value::Bool(true));
        assert_eq!(ev("missing || TRUE"), Value::Bool(true));
        assert_eq!(ev("TRUE && missing"), Value::Undefined);
        assert_eq!(ev("missing || FALSE"), Value::Undefined);
        assert_eq!(ev("ERROR && TRUE"), Value::Error);
        assert_eq!(ev("FALSE && ERROR"), Value::Bool(false));
        assert_eq!(ev("TRUE || ERROR"), Value::Bool(true));
        assert_eq!(ev("1 && TRUE"), Value::Error); // non-boolean operand
    }

    #[test]
    fn meta_equality_total() {
        assert_eq!(ev("missing =?= UNDEFINED"), Value::Bool(true));
        assert_eq!(ev("missing =!= UNDEFINED"), Value::Bool(false));
        assert_eq!(ev("5 =?= 5.0"), Value::Bool(true));
        assert_eq!(ev("ERROR =?= ERROR"), Value::Bool(true));
        assert_eq!(ev("\"A\" =?= \"a\""), Value::Bool(true));
    }

    #[test]
    fn attribute_resolution_and_chaining() {
        let my = "a = 5\nb = a\nc = b > 4 && a < 6\n";
        assert_eq!(ev_in("c", my), Value::Bool(true));
        assert_eq!(ev_in("MY.b", my), Value::Int(5));
        assert_eq!(ev_in("TARGET.b", my), Value::Undefined); // no target
    }

    #[test]
    fn circular_references_are_undefined() {
        let my = "a = b\nb = a\n";
        assert_eq!(ev_in("a", my), Value::Undefined);
        let my2 = "x = !x\n";
        assert_eq!(ev_in("x", my2), Value::Undefined);
    }

    #[test]
    fn cross_ad_resolution() {
        let my = ClassAd::parse("req = TARGET.load > MY.threshold\nthreshold = 50\n").unwrap();
        let target = ClassAd::parse("load = 75\n").unwrap();
        let v = eval(&parse_expr("req").unwrap(), &my, Some(&target));
        assert_eq!(v, Value::Bool(true));
        let cold = ClassAd::parse("load = 10\n").unwrap();
        let v = eval(&parse_expr("req").unwrap(), &my, Some(&cold));
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn unscoped_falls_through_to_target() {
        let my = ClassAd::parse("threshold = 50\n").unwrap();
        let target = ClassAd::parse("load = 99\n").unwrap();
        // `load` not in MY -> found in TARGET; inside TARGET it is a
        // literal.
        let v = eval(&parse_expr("load > threshold").unwrap(), &my, Some(&target));
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn target_scope_swaps_perspective() {
        // TARGET.req refers into the target ad; inside it, MY means the
        // target itself.
        let my = ClassAd::parse("mem = 100\n").unwrap();
        let target = ClassAd::parse("req = MY.mem > 500\nmem = 1000\n").unwrap();
        let v = eval(&parse_expr("TARGET.req").unwrap(), &my, Some(&target));
        assert_eq!(v, Value::Bool(true)); // target's own mem (1000) > 500
    }
}
