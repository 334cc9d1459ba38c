//! Three-valued ClassAd expression evaluation.
//!
//! Evaluation happens relative to an *evaluating* ad (`MY`) and an optional
//! *candidate* ad (`TARGET`), as during matchmaking.  Unscoped attribute
//! references resolve in `MY` first, then `TARGET`; unresolved references
//! evaluate to `UNDEFINED`.  Circular attribute definitions evaluate to
//! `UNDEFINED` as in Condor (e.g. `a = b; b = a`).

use crate::ad::ClassAd;
use crate::expr::{BinOp, Expr, Scope, UnOp};
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
        Expr::Unary(op, e) => eval_unary(*op, eval_in(e, cx)),
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, cx),
        Expr::Cond(c, t, e) => match eval_in(c, cx) {
            Value::Bool(true) => eval_in(t, cx),
            Value::Bool(false) => eval_in(e, cx),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        Expr::Call(name, args) => {
            let vals: Vec<Value> = args.iter().map(|a| eval_in(a, cx)).collect();
            call_builtin(name, &vals)
        }
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

fn eval_unary(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Not => match v {
            Value::Bool(b) => Value::Bool(!b),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(-i),
            Value::Real(r) => Value::Real(-r),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        UnOp::Plus => match v {
            Value::Int(_) | Value::Real(_) => v,
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
    }
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
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, va, vb),
                _ => cmp(op, va, vb),
            }
        }
    }
}

fn arith(op: BinOp, a: Value, b: Value) -> Value {
    // Integer arithmetic stays integral; any real operand promotes.
    if let (Value::Int(x), Value::Int(y)) = (&a, &b) {
        let (x, y) = (*x, *y);
        return match op {
            BinOp::Add => Value::Int(x.wrapping_add(y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    Value::Error
                } else {
                    Value::Int(x.wrapping_div(y))
                }
            }
            BinOp::Mod => {
                if y == 0 {
                    Value::Error
                } else {
                    Value::Int(x.wrapping_rem(y))
                }
            }
            _ => unreachable!(),
        };
    }
    let (Some(x), Some(y)) = (a.as_number(), b.as_number()) else {
        return Value::Error;
    };
    match op {
        BinOp::Add => Value::Real(x + y),
        BinOp::Sub => Value::Real(x - y),
        BinOp::Mul => Value::Real(x * y),
        BinOp::Div => {
            if y == 0.0 {
                Value::Error
            } else {
                Value::Real(x / y)
            }
        }
        BinOp::Mod => {
            if y == 0.0 {
                Value::Error
            } else {
                Value::Real(x % y)
            }
        }
        _ => unreachable!(),
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

/// Builtin dispatch over already-evaluated arguments.
fn call_builtin(name: &str, vals: &[Value]) -> Value {
    // Strict builtins: propagate exceptional arguments.
    if vals.iter().any(|v| matches!(v, Value::Error)) {
        return Value::Error;
    }
    match (name, vals) {
        ("floor", [v]) => num_fn(v, f64::floor),
        ("ceiling", [v]) => num_fn(v, f64::ceil),
        ("round", [v]) => num_fn(v, f64::round),
        ("int", [v]) => match v.as_number() {
            Some(x) => Value::Int(x as i64),
            None => exceptional_or_error(v),
        },
        ("real", [v]) => match v.as_number() {
            Some(x) => Value::Real(x),
            None => exceptional_or_error(v),
        },
        ("string", [v]) => match v {
            Value::Undefined => Value::Undefined,
            Value::Str(s) => Value::Str(s.clone()),
            v => Value::Str(v.to_string()),
        },
        ("strcat", vs) => {
            let mut s = String::new();
            for v in vs {
                match v {
                    Value::Undefined => return Value::Undefined,
                    Value::Str(x) => s.push_str(x),
                    v => s.push_str(&v.to_string()),
                }
            }
            Value::Str(s)
        }
        ("toupper", [Value::Str(s)]) => Value::Str(s.to_ascii_uppercase()),
        ("tolower", [Value::Str(s)]) => Value::Str(s.to_ascii_lowercase()),
        ("size", [Value::Str(s)]) => Value::Int(s.len() as i64),
        ("isundefined", [v]) => Value::Bool(matches!(v, Value::Undefined)),
        ("iserror", [_v]) => Value::Bool(false), // errors already propagated
        // Case-SENSITIVE string comparison (unlike ==), as in Condor.
        ("strcmp", [Value::Str(a), Value::Str(b)]) => Value::Int(match a.cmp(b) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        }),
        // Membership in a comma/space separated string list.
        ("stringlistmember", [Value::Str(item), Value::Str(list)]) => Value::Bool(
            list.split([',', ' '])
                .map(str::trim)
                .any(|x| !x.is_empty() && x.eq_ignore_ascii_case(item)),
        ),
        ("stringlistsize", [Value::Str(list)]) => Value::Int(
            list.split([',', ' '])
                .map(str::trim)
                .filter(|x| !x.is_empty())
                .count() as i64,
        ),
        // ifThenElse with ClassAd semantics: undefined condition is
        // undefined (unlike ?: this is a function, but Condor implements
        // the same tri-state behaviour).
        ("ifthenelse", [c, t, e]) => match c {
            Value::Bool(true) => t.clone(),
            Value::Bool(false) => e.clone(),
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        },
        ("min", [a, b]) => match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    a.clone()
                } else {
                    b.clone()
                }
            }
            _ => exceptional_or_error(if a.as_number().is_none() { a } else { b }),
        },
        ("max", [a, b]) => match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => {
                if x >= y {
                    a.clone()
                } else {
                    b.clone()
                }
            }
            _ => exceptional_or_error(if a.as_number().is_none() { a } else { b }),
        },
        _ => Value::Error,
    }
}

fn num_fn(v: &Value, f: impl Fn(f64) -> f64) -> Value {
    match v.as_number() {
        Some(x) => Value::Int(f(x) as i64),
        None => exceptional_or_error(v),
    }
}

fn exceptional_or_error(v: &Value) -> Value {
    if matches!(v, Value::Undefined) {
        Value::Undefined
    } else {
        Value::Error
    }
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
    fn arithmetic_int_and_real() {
        assert_eq!(ev("1 + 2 * 3"), Value::Int(7));
        assert_eq!(ev("7 / 2"), Value::Int(3));
        assert_eq!(ev("7.0 / 2"), Value::Real(3.5));
        assert_eq!(ev("7 % 3"), Value::Int(1));
        assert_eq!(ev("1 / 0"), Value::Error);
        assert_eq!(ev("1 % 0"), Value::Error);
        assert_eq!(ev("-(3 - 5)"), Value::Int(2));
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
        assert_eq!(ev("missing + 1"), Value::Undefined);
        assert_eq!(ev("missing > 5"), Value::Undefined);
        assert_eq!(ev("!missing"), Value::Undefined);
        assert_eq!(ev("-missing"), Value::Undefined);
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
    fn conditional() {
        assert_eq!(ev("2 > 1 ? 10 : 20"), Value::Int(10));
        assert_eq!(ev("2 < 1 ? 10 : 20"), Value::Int(20));
        assert_eq!(ev("missing ? 10 : 20"), Value::Undefined);
        assert_eq!(ev("5 ? 10 : 20"), Value::Error);
    }

    #[test]
    fn attribute_resolution_and_chaining() {
        let my = "a = 5\nb = a * 2\nc = b + a\n";
        assert_eq!(ev_in("c", my), Value::Int(15));
        assert_eq!(ev_in("MY.b", my), Value::Int(10));
        assert_eq!(ev_in("TARGET.b", my), Value::Undefined); // no target
    }

    #[test]
    fn circular_references_are_undefined() {
        let my = "a = b\nb = a\n";
        assert_eq!(ev_in("a", my), Value::Undefined);
        let my2 = "x = x + 1\n";
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

    #[test]
    fn builtins() {
        assert_eq!(ev("floor(2.9)"), Value::Int(2));
        assert_eq!(ev("ceiling(2.1)"), Value::Int(3));
        assert_eq!(ev("round(2.5)"), Value::Int(3));
        assert_eq!(ev("int(2.9)"), Value::Int(2));
        assert_eq!(ev("real(3)"), Value::Real(3.0));
        assert_eq!(ev("size(\"hello\")"), Value::Int(5));
        assert_eq!(ev("toUpper(\"aBc\")"), Value::Str("ABC".into()));
        assert_eq!(ev("toLower(\"aBc\")"), Value::Str("abc".into()));
        assert_eq!(
            ev("strcat(\"a\", 1, \"-\", 2.0)"),
            Value::Str("a1-2.0".into())
        );
        assert_eq!(ev("isUndefined(missing)"), Value::Bool(true));
        assert_eq!(ev("isUndefined(1)"), Value::Bool(false));
        assert_eq!(ev("nosuchfn(1)"), Value::Error);
        assert_eq!(ev("floor(\"x\")"), Value::Error);
        assert_eq!(ev("floor(missing)"), Value::Undefined);
    }

    #[test]
    fn condor_builtins() {
        assert_eq!(ev("strcmp(\"a\", \"b\")"), Value::Int(-1));
        assert_eq!(ev("strcmp(\"b\", \"a\")"), Value::Int(1));
        // strcmp is case-sensitive, unlike ==.
        assert_eq!(ev("strcmp(\"A\", \"a\")"), Value::Int(-1));
        assert_eq!(ev("\"A\" == \"a\""), Value::Bool(true));
        assert_eq!(
            ev("stringListMember(\"vanilla\", \"standard, vanilla, java\")"),
            Value::Bool(true)
        );
        assert_eq!(
            ev("stringListMember(\"mpi\", \"standard, vanilla\")"),
            Value::Bool(false)
        );
        assert_eq!(ev("stringListSize(\"a, b c,,d\")"), Value::Int(4));
        assert_eq!(
            ev("ifThenElse(2 > 1, \"y\", \"n\")"),
            Value::Str("y".into())
        );
        assert_eq!(ev("ifThenElse(missing, 1, 2)"), Value::Undefined);
        assert_eq!(ev("ifThenElse(5, 1, 2)"), Value::Error);
        assert_eq!(ev("min(3, 2.5)"), Value::Real(2.5));
        assert_eq!(ev("max(3, 2.5)"), Value::Int(3));
        assert_eq!(ev("min(\"x\", 1)"), Value::Error);
    }
}
