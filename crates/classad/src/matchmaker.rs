//! ClassAd matchmaking.
//!
//! Condor's central operation: two ads *match* when each ad's
//! `Requirements` expression evaluates to `TRUE` with the other ad as
//! `TARGET`; a missing `Requirements` attribute counts as `TRUE` (Condor
//! semantics for ads that don't constrain their matches).  The Hawkeye
//! Manager matches each trigger against every Startd ad this way and
//! answers `condor_status -constraint` scans with the one-sided form.
//! Requirements are looked up once ([`compile_requirements`]) and matched
//! many times by the tree-walking evaluator; the forms that look the
//! attribute up on every call are the oracle of this crate's
//! `tests/classad_diff.rs`.

use crate::ad::ClassAd;
use crate::eval::{eval, eval_in, EvalCtx};
use crate::expr::Expr;
use crate::value::Value;

/// An expression parsed once and matched many times.  It is the parsed
/// tree itself, walked by [`crate::eval::eval_in`] on every match; the
/// name and [`CompiledExpr::compile`] stay for the callers that hold
/// one (`hawkeye::Manager`, the frozen benchmark probes).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr(Expr);

impl CompiledExpr {
    /// Hold a copy of `expr` for repeated matching.
    pub fn compile(expr: &Expr) -> CompiledExpr {
        CompiledExpr(expr.clone())
    }
}

/// An ad's `Requirements`, held for repeated matching (`None` when the ad
/// has none — which [`requirements_met_compiled`] treats as permissive).
pub fn compile_requirements(ad: &ClassAd) -> Option<CompiledExpr> {
    ad.get("requirements").map(CompiledExpr::compile)
}

/// Does `ad`'s held `Requirements` hold against `target`?  The context is
/// seeded with the `requirements` reference itself so circular
/// definitions resolve exactly as entering through the attribute would.
pub fn requirements_met_compiled(
    ad: &ClassAd,
    req: Option<&CompiledExpr>,
    target: &ClassAd,
) -> bool {
    match req {
        None => true,
        Some(CompiledExpr(req)) => {
            let mut cx =
                EvalCtx::seeded(ad, Some(target), (false, gintern::intern("requirements")));
            matches!(eval_in(req, &mut cx), Value::Bool(true))
        }
    }
}

/// Two-way match: both ads' held requirements hold against each other.
pub fn symmetric_match_compiled(
    a: &ClassAd,
    a_req: Option<&CompiledExpr>,
    b: &ClassAd,
    b_req: Option<&CompiledExpr>,
) -> bool {
    requirements_met_compiled(a, a_req, b) && requirements_met_compiled(b, b_req, a)
}

/// One-sided constraint evaluation (e.g. `condor_status -constraint`):
/// evaluate a held expression against `ad` (no target).
pub fn matches_constraint_compiled(ad: &ClassAd, constraint: &CompiledExpr) -> bool {
    matches!(eval(&constraint.0, ad, None), Value::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn machine(load: f64, os: &str) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.set_real("CpuLoad", load);
        ad.set_str("OpSys", os);
        ad.set_bool("Requirements", true);
        ad
    }

    fn two_way(a: &ClassAd, b: &ClassAd) -> bool {
        let (ra, rb) = (compile_requirements(a), compile_requirements(b));
        symmetric_match_compiled(a, ra.as_ref(), b, rb.as_ref())
    }

    #[test]
    fn trigger_matches_hot_machine() {
        let trigger =
            ClassAd::parse("Requirements = TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"\n")
                .unwrap();
        assert!(two_way(&trigger, &machine(75.0, "LINUX")));
        assert!(!two_way(&trigger, &machine(10.0, "LINUX")));
        assert!(!two_way(&trigger, &machine(75.0, "SOLARIS")));
    }

    #[test]
    fn missing_requirements_is_permissive() {
        let open = ClassAd::new();
        assert!(compile_requirements(&open).is_none());
        assert!(requirements_met_compiled(
            &open,
            None,
            &machine(0.0, "LINUX")
        ));
        assert!(two_way(&open, &ClassAd::new()));
    }

    #[test]
    fn undefined_requirements_do_not_match() {
        let t = ClassAd::parse("Requirements = TARGET.NoSuchAttr > 5\n").unwrap();
        assert!(!two_way(&t, &machine(90.0, "LINUX")));
    }

    #[test]
    fn symmetric_needs_both_sides() {
        let a = ClassAd::parse("Requirements = TARGET.kind == \"b\"\nkind = \"a\"\n").unwrap();
        let b = ClassAd::parse("Requirements = TARGET.kind == \"a\"\nkind = \"b\"\n").unwrap();
        let c = ClassAd::parse("Requirements = TARGET.kind == \"a\"\nkind = \"c\"\n").unwrap();
        assert!(two_way(&a, &b));
        assert!(!two_way(&a, &c)); // a requires kind=="b"
    }

    #[test]
    fn constraint_queries() {
        let c = CompiledExpr::compile(&parse_expr("CpuLoad > 50").unwrap());
        assert!(matches_constraint_compiled(&machine(60.0, "LINUX"), &c));
        assert!(!matches_constraint_compiled(&machine(40.0, "LINUX"), &c));
        // Worst-case scan: constraint never satisfied (the paper's
        // Experiment 4 setup for the Hawkeye Manager).
        let never = CompiledExpr::compile(&parse_expr("NoSuch =?= 1").unwrap());
        for load in [0.0, 50.0, 100.0] {
            assert!(!matches_constraint_compiled(
                &machine(load, "LINUX"),
                &never
            ));
        }
    }
}
