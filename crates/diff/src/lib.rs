//! # gridmon-diff — differential reference-oracle test layer
//!
//! Each measured hot path in the workspace keeps its original, simple
//! implementation alive as a *reference kernel*.  Every oracle lives
//! here or is a public function the simulator itself still runs — no
//! production crate carries oracle-only code or a feature to enable it:
//! the event engine ([`reference::RefEngine`]), the three-pass CPU
//! ([`reference::RefPsCpu`]), the allocate-per-step flow network
//! ([`reference::RefFlowNet`]), the uncompiled ClassAd matchmaking
//! wrappers ([`reference::symmetric_match`]) and the owned-`String`
//! LDAP `Dn`/`Entry` ([`ldap_reference`]) are modules of this crate, the
//! exhaustive DIT scan is a few lines over `Dit::iter` in `dit_diff`,
//! and the tree-walking ClassAd evaluator and the from-scratch
//! water-filler (`FlowNet::capacity_changed`) are production paths.  The
//! property tests in this crate's `tests/` directory drive the fast and
//! reference paths with the same randomly generated inputs and assert
//! **bit-exact** agreement:
//!
//! * `classad_diff` — compiled postfix ClassAd VM vs the tree-walking
//!   evaluator, over random expressions, ads and matchmaking pairs;
//! * `flownet_diff` — incremental component-local max-min fair-share vs
//!   the from-scratch water-filler, and the scratch-keeping, path-sharing
//!   `FlowNet` vs the allocating [`reference::RefFlowNet`], over random
//!   topologies and start/abort/complete schedules;
//! * `pscpu_diff` — the one-pass `PsCpu` with its cached minimum vs the
//!   three-pass [`reference::RefPsCpu`], over random submit/abort/advance
//!   schedules;
//! * `engine_diff` — the compacting event calendar vs pure lazy deletion,
//!   and the typed-event engine vs the closure-scheduling [`mod@reference`]
//!   engine, over random schedule/cancel/reschedule scripts;
//! * `dit_diff` — the indexed DIT search vs the exhaustive reference
//!   scan, over random trees and queries;
//! * `wire_diff` — the wire size a `relsql` row or a `ClassAd` remembers
//!   vs a fresh rendering, over random mutation sequences.
//!
//! The generators come from the in-tree `proptest` shim, so every case is
//! deterministic and reproducible by number.  Bit-exactness (not
//! approximate equality) is the contract: the optimizations are
//! restructurings of identical arithmetic, so any divergence — even in
//! the last ulp — is a bug.

#![forbid(unsafe_code)]

pub mod ldap_reference;
pub mod reference;

use classad::Value;

/// Bit-exact ClassAd value equality: `Real` compares by `to_bits` so NaN
/// payloads and signed zeros must agree too; other variants use plain
/// structural equality.
pub fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Render a value for failure messages, exposing the exact bits of reals.
pub fn value_repr(v: &Value) -> String {
    match v {
        Value::Real(x) => format!("Real({x:?} bits={:#x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_values_compare_by_bits() {
        let nan1 = Value::Real(f64::NAN);
        let nan2 = Value::Real(f64::NAN);
        assert!(values_identical(&nan1, &nan2));
        assert!(!values_identical(&Value::Real(0.0), &Value::Real(-0.0)));
        assert!(values_identical(&Value::Int(3), &Value::Int(3)));
        assert!(!values_identical(&Value::Int(3), &Value::Real(3.0)));
    }
}
