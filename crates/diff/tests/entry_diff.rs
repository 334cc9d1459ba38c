//! Interned, copy-on-write `Entry`/`Dn` vs the owned-`String` oracle.
//!
//! The fast path interns attribute types and DN components (`Sym`)
//! and shares the attribute map behind an `Rc` (clones are pointer
//! bumps; the first mutation of a shared entry copies).  The oracle
//! (`gridmon_diff::ldap_reference`) is the pre-interning implementation
//! kept verbatim.  Any sequence of mutations, projections and queries
//! must observe identical state through both — including after
//! clone-then-mutate patterns that exercise the copy-on-write split.

use gridmon_diff::ldap_reference::{RefDn, RefEntry};
use ldapdir::{Dn, Entry};
use proptest::prelude::*;

/// One step of an entry workout.  Attribute names mix cases to cover
/// the lowercase-normalisation paths on both sides.
#[derive(Debug, Clone)]
enum Op {
    Add(String, String),
    Put(String, String),
    Remove(String),
    /// Clone the entry, mutate the clone, drop it: the original must
    /// be unaffected (copy-on-write split, deep copy in the oracle).
    CloneMutate(String, String),
}

fn arb_attr() -> impl Strategy<Value = String> {
    "[a-cA-C]{1,3}"
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_attr(), "[a-z0-9]{0,5}").prop_map(|(a, v)| Op::Add(a, v)),
        (arb_attr(), "[a-z0-9]{0,5}").prop_map(|(a, v)| Op::Put(a, v)),
        arb_attr().prop_map(Op::Remove),
        (arb_attr(), "[a-z0-9]{0,5}").prop_map(|(a, v)| Op::CloneMutate(a, v)),
    ]
}

fn assert_same(fast: &Entry, oracle: &RefEntry) {
    assert_eq!(fast.attr_count(), oracle.attr_count());
    assert_eq!(fast.wire_size(), oracle.wire_size());
    for ((fa, fvs), (oa, ovs)) in fast.iter().zip(oracle.iter()) {
        assert_eq!(fa, oa, "attribute order diverged");
        assert_eq!(fvs, ovs, "values diverged for {fa}");
    }
}

proptest! {
    /// Any op sequence leaves the interned entry and the oracle in
    /// observably identical states, and every query agrees.
    #[test]
    fn entry_matches_reference(
        ops in proptest::collection::vec(arb_op(), 0..40),
        probes in proptest::collection::vec((arb_attr(), "[a-z0-9]{0,5}"), 0..8),
    ) {
        let dn = Dn::parse("host=lucky3, vo=Cms, o=grid").unwrap();
        let rdn = RefDn::parse("host=lucky3, vo=Cms, o=grid").unwrap();
        let mut fast = Entry::new(dn);
        let mut oracle = RefEntry::new(&rdn);
        for op in &ops {
            match op {
                Op::Add(a, v) => {
                    fast.add(a, v.clone());
                    oracle.add(a, v.clone());
                }
                Op::Put(a, v) => {
                    fast.put(a, v.clone());
                    oracle.put(a, v.clone());
                }
                Op::Remove(a) => {
                    prop_assert_eq!(fast.remove(a), oracle.remove(a));
                }
                Op::CloneMutate(a, v) => {
                    // The clone shares attrs (Rc); its mutation must
                    // split, never write through to `fast`.
                    let mut shared = fast.clone();
                    prop_assert!(shared.shares_attrs_with(&fast));
                    shared.add(a, v.clone());
                    prop_assert!(!shared.shares_attrs_with(&fast));
                }
            }
            assert_same(&fast, &oracle);
        }
        for (a, v) in &probes {
            prop_assert_eq!(fast.get(a), oracle.get(a));
            prop_assert_eq!(fast.has_attr(a), oracle.has_attr(a));
            prop_assert_eq!(fast.has_value(a, v), oracle.has_value(a, v));
        }
    }

    /// Projection agrees with the oracle for any attribute selection —
    /// including names absent from the entry and mixed-case requests —
    /// and the projected wire size is the projection's wire size.
    #[test]
    fn projection_matches_reference(
        adds in proptest::collection::vec((arb_attr(), "[a-z0-9]{0,5}"), 0..20),
        selection in proptest::collection::vec(arb_attr(), 0..6),
    ) {
        let dn = Dn::parse("vo=atlas, o=grid").unwrap();
        let rdn = RefDn::parse("vo=atlas, o=grid").unwrap();
        let mut fast = Entry::new(dn);
        let mut oracle = RefEntry::new(&rdn);
        for (a, v) in &adds {
            fast.add(a, v.clone());
            oracle.add(a, v.clone());
        }
        let sel_owned: Vec<String> = selection.clone();
        let pf = fast.project(&selection);
        let po = oracle.project(&sel_owned);
        assert_same(&pf, &po);
        prop_assert_eq!(fast.projected_wire_size(&selection), oracle.projected_wire_size(&sel_owned));
        prop_assert_eq!(pf.wire_size(), fast.projected_wire_size(&selection));
    }
}

/// DN operations agree with the oracle (parse, hierarchy, rebase,
/// display length) over a fixed interesting namespace.
#[test]
fn dn_matches_reference() {
    let cases = [
        "",
        "o=grid",
        "vo=cms, o=grid",
        "host=Lucky3, vo=CMS, o=Grid",
        "a=1, b=2, c=3, d=4",
    ];
    for s in cases {
        let f = Dn::parse(s).unwrap();
        let o = RefDn::parse(s).unwrap();
        assert_eq!(f.to_string(), o.to_string(), "{s:?}");
        assert_eq!(f.display_len(), o.display_len(), "{s:?}");
        assert_eq!(f.depth(), o.depth(), "{s:?}");
        assert_eq!(
            f.parent().map(|d| d.to_string()),
            o.parent().map(|d| d.to_string()),
            "{s:?}"
        );
        let fc = f.child("host", "new1");
        let oc = o.child("host", "new1");
        assert_eq!(fc.to_string(), oc.to_string());
        assert!(fc.is_under(&f) && oc.is_under(&o));
    }
    // Rebase across suffixes matches.
    let f = Dn::parse("host=h1, vo=cms, o=grid").unwrap();
    let o = RefDn::parse("host=h1, vo=cms, o=grid").unwrap();
    let f2 = f
        .rebase(
            &Dn::parse("o=grid").unwrap(),
            &Dn::parse("giis=top, o=world").unwrap(),
        )
        .unwrap();
    let o2 = o
        .rebase(
            &RefDn::parse("o=grid").unwrap(),
            &RefDn::parse("giis=top, o=world").unwrap(),
        )
        .unwrap();
    assert_eq!(f2.to_string(), o2.to_string());
}
