//! Interned symbols vs plain strings.
//!
//! `Sym` replaces `String` keys throughout the hot paths on three
//! promises: id equality is string equality (the per-thread table is
//! deduplicated), `Ord` is the resolved strings' order (so every
//! `BTreeMap<Sym, _>` iterates exactly like the `BTreeMap<String, _>`
//! it replaced — the figure CSVs are pinned on that order), and
//! `lookup` probes without inserting (a miss proves the string was
//! never interned, which the `HashMap<Sym, _>` probe pattern relies
//! on).  This suite checks each promise against the `String` oracle.

use gintern::Sym;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_name() -> impl Strategy<Value = String> {
    // The real vocabulary: short, repeat-heavy identifiers.
    "[a-d0-3]{0,6}"
}

proptest! {
    /// Eq/Ord/Display on `Sym` behave exactly like the strings they
    /// intern — including the case where both sides intern the same
    /// string and must collapse to one id.
    #[test]
    fn sym_relations_match_string_relations(a in arb_name(), b in arb_name()) {
        let (sa, sb) = (gintern::intern(&a), gintern::intern(&b));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
        prop_assert_eq!(sa.as_str(), a.as_str());
        prop_assert_eq!(sa.to_string(), a.clone());
        // Re-interning is stable.
        prop_assert_eq!(gintern::intern(&a), sa);
        // A probe after interning always hits.
        prop_assert_eq!(gintern::lookup(&a), Some(sa));
    }

    /// A `BTreeMap<Sym, _>` built from any insertion sequence iterates
    /// in the same key order as the `BTreeMap<String, _>` oracle, and
    /// resolves the same values.
    #[test]
    fn btreemap_iteration_order_is_preserved(
        entries in proptest::collection::vec((arb_name(), 0u32..100), 0..32)
    ) {
        let mut by_sym: BTreeMap<Sym, u32> = BTreeMap::new();
        let mut by_str: BTreeMap<String, u32> = BTreeMap::new();
        for (k, v) in &entries {
            by_sym.insert(gintern::intern(k), *v);
            by_str.insert(k.clone(), *v);
        }
        prop_assert_eq!(by_sym.len(), by_str.len());
        for ((sk, sv), (tk, tv)) in by_sym.iter().zip(by_str.iter()) {
            prop_assert_eq!(sk.as_str(), tk.as_str());
            prop_assert_eq!(sv, tv);
        }
    }
}

#[test]
fn lookup_does_not_intern() {
    // A name that nothing in this test binary interns: a miss, and
    // still a miss afterwards (lookup must not grow the table).
    let probe = "intern-diff-never-interned-name";
    assert_eq!(gintern::lookup(probe), None);
    assert_eq!(gintern::lookup(probe), None);
    let len_before = gintern::table_len();
    assert_eq!(gintern::lookup(probe), None);
    assert_eq!(gintern::table_len(), len_before);
    // Interning it afterwards works and makes the probe hit.
    let sym = gintern::intern(probe);
    assert_eq!(gintern::lookup(probe), Some(sym));
}
