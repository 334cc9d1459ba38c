//! The DIT generation, the stamp GRIS and GIIS keep their replies on.
//!
//! The generation is change-aware: it must move whenever search-visible
//! content changed, and must *not* move when an `upsert` re-announces an
//! entry equal to the stored one.  That a reply kept on it equals a
//! fresh one is certified against whole services in
//! `crates/bench/tests/kept_answers.rs`; here the search itself must
//! equal an exhaustive scan after every step.

use ldapdir::{Dit, Dn, Entry, Filter, Scope};
use proptest::prelude::*;

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-c]", "[a-z0-9]{1,4}").prop_map(|(a, v)| Filter::Eq(gintern::intern(&a), v)),
        "[a-c]".prop_map(|a| Filter::Present(gintern::intern(&a))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

/// A random tree: suffix `o=grid`, depth-1 `vo=` entries, depth-2
/// `host=` children, attributes from the filter alphabet.
fn build_dit(spec: &[(String, Vec<(String, String)>)]) -> (Dit, Dn) {
    let suffix = Dn::parse("o=grid").unwrap();
    let mut dit = Dit::new(suffix.clone());
    for (i, (name, attrs)) in spec.iter().enumerate() {
        let dn = if i % 3 == 0 {
            suffix.child("vo", name)
        } else {
            suffix.child("vo", name).child("host", &format!("h{i}"))
        };
        let mut e = Entry::new(dn);
        e.add("objectclass", "thing");
        for (a, v) in attrs {
            e.add(a, v);
        }
        let _ = dit.upsert(e);
    }
    (dit, suffix)
}

fn arb_spec() -> impl Strategy<Value = Vec<(String, Vec<(String, String)>)>> {
    proptest::collection::vec(
        (
            "[a-z0-9]{1,5}",
            proptest::collection::vec(("[a-c]", "[a-z0-9]{1,4}"), 0..4),
        ),
        0..24,
    )
}

/// The oracle: every entry, in DN order, kept when the scope relation to
/// `base` and the filter both hold — no child index, no fast path.
fn search_reference<'a>(dit: &'a Dit, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&'a Entry> {
    dit.iter()
        .filter(|e| match scope {
            Scope::Base => e.dn == *base,
            Scope::One => e.dn.is_child_of(base),
            Scope::Sub => e.dn.is_under(base),
        })
        .filter(|e| filter.matches(e))
        .collect()
}

fn assert_same_search(dit: &Dit, base: &Dn, scope: Scope, filter: &Filter) {
    let fast: Vec<String> = dit
        .search(base, scope, filter)
        .iter()
        .map(|e| e.dn.to_string())
        .collect();
    let slow: Vec<String> = search_reference(dit, base, scope, filter)
        .iter()
        .map(|e| e.dn.to_string())
        .collect();
    assert_eq!(
        fast, slow,
        "search diverged for scope {scope:?} filter {filter}"
    );
}

proptest! {
    /// Random soft-state traffic: after every step the generation has
    /// moved if the content did, has not moved if the step re-announced
    /// an identical entry, and the search equals the reference scan.
    #[test]
    fn generation_tracks_content(
        spec in arb_spec(),
        filter in arb_filter(),
        steps in proptest::collection::vec(
            (0..6u8, 0..64usize, "[a-c]", "[a-z0-9]{1,4}"),
            1..24,
        ),
    ) {
        let (mut dit, suffix) = build_dit(&spec);
        for (op, pick, attr, value) in steps {
            let before_gen = dit.generation();
            let before = content(&dit);
            let target = dit.iter().nth(pick % dit.scan_size()).unwrap().clone();
            let mut must_keep = false;
            match op {
                // Re-announce the stored entry: a CoW clone ...
                0 => {
                    must_keep = true;
                    dit.upsert(target).unwrap();
                }
                // ... or an equal entry built from scratch.
                1 => {
                    must_keep = true;
                    let mut twin = Entry::new(target.dn.clone());
                    for (a, v) in target.iter() {
                        twin.add(a, v);
                    }
                    prop_assert!(!twin.shares_attrs_with(&target));
                    dit.upsert(twin).unwrap();
                }
                // Announce a modified copy.
                2 => {
                    let mut changed = target;
                    changed.add(&attr, value);
                    dit.upsert(changed).unwrap();
                }
                // Announce a new entry (parents created on the way).
                3 => {
                    let mut e = Entry::new(target.dn.child("dev", &value));
                    e.add("objectclass", "thing").add(&attr, value);
                    dit.upsert(e).unwrap();
                }
                // Purge a subtree (the suffix itself included).
                4 => {
                    dit.remove_subtree(&target.dn).unwrap();
                }
                // Announce a copy with one attribute replaced, which may
                // equal the stored entry.
                _ => {
                    let mut changed = target.clone();
                    changed.put(&attr, value);
                    must_keep = changed == target;
                    dit.upsert(changed).unwrap();
                }
            }
            let moved = dit.generation() != before_gen;
            if content(&dit) != before {
                prop_assert!(moved, "content changed under generation {before_gen} (op {op})");
            }
            if must_keep {
                prop_assert!(!moved, "identical upsert moved the generation (op {op})");
            }
            if dit.scan_size() == 0 {
                break; // the suffix was purged; nothing left to address
            }
            assert_same_search(&dit, &suffix, Scope::Sub, &filter);
        }
    }
}

/// Everything a search can see: every entry's DN and attributes.
fn content(dit: &Dit) -> Vec<Entry> {
    dit.iter().cloned().collect()
}
