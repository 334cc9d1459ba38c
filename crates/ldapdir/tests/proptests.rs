//! Property-based tests for the LDAP directory substrate.
//!
//! Two certificates stand in for the implementations the fast paths
//! replaced: an `Entry` behaves like a `BTreeMap<String, Vec<String>>` of
//! lowercased attribute names, and an indexed DIT search returns what a
//! scan of every entry keeps.  The three text parsers — filter, DN and
//! LDIF — answer any input with a value or a typed error, never a panic.

use ldapdir::{parse_ldif, Dit, Dn, Entry, Filter, Scope};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_dn_component() -> impl Strategy<Value = (String, String)> {
    ("[a-z][a-z0-9-]{0,6}", "[a-z0-9][a-z0-9.]{0,8}").prop_map(|(a, v)| (a, v))
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-z][a-z0-9-]{0,5}", "[a-z0-9]{1,6}").prop_map(|(a, v)| Filter::Eq(a, v)),
        "[a-z][a-z0-9-]{0,5}".prop_map(Filter::Present),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

proptest! {
    /// Filter printing/parsing round-trips.
    #[test]
    fn filter_round_trip(f in arb_filter()) {
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse {printed:?}: {e}"));
        prop_assert_eq!(f, reparsed);
    }

    /// DN parse/display round-trips and the parent chain terminates at
    /// root with length == depth.
    #[test]
    fn dn_round_trip_and_parent_chain(comps in proptest::collection::vec(arb_dn_component(), 1..6)) {
        let src: Vec<String> = comps.iter().map(|(a, v)| format!("{a}={v}")).collect();
        let dn = Dn::parse(&src.join(", ")).unwrap();
        prop_assert_eq!(dn.depth(), comps.len());
        let reparsed = Dn::parse(&dn.to_string()).unwrap();
        prop_assert_eq!(&reparsed, &dn);
        // Walk parents to root.
        let mut steps = 0;
        let mut cur = dn.clone();
        while let Some(p) = cur.parent() {
            prop_assert!(cur.is_under(&p));
            prop_assert!(cur.is_child_of(&p));
            cur = p;
            steps += 1;
        }
        prop_assert_eq!(steps, comps.len());
    }

    /// Any op sequence leaves the entry observably equal to the map
    /// model, and every query agrees with it.
    #[test]
    fn entry_matches_map_model(
        ops in proptest::collection::vec(arb_op(), 0..40),
        probes in proptest::collection::vec((arb_attr(), "[a-z0-9]{0,5}"), 0..8),
    ) {
        let mut entry = Entry::new(Dn::parse("host=lucky3, vo=Cms, o=grid").unwrap());
        let mut model = Attrs::new();
        for op in &ops {
            match op {
                Op::Add(a, v) => {
                    entry.add(a, v.clone());
                    model.entry(a.to_ascii_lowercase()).or_default().push(v.clone());
                }
                Op::Put(a, v) => {
                    entry.put(a, v.clone());
                    model.insert(a.to_ascii_lowercase(), vec![v.clone()]);
                }
                Op::Remove(a) => {
                    let had = model.remove(&a.to_ascii_lowercase()).is_some();
                    prop_assert_eq!(entry.remove(a), had);
                }
                Op::CloneMutate(a, v) => {
                    // The clone shares attrs (Rc); its mutation must
                    // split, never write through to `entry`.
                    let mut shared = entry.clone();
                    prop_assert!(shared.shares_attrs_with(&entry));
                    shared.add(a, v.clone());
                    prop_assert!(!shared.shares_attrs_with(&entry));
                }
            }
            assert_same(&entry, &model);
        }
        for (a, v) in &probes {
            let values = model.get(&a.to_ascii_lowercase()).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(entry.get(a), values);
            prop_assert_eq!(entry.has_attr(a), model.contains_key(&a.to_ascii_lowercase()));
            prop_assert_eq!(entry.has_value(a, v), values.iter().any(|x| x.eq_ignore_ascii_case(v)));
        }
    }

    /// Projection keeps the selected attributes of the model — names
    /// absent from the entry and mixed-case requests included — and the
    /// projected wire size is the projection's wire size.
    #[test]
    fn projection_matches_map_model(
        adds in proptest::collection::vec((arb_attr(), "[a-z0-9]{0,5}"), 0..20),
        selection in proptest::collection::vec(arb_attr(), 0..6),
    ) {
        let mut entry = Entry::new(Dn::parse("vo=atlas, o=grid").unwrap());
        let mut full = Attrs::new();
        for (a, v) in &adds {
            entry.add(a, v.clone());
            full.entry(a.to_ascii_lowercase()).or_default().push(v.clone());
        }
        let mut model = Attrs::new();
        for a in selection.iter().map(|a| a.to_ascii_lowercase()) {
            if let Some(vs) = full.get(&a) {
                model.entry(a).or_default().extend(vs.iter().cloned());
            }
        }
        let projected = entry.project(&selection);
        assert_same(&projected, &model);
        prop_assert_eq!(entry.projected_wire_size(&selection), projected.wire_size());
    }

    /// Every (tree, scope, filter) triple returns identical hit lists.
    #[test]
    fn search_agrees_with_reference(spec in arb_spec(), filter in arb_tree_filter()) {
        let (dit, suffix) = build_dit(&spec);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert_same_search(&dit, &suffix, scope, &filter);
            assert_same_search(&dit, &suffix, scope, &Filter::any());
        }
        // Non-suffix bases too (including missing ones).
        if let Some((name, _)) = spec.first() {
            let base = suffix.child("vo", name);
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                assert_same_search(&dit, &base, scope, &filter);
            }
        }
        let missing = suffix.child("vo", "no-such-vo");
        assert_same_search(&dit, &missing, Scope::Sub, &filter);
    }

    /// Mutations (remove_subtree + upsert of a new entry) keep the paths
    /// agreeing and move the generation counter the MDS cache depends on.
    #[test]
    fn mutated_tree_still_agrees(spec in arb_spec(), filter in arb_tree_filter()) {
        let (mut dit, suffix) = build_dit(&spec);
        let before = dit.generation();
        if let Some((name, _)) = spec.first() {
            let victim = suffix.child("vo", name);
            let _ = dit.remove_subtree(&victim);
            prop_assert!(dit.generation() > before, "mutation must bump generation");
        }
        let mut e = Entry::new(suffix.child("vo", "fresh"));
        e.add("objectclass", "thing");
        e.add("a", "zz9");
        let _ = dit.upsert(e);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert_same_search(&dit, &suffix, scope, &filter);
        }
    }
}

// ----------------------------------------------------------------------
// Hostile text
// ----------------------------------------------------------------------

/// Characters the three grammars give meaning to — parentheses, the
/// filter operators, `*`, `=`, `,`, `+`, escapes, quotes, LDIF's `:` and
/// line breaks — plus a letter run and a multi-byte char.
const HOSTILE: &str = "[a-cA-C0-9()&|!*=<>~,+;:\\\" \n#é-]{0,48}";

proptest! {
    #[test]
    fn filter_parse_never_panics(src in HOSTILE) {
        let _ = Filter::parse(&src);
    }

    #[test]
    fn dn_parse_never_panics(src in HOSTILE) {
        let _ = Dn::parse(&src);
    }

    /// LDIF records built from hostile `dn:` values and attribute lines,
    /// so the parser gets past its first line.
    #[test]
    fn ldif_parse_never_panics(records in proptest::collection::vec(
        (HOSTILE, proptest::collection::vec(HOSTILE, 0..4)), 0..4)) {
        let text: String = records
            .iter()
            .map(|(dn, lines)| format!("dn: {dn}\n{}\n\n", lines.join("\n")))
            .collect();
        let _ = parse_ldif(&text);
    }

    /// Arbitrary bytes, read as UTF-8 with replacement, never panic any
    /// of the three.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Filter::parse(&text);
        let _ = Dn::parse(&text);
        let _ = parse_ldif(&text);
    }
}

// ----------------------------------------------------------------------
// `Entry` against a map
// ----------------------------------------------------------------------

/// The certificate: lowercased attribute name -> values, in string order.
type Attrs = BTreeMap<String, Vec<String>>;

/// One step of an entry workout.  Attribute names mix cases to cover
/// the lowercase-normalisation paths.
#[derive(Debug, Clone)]
enum Op {
    Add(String, String),
    Put(String, String),
    Remove(String),
    /// Clone the entry, mutate the clone, drop it: the original must
    /// be unaffected (copy-on-write split).
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

/// Same attributes, values and order as the model, and the LDIF size of
/// the DN's rendering plus one `attr: value` line per value.
fn assert_same(entry: &Entry, model: &Attrs) {
    let want: Vec<(&str, &[String])> = model.iter().map(|(a, vs)| (a.as_str(), &vs[..])).collect();
    assert_eq!(entry.iter().collect::<Vec<_>>(), want);
    assert_eq!(entry.attr_count(), model.len());
    let lines: usize = model
        .iter()
        .flat_map(|(a, vs)| vs.iter().map(|v| a.len() + v.len() + 3))
        .sum();
    assert_eq!(
        entry.wire_size(),
        (entry.dn.to_string().len() + 5 + lines) as u64
    );
}

// ----------------------------------------------------------------------
// Indexed search against a scan
// ----------------------------------------------------------------------

fn arb_tree_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-c]", "[a-z0-9]{1,4}").prop_map(|(a, v)| Filter::Eq(a, v)),
        "[a-c]".prop_map(Filter::Present),
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
