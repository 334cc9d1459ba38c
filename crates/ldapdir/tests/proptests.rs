//! Property-based tests for the LDAP directory substrate.
//!
//! Three certificates stand in for the implementations the fast paths
//! replaced: an `Entry` behaves like a `BTreeMap<String, Vec<String>>` of
//! lowercased attribute names, a DIT search in any scope returns what a
//! scan of every entry keeps under a filter read over the entry's
//! strings, and any sequence of DIT writes does to the tree what it does
//! to a map of DN component strings.  The three text parsers — filter,
//! DN and LDIF — answer any input with a value or a typed error, never a
//! panic.

use gintern::intern;
use ldapdir::{entry_to_ldif, parse_ldif, Dit, DitError, Dn, Entry, Filter, Pair, Scope};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_dn_component() -> impl Strategy<Value = (String, String)> {
    ("[a-z][a-z0-9-]{0,6}", "[a-z0-9][a-z0-9.]{0,8}").prop_map(|(a, v)| (a, v))
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-z][a-z0-9-]{0,5}", "[a-z0-9]{1,6}").prop_map(|(a, v)| Filter::Eq(intern(&a), v)),
        "[a-z][a-z0-9-]{0,5}".prop_map(|a| Filter::Present(intern(&a))),
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
        probes in proptest::collection::vec(arb_probe_attr(), 0..8),
    ) {
        let mut entry = Entry::new(Dn::parse("host=lucky3, vo=Cms, o=grid").unwrap());
        let mut model = Attrs::new();
        for op in &ops {
            let (before, was) = (entry.clone(), model.clone());
            apply(&mut entry, &mut model, op);
            assert_same(&entry, &model);
            prop_assert_eq!(before == entry, was == model, "{:?}", op);
        }
        for a in &probes {
            let values = model.get(&a.to_ascii_lowercase()).map_or(&[][..], Vec::as_slice);
            prop_assert!(entry.get(a).iter().all(|(k, _)| k.as_str() == a.to_ascii_lowercase()));
            prop_assert_eq!(value_texts(entry.get(a)), values);
        }
    }

    /// Projection keeps the selected attributes of the model — names
    /// absent from the entry and mixed-case requests included.
    #[test]
    fn projection_matches_map_model(
        ops in proptest::collection::vec(arb_op(), 0..30),
        selection in proptest::collection::vec(arb_probe_attr(), 0..6),
    ) {
        let mut entry = Entry::new(Dn::parse("vo=atlas, o=grid").unwrap());
        let mut full = Attrs::new();
        for op in &ops {
            apply(&mut entry, &mut full, op);
        }
        let mut model = Attrs::new();
        for a in selection.iter().map(|a| a.to_ascii_lowercase()) {
            if let Some(vs) = full.get(&a) {
                model.entry(a).or_default().extend(vs.iter().cloned());
            }
        }
        let projected = entry.project(&selection);
        assert_same(&projected, &model);
    }

    /// Every (tree, scope, filter) triple returns identical hit lists.
    #[test]
    fn search_agrees_with_reference(spec in arb_spec(), filter in arb_tree_filter()) {
        let (dit, suffix) = build_dit(&spec);
        for scope in [Scope::Base, Scope::One, Scope::Sub] {
            assert_same_search(&dit, &suffix, scope, &filter);
            assert_same_search(&dit, &suffix, scope, &Filter::any());
        }
        // Non-suffix bases too: a `vo=` child, a `host=` grandchild (a
        // leaf) and missing ones.
        let vo = spec.first().map(|(name, _)| suffix.child("vo", name));
        let host = spec.get(1).map(|(name, _)| suffix.child("vo", name).child("host", "h1"));
        for base in vo.iter().chain(&host) {
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                assert_same_search(&dit, base, scope, &filter);
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

proptest! {
    /// Every write agrees with the map model on its `Ok`/`Err` (variant
    /// and DN) and a removal's count, and after it on `len`, the entries
    /// in DN order with their attributes, and whether the generation moved.
    #[test]
    fn dit_writes_match_map_model(ops in proptest::collection::vec(arb_write(), 0..48)) {
        let mut dit = Dit::new(Dn::parse("o=grid").unwrap());
        let mut model = Tree::new();
        model.insert(vec![comp("o", "grid")], vec![comp("objectclass", "top")]);
        for op in &ops {
            let before = dit.generation();
            let (got, want) = match op {
                Write::Add(dn, attrs) => {
                    (dit.add(entry(dn, attrs)).map(drop), model_add(&mut model, dn, attrs, false))
                }
                Write::AddWithParents(dn, attrs) => (
                    dit.add_with_parents(entry(dn, attrs)).map(drop),
                    model_add(&mut model, dn, attrs, true),
                ),
                Write::Upsert(dn, attrs) => {
                    (dit.upsert(entry(dn, attrs)).map(drop), model_upsert(&mut model, dn, attrs))
                }
                Write::Reannounce(i, copy) => {
                    // A stored entry again: shared (the pointer path) or
                    // rebuilt from its strings (the deep compare).
                    let Some(stored) = dit.iter().nth(i % dit.scan_size().max(1)).cloned() else {
                        continue;
                    };
                    let key = key_of(&stored.dn);
                    let attrs = model[&key].clone();
                    let e = if *copy { entry(&key, &attrs) } else { stored };
                    (dit.upsert(e).map(drop), model_upsert(&mut model, &key, &attrs))
                }
                Write::Remove(dn) => {
                    let stored = model.len();
                    let (got, want) = (dit.remove_subtree(&dn_of(dn)), model_remove(&mut model, dn));
                    if let Ok(n) = got {
                        prop_assert_eq!(n, stored - model.len(), "removed count, {:?}", op);
                    }
                    (got.map(drop), want)
                }
            };
            let got = got.map_err(|e| match e {
                DitError::NotUnderSuffix(dn) => ("NotUnderSuffix", key_of(&dn)),
                DitError::NoParent(dn) => ("NoParent", key_of(&dn)),
                DitError::Duplicate(dn) => ("Duplicate", key_of(&dn)),
                DitError::NoSuchEntry(dn) => ("NoSuchEntry", key_of(&dn)),
            });
            let moved = *want.as_ref().unwrap_or(&false);
            prop_assert_eq!(got, want.map(drop), "{:?}", op);
            prop_assert_eq!(dit.generation() != before, moved, "{:?}", op);
            prop_assert_eq!(dit.scan_size(), model.len());
            let stored: Vec<(Key, Lines)> = dit
                .iter()
                .map(|e| {
                    (key_of(&e.dn), e.iter().map(|(a, v)| comp(a, v)).collect())
                })
                .collect();
            let modelled: Vec<(Key, Lines)> = model
                .iter()
                .map(|(k, attrs)| (k.clone(), sorted(attrs)))
                .collect();
            prop_assert_eq!(stored, modelled);
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
    /// Clone the entry, mutate the clone, drop it: the original must
    /// be unaffected (copy-on-write split).
    CloneMutate(String, String),
}

/// Three names (`a`, `bb`, `ccc`) in mixed case, so the ops pile
/// several values on each and the runs sit side by side.
fn arb_attr() -> impl Strategy<Value = String> {
    prop_oneof!["[aA]", "[bB]{2}", "[cC]{3}"]
}

/// The entry's names and two it never holds: one sorting between them,
/// one after.
fn arb_probe_attr() -> impl Strategy<Value = String> {
    prop_oneof![arb_attr(), "[bB]", "[dD]"]
}

/// Values from a small alphabet in mixed case, so runs repeat values
/// and `has_value` finds some case-insensitively.
fn arb_value() -> impl Strategy<Value = String> {
    "[xyXY1]{0,2}"
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_attr(), arb_value()).prop_map(|(a, v)| Op::Add(a, v)),
        (arb_attr(), arb_value()).prop_map(|(a, v)| Op::Add(a, v)),
        (arb_attr(), arb_value()).prop_map(|(a, v)| Op::Add(a, v)),
        (arb_attr(), arb_value()).prop_map(|(a, v)| Op::Put(a, v)),
        (arb_attr(), arb_value()).prop_map(|(a, v)| Op::CloneMutate(a, v)),
    ]
}

/// `op` on the entry and on the model.
fn apply(entry: &mut Entry, model: &mut Attrs, op: &Op) {
    match op {
        Op::Add(a, v) => {
            entry.add(a, v.clone());
            model
                .entry(a.to_ascii_lowercase())
                .or_default()
                .push(v.clone());
        }
        Op::Put(a, v) => {
            entry.put(a, v.clone());
            model.insert(a.to_ascii_lowercase(), vec![v.clone()]);
        }
        Op::CloneMutate(a, v) => {
            // The clone shares attrs (Rc); its mutation must split,
            // never write through to `entry`.
            let mut shared = entry.clone();
            assert!(shared.shares_attrs_with(entry));
            shared.add(a, v.clone());
            assert!(!shared.shares_attrs_with(entry));
        }
    }
}

fn value_texts(run: &[Pair]) -> Vec<&str> {
    run.iter().map(|(_, v)| &**v).collect()
}

/// Same lines in the same order as the model, the same runs by name,
/// the LDIF of the DN's rendering plus one `attr: value` line per value
/// and its size, and equal to an entry built afresh from the model.
fn assert_same(entry: &Entry, model: &Attrs) {
    let want: Vec<(&str, &str)> = model
        .iter()
        .flat_map(|(a, vs)| vs.iter().map(move |v| (a.as_str(), v.as_str())))
        .collect();
    assert_eq!(entry.iter().collect::<Vec<_>>(), want);
    for (a, vs) in model {
        assert_eq!(value_texts(entry.get(&a.to_ascii_uppercase())), *vs);
    }
    let mut ldif = format!("dn: {}\n", entry.dn);
    for (a, v) in &want {
        ldif.push_str(&format!("{a}: {v}\n"));
    }
    assert_eq!(entry_to_ldif(entry), ldif);
    assert_eq!(entry.wire_size(), ldif.len() as u64);
    let mut rebuilt = Entry::new(entry.dn.clone());
    for (a, v) in &want {
        rebuilt.add(a, *v);
    }
    assert_eq!(*entry, rebuilt);
}

// ----------------------------------------------------------------------
// DIT search against a scan
// ----------------------------------------------------------------------

fn arb_tree_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-c]", "[a-z0-9]{1,4}").prop_map(|(a, v)| Filter::Eq(intern(&a), v)),
        "[a-c]".prop_map(|a| Filter::Present(intern(&a))),
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
/// `base` and the filter both hold — no fast path.
fn search_reference<'a>(dit: &'a Dit, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&'a Entry> {
    dit.iter()
        .filter(|e| match scope {
            Scope::Base => e.dn == *base,
            Scope::One => e.dn.is_child_of(base),
            Scope::Sub => e.dn.is_under(base),
        })
        .filter(|e| holds(filter, e))
        .collect()
}

/// `filter` read over the strings `Entry::iter` lists: an attribute is
/// found by its name's text, so this shares no code with
/// `Filter::matches`, which compares the symbols bound at parse.
fn holds(filter: &Filter, e: &Entry) -> bool {
    let values = |name: &str| -> Vec<&str> {
        let lines = e.iter().filter(|(a, _)| *a == name);
        lines.map(|(_, v)| v).collect()
    };
    match filter {
        Filter::And(fs) => fs.iter().all(|f| holds(f, e)),
        Filter::Or(fs) => fs.iter().any(|f| holds(f, e)),
        Filter::Not(f) => !holds(f, e),
        Filter::Eq(a, v) => values(a.as_str()).iter().any(|x| x.eq_ignore_ascii_case(v)),
        Filter::Present(a) => !values(a.as_str()).is_empty(),
    }
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

// ----------------------------------------------------------------------
// DIT writes against a map
// ----------------------------------------------------------------------

/// A DN as its `(type, value)` strings, most specific first.  Ordered as
/// a `Vec` of string pairs, which is the order `Dn` promises.
type Key = Vec<(String, String)>;
/// An entry's `(type, value)` lines in insertion order.
type Lines = Vec<(String, String)>;
/// The model: every stored DN, in DN order, with its attribute lines.
type Tree = BTreeMap<Key, Lines>;

/// What the model answers a write: `Ok(moved)` or the error's variant
/// and DN.
type Answer = Result<bool, (&'static str, Key)>;

#[derive(Debug, Clone)]
enum Write {
    Add(Key, Lines),
    AddWithParents(Key, Lines),
    Upsert(Key, Lines),
    /// Upsert the `i`-th stored entry again; `true`: a fresh copy.
    Reannounce(usize, bool),
    Remove(Key),
}

fn comp(a: &str, v: &str) -> (String, String) {
    (a.to_string(), v.to_string())
}

/// DNs of depth 0 to 3 over a two-letter alphabet, mostly under the
/// suffix `o=grid`, so writes collide, nest and miss their parents.
fn arb_key() -> impl Strategy<Value = Key> {
    let rdns = proptest::collection::vec(("[ab]", "[12]"), 0..4);
    let top = prop_oneof![
        Just(vec![comp("o", "grid")]),
        Just(vec![comp("o", "grid")]),
        Just(vec![comp("o", "grid")]),
        Just(vec![comp("o", "else")]),
        Just(vec![]),
    ];
    (rdns, top).prop_map(|(rdns, top)| rdns.into_iter().chain(top).collect())
}

fn arb_attrs() -> impl Strategy<Value = Lines> {
    proptest::collection::vec(("[ab]", "[12]"), 0..3)
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (arb_key(), arb_attrs()).prop_map(|(k, a)| Write::Add(k, a)),
        (arb_key(), arb_attrs()).prop_map(|(k, a)| Write::AddWithParents(k, a)),
        (arb_key(), arb_attrs()).prop_map(|(k, a)| Write::Upsert(k, a)),
        (0..64usize, any::<bool>()).prop_map(|(i, copy)| Write::Reannounce(i, copy)),
        arb_key().prop_map(Write::Remove),
    ]
}

fn dn_of(key: &Key) -> Dn {
    let text: Vec<String> = key.iter().map(|(a, v)| format!("{a}={v}")).collect();
    Dn::parse(&text.join(", ")).unwrap()
}

fn key_of(dn: &Dn) -> Key {
    let text = dn.to_string();
    let rdns = text.split(", ").filter(|r| !r.is_empty());
    rdns.map(|r| {
        let (a, v) = r.split_once('=').unwrap();
        comp(a, v)
    })
    .collect()
}

fn entry(key: &Key, attrs: &Lines) -> Entry {
    let mut e = Entry::new(dn_of(key));
    for (a, v) in attrs {
        e.add(a, v.clone());
    }
    e
}

/// Attribute lines as `Entry::iter` lists them: by name, values in
/// insertion order.
fn sorted(attrs: &Lines) -> Lines {
    let mut out = attrs.clone();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

fn is_under(key: &Key, top: &Key) -> bool {
    key.len() >= top.len() && key[key.len() - top.len()..] == top[..]
}

/// `add` (`with_parents == false`) and `add_with_parents`, as slapd
/// does them: the missing ancestors below the suffix are made as
/// `objectclass: top` placeholders, the one nearest the suffix first,
/// and each needs its own parent.
fn model_add(tree: &mut Tree, key: &Key, attrs: &Lines, with_parents: bool) -> Answer {
    let suffix = vec![comp("o", "grid")];
    if !is_under(key, &suffix) {
        return Err(("NotUnderSuffix", key.clone()));
    }
    let mut chain = vec![key.clone()];
    while with_parents && !chain.last().unwrap().is_empty() {
        let parent = chain.last().unwrap()[1..].to_vec();
        if parent == suffix || tree.contains_key(&parent) {
            break;
        }
        chain.push(parent);
    }
    // The entry itself last; a placeholder of a stored DN cannot occur.
    while let Some(k) = chain.pop() {
        if !is_under(&k, &suffix) {
            return Err(("NotUnderSuffix", k));
        }
        if tree.contains_key(&k) {
            return Err(("Duplicate", k));
        }
        if !tree.contains_key(&k[1..]) {
            return Err(("NoParent", k));
        }
        let lines = if chain.is_empty() {
            attrs.clone()
        } else {
            vec![comp("objectclass", "top")]
        };
        tree.insert(k, lines);
    }
    Ok(true)
}

/// `upsert`: a stored DN is replaced only when its lines differ; a new
/// one is `add_with_parents`.
fn model_upsert(tree: &mut Tree, key: &Key, attrs: &Lines) -> Answer {
    match tree.get_mut(key) {
        Some(old) => {
            let moved = sorted(old) != sorted(attrs);
            *old = attrs.clone();
            Ok(moved)
        }
        _ => model_add(tree, key, attrs, true),
    }
}

fn model_remove(tree: &mut Tree, key: &Key) -> Answer {
    if !tree.contains_key(key) {
        return Err(("NoSuchEntry", key.clone()));
    }
    tree.retain(|k, _| !is_under(k, key));
    Ok(true)
}
