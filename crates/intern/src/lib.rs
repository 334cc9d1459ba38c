//! String interning for the simulation hot paths.
//!
//! The monitored-system models churn through a small, stable
//! vocabulary — LDAP attribute types, values and DN components, ClassAd
//! identifiers, SQL table and column names — yet the original
//! representations carried each occurrence as an owned `String`:
//! every `Dn::clone` paid one allocation per component, every
//! projection re-allocated attribute names it had already seen a
//! million times.  [`Sym`] replaces those strings with a `u32` handle
//! into a per-thread table:
//!
//! * [`intern`] returns the symbol for a string, allocating (once,
//!   leaked) only the first time the thread sees it;
//! * `Sym` is `Copy`, so cloning any structure built from symbols
//!   stops allocating;
//! * equality and hashing compare the `u32` id — within a thread the
//!   table is deduplicated, so id equality *is* string equality;
//! * **ordering is string order, read from a kept rank**, so a
//!   `BTreeMap<Sym, _>` iterates in exactly the order the
//!   `BTreeMap<String, _>` it replaced did.  Bit-identical iteration
//!   order is a correctness requirement here: result caps and merge
//!   orders downstream (e.g. the GIIS payload cap) are sensitive to
//!   it, and the figure CSVs are pinned byte-for-byte.
//!
//! # Scope: one table per thread
//!
//! The table is thread-local, which in this workspace means
//! per-harness: a simulation world is built and run on a single
//! worker thread, and nothing interned ever crosses threads (worker
//! results are plain measurements).  A `Sym` moved to another thread
//! would resolve against that thread's unrelated table — don't ship
//! symbols across threads, and don't cache them in process-global
//! state.
//!
//! The table leaks its strings by design: the vocabulary is bounded
//! by the deployment (attribute schema, host names, column names, the
//! LDAP values its providers publish), a worker thread runs many points,
//! and `&'static str` resolution is what lets [`Sym::as_str`] hand out
//! borrows without lifetimes or locks.  Only `ldapdir::parse_ldif` of
//! foreign text (tests, probes) interns values from outside it.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

thread_local! {
    static TABLE: RefCell<Interner> = RefCell::new(Interner::new());
}

struct Interner {
    /// String -> id.  Keys borrow from the leaked strings in `strings`.
    ids: HashMap<&'static str, u32>,
    /// id -> string.
    strings: Vec<&'static str>,
    /// id -> the string's position in sorted order.
    rank: Vec<u32>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            ids: HashMap::new(),
            strings: Vec::new(),
            rank: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.strings.len()).expect("interner table overflow");
        // `s` ranks above the strings below it and moves the rest up one.
        let rank = self.strings.iter().filter(|t| **t < s).count() as u32;
        for r in self.rank.iter_mut().filter(|r| **r >= rank) {
            *r += 1;
        }
        self.strings.push(leaked);
        self.rank.push(rank);
        self.ids.insert(leaked, id);
        id
    }
}

/// An interned string: a `Copy` handle valid on the thread that
/// interned it.  See the module docs for the ordering/equality
/// contract.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Intern `s` on this thread's table, allocating only on first sight.
pub fn intern(s: &str) -> Sym {
    Sym(TABLE.with(|t| t.borrow_mut().intern(s)))
}

/// The symbol for `s` if this thread has already interned it, without
/// inserting.  Useful for lookups: if a key was never interned it
/// cannot be present in any symbol-keyed container on this thread.
pub fn lookup(s: &str) -> Option<Sym> {
    TABLE.with(|t| t.borrow().ids.get(s).copied().map(Sym))
}

/// Intern the ASCII-lowercase form of `s`, lowercasing a name of up to
/// 64 bytes on the stack: only a longer one allocates.
pub fn intern_lower(s: &str) -> Sym {
    with_lower(s, intern)
}

/// [`lookup`] of the ASCII-lowercase form of `s`, as [`intern_lower`].
pub fn lookup_lower(s: &str) -> Option<Sym> {
    with_lower(s, lookup)
}

fn with_lower<R>(s: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; 64];
    match buf.get_mut(..s.len()) {
        _ if !s.bytes().any(|b| b.is_ascii_uppercase()) => f(s),
        Some(buf) => {
            buf.copy_from_slice(s.as_bytes());
            buf.make_ascii_lowercase();
            f(std::str::from_utf8(buf).expect("ASCII lowercasing keeps UTF-8"))
        }
        None => f(&s.to_ascii_lowercase()),
    }
}

/// Number of distinct strings this thread has interned (diagnostics).
pub fn table_len() -> usize {
    TABLE.with(|t| t.borrow().strings.len())
}

impl Sym {
    /// Resolve to the interned string.  `&'static` because the table
    /// leaks: the borrow outlives every symbol user on this thread.
    pub fn as_str(self) -> &'static str {
        TABLE.with(|t| {
            t.borrow()
                .strings
                .get(self.0 as usize)
                .copied()
                .expect("Sym resolved on a thread that did not intern it")
        })
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    #[inline]
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        TABLE.with(|t| {
            let (t, a, b) = (t.borrow(), self.0 as usize, other.0 as usize);
            debug_assert_eq!(t.rank[a] < t.rank[b], t.strings[a] < t.strings[b]);
            t.rank[a].cmp(&t.rank[b])
        })
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?}#{})", self.as_str(), self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn interning_deduplicates() {
        let a = intern("objectclass");
        let b = intern("objectclass");
        assert_eq!(a, b);
        assert_eq!(a.0, b.0);
        assert_eq!(a.as_str(), "objectclass");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = intern("mds-host-hn");
        let b = intern("mds-vo-name");
        assert_ne!(a, b);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn lookup_does_not_insert() {
        let before = table_len();
        assert_eq!(lookup("gintern-test-never-interned-key"), None);
        assert_eq!(table_len(), before);
        let s = intern("gintern-test-now-interned");
        assert_eq!(lookup("gintern-test-now-interned"), Some(s));
    }

    #[test]
    fn ordering_matches_string_ordering() {
        // Intern in an order unrelated to lexicographic order: the id
        // order must not leak into comparisons.
        let words = ["zeta", "alpha", "mu", "beta", "omega"];
        let syms: Vec<Sym> = words.iter().map(|w| intern(w)).collect();
        let mut by_sym = syms.clone();
        by_sym.sort();
        let mut by_str = words;
        by_str.sort();
        assert_eq!(
            by_sym.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            by_str.to_vec()
        );
    }

    #[test]
    fn btreemap_iterates_in_string_order() {
        let mut m: BTreeMap<Sym, u32> = BTreeMap::new();
        for (i, w) in ["x", "c", "aa", "b"].iter().enumerate() {
            m.insert(intern(w), i as u32);
        }
        let keys: Vec<&str> = m.keys().map(|s| s.as_str()).collect();
        assert_eq!(keys, ["aa", "b", "c", "x"]);
    }

    #[test]
    fn ranks_follow_string_order_whatever_order_strings_arrive_in() {
        // A fresh thread starts with an empty table, so every rank below
        // is assigned by this test.
        std::thread::spawn(|| {
            assert_eq!(table_len(), 0);
            // Binary numerals are often prefixes of each other ("1", "10",
            // "101"); the empty string sorts below them all.
            let mut words: Vec<String> = (0..2399u32).map(|i| format!("{i:b}")).collect();
            words.push(String::new());
            words.sort();
            // The lowest third arrives ascending, the middle descending,
            // the top alternately from either end.
            let (asc, rest) = words.split_at(800);
            let (desc, top) = rest.split_at(800);
            let (front, back) = top.split_at(400);
            let interleaved = front
                .iter()
                .zip(back.iter().rev())
                .flat_map(|(a, b)| [a, b]);
            let arrival: Vec<&String> = asc
                .iter()
                .chain(desc.iter().rev())
                .chain(interleaved)
                .collect();
            assert_eq!(arrival.len(), words.len());
            let syms: Vec<Sym> = arrival.iter().map(|w| intern(w)).collect();
            assert_eq!(table_len(), words.len());

            let mut by_sym = syms.clone();
            by_sym.sort();
            let by_sym: Vec<&str> = by_sym.iter().map(|s| s.as_str()).collect();
            assert_eq!(by_sym, words);

            let m: BTreeMap<Sym, usize> = syms.into_iter().zip(0..).collect();
            let oracle: BTreeMap<String, usize> = arrival.into_iter().cloned().zip(0..).collect();
            let m: Vec<(&str, usize)> = m.iter().map(|(s, &v)| (s.as_str(), v)).collect();
            let oracle: Vec<(&str, usize)> = oracle.iter().map(|(w, &v)| (w.as_str(), v)).collect();
            assert_eq!(m, oracle);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn deref_and_display() {
        let s = intern("mds-cpu-total-count");
        assert_eq!(s.len(), "mds-cpu-total-count".len());
        assert!(s.starts_with("mds-"));
        assert_eq!(format!("{s}"), "mds-cpu-total-count");
        assert_eq!(s.to_string(), "mds-cpu-total-count");
        assert_eq!(s, "mds-cpu-total-count");
    }

    #[test]
    fn lowercase_forms_share_one_symbol() {
        let long = "Mds-".repeat(20); // past the stack buffer
        for name in ["Mds-Cpu-Total-count", "objectclass", "ÅNGSTRÖM-Ab", &long] {
            let lower = name.to_ascii_lowercase();
            assert_eq!(lookup_lower(&format!("{name}-gintern-unseen")), None);
            assert_eq!(intern_lower(name), intern(&lower), "{name}");
            assert_eq!(lookup_lower(name), Some(intern(&lower)), "{name}");
        }
    }

    #[test]
    fn reinterning_does_not_grow_the_table() {
        intern("gintern-test-growth-probe");
        let before = table_len();
        for _ in 0..100 {
            let _ = intern("gintern-test-growth-probe");
        }
        assert_eq!(table_len(), before);
    }
}
