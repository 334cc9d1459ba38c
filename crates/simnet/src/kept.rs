//! Answers kept until their inputs change.
//!
//! The services under study answer most queries from stored state: the
//! GRIS/GIIS `cachettl`, Hawkeye's resident pool, R-GMA's servlets.  The
//! harness mirrors that in real time as well: a service keeps the reply
//! it built for a request and hands out clones of it while the state the
//! reply was built from has not changed.  The simulated work of a query
//! is charged by the caller on a hit and a miss alike, so a kept answer
//! saves host time and changes no output byte.
//!
//! A [`Kept`] holds key → (stamp, value).  The stamp is whatever the
//! service already counts that moves when an answer could change: a
//! directory generation, a pool generation, a registration count.  A
//! lookup at a different stamp recomputes, and the recompute is handed
//! the old value, so the parts of it that depend on the key alone (a
//! compiled expression, an SQL text) survive.  [`Kept::clear`] drops
//! every value and keeps the keys, for a service that must let go of
//! what its answers hold before it writes.

use std::borrow::Borrow;

/// Keys one [`Kept`] holds; the oldest goes first beyond it.  The
/// scenario traffic sends each service at most ten distinct keys, and a
/// hit and a miss charge the same simulated CPU, so the cap moves real
/// time only, never output.
pub const KEPT_CAP: usize = 16;

/// A small table of kept answers, compared with `==` in insertion order.
pub struct Kept<K, V> {
    slots: Vec<(K, u64, Option<V>)>,
}

impl<K, V> Default for Kept<K, V> {
    fn default() -> Self {
        Kept { slots: Vec::new() }
    }
}

impl<K, V> Kept<K, V> {
    /// The value kept for `key` at `stamp`, or the one `compute` builds
    /// from the value kept at another stamp (if any), kept.  Looking up
    /// a key already held allocates nothing.
    pub fn get<Q>(&mut self, key: &Q, stamp: u64, compute: impl FnOnce(Option<V>) -> V) -> &V
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
    {
        let i = match self.slots.iter().position(|s| s.0.borrow() == key) {
            Some(i) => {
                let (_, at, value) = &mut self.slots[i];
                if *at != stamp || value.is_none() {
                    *at = stamp;
                    let old = value.take();
                    *value = Some(compute(old));
                }
                i
            }
            None => {
                let value = compute(None);
                if self.slots.len() >= KEPT_CAP {
                    self.slots.remove(0);
                }
                self.slots.push((key.to_owned(), stamp, Some(value)));
                self.slots.len() - 1
            }
        };
        self.slots[i].2.as_ref().expect("kept above")
    }

    /// Drop every kept value; the keys stay.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.2 = None;
        }
    }
}
