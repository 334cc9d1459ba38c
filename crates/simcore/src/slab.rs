//! A minimal generational slab allocator.
//!
//! Used throughout the workspace for stable integer handles to simulation
//! objects (events, flows, requests, tasks).  Generations guard against the
//! ABA problem when slots are recycled: a stale key for a freed-and-reused
//! slot will not resolve.

/// A key into a [`Slab`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SlabKey {
    pub index: u32,
    pub gen: u32,
}

impl SlabKey {
    /// A key that never resolves (useful as a sentinel).
    pub const NULL: SlabKey = SlabKey {
        index: u32::MAX,
        gen: u32::MAX,
    };
}

#[derive(Clone)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A generational slab.
#[derive(Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its key.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            SlabKey {
                index,
                gen: slot.gen,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                value: Some(value),
            });
            SlabKey { index, gen: 0 }
        }
    }

    /// Remove and return the value for `key` if it is still live.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.gen != key.gen || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        value
    }

    /// Remove every live entry `finished` accepts, in index order and in
    /// one pass, handing each `(key, value)` to `sink`.  `finished` sees
    /// every live entry once and may update it.  Slots are freed in index
    /// order, so the free list — and with it every key a later `insert`
    /// returns — ends up exactly as collecting the matching keys and
    /// calling [`Slab::remove`] on each would leave it.
    pub fn drain_where(
        &mut self,
        mut finished: impl FnMut(&mut T) -> bool,
        mut sink: impl FnMut(SlabKey, T),
    ) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if !slot.value.as_mut().is_some_and(&mut finished) {
                continue;
            }
            let index = i as u32;
            let key = SlabKey {
                index,
                gen: slot.gen,
            };
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(index);
            self.len -= 1;
            sink(key, slot.value.take().expect("checked live above"));
        }
    }

    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let slot = self.slots.get(key.index as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.as_ref()
    }

    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.as_mut()
    }

    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Temporarily take the value out of a slot (leaving it live but empty)
    /// so methods on it can be called while the slab owner is also borrowed.
    /// The caller must put the value back with [`Slab::put_back`].
    pub fn take(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.take()
    }

    /// Restore a value previously removed with [`Slab::take`].
    ///
    /// If the slot was freed while the value was out (e.g. the object
    /// removed itself during its own callback), the value is dropped and
    /// `false` is returned.
    pub fn put_back(&mut self, key: SlabKey, value: T) -> bool {
        if let Some(slot) = self.slots.get_mut(key.index as usize) {
            if slot.gen == key.gen {
                debug_assert!(slot.value.is_none(), "put_back over a live value");
                slot.value = Some(value);
                return true;
            }
        }
        false
    }

    /// Iterate over `(key, &value)` pairs of live entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    SlabKey {
                        index: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }

    /// Iterate over `(key, &mut value)` pairs of live entries in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SlabKey, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let gen = s.gen;
            s.value.as_mut().map(move |v| {
                (
                    SlabKey {
                        index: i as u32,
                        gen,
                    },
                    v,
                )
            })
        })
    }

    /// Collect the keys of all live entries (index order).
    pub fn keys(&self) -> Vec<SlabKey> {
        self.iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generation_guards_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        // Slot is reused but the stale key must not resolve.
        assert_eq!(a.index, b.index);
        assert_ne!(a.gen, b.gen);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn take_and_put_back() {
        let mut s = Slab::new();
        let a = s.insert(String::from("x"));
        let v = s.take(a).unwrap();
        assert!(s.get(a).is_none()); // value is out; key resolves again after put_back
        assert!(s.put_back(a, v));
        assert_eq!(s.get(a).map(String::as_str), Some("x"));
    }

    #[test]
    fn put_back_after_free_drops_value() {
        let mut s = Slab::new();
        let a = s.insert(7);
        let v = s.take(a).unwrap();
        // Freeing the (empty) slot while the value is out: remove() returns
        // None because the value is absent, so emulate by reinsert cycle.
        assert!(s.put_back(a, v));
        s.remove(a);
        assert!(!s.put_back(a, 9));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn iteration_order_is_index_order() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        let _c = s.insert(30);
        s.remove(a);
        let vals: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![20, 30]);
    }

    #[test]
    fn drain_where_frees_slots_like_collect_then_remove() {
        // Holes, recycled slots and a mixed predicate; both slabs get the
        // same history, then one drains and the other collects + removes.
        let build = || {
            let mut s = Slab::new();
            let keys: Vec<SlabKey> = (0..12u32).map(|v| s.insert(v)).collect();
            s.remove(keys[3]);
            s.remove(keys[8]);
            s.insert(100); // reuses slot 8 at generation 1
            s
        };
        let finished = |v: u32| v % 3 != 1;

        let mut drained = build();
        let mut got = Vec::new();
        drained.drain_where(
            |v| {
                *v += 1000; // the predicate sees, and may update, every entry
                finished(*v - 1000)
            },
            |k, v| got.push((k, v - 1000)),
        );
        assert!(drained.iter().all(|(_, v)| *v >= 1000));

        let mut removed = build();
        let keys: Vec<SlabKey> = removed
            .iter()
            .filter(|(_, v)| finished(**v))
            .map(|(k, _)| k)
            .collect();
        let want: Vec<(SlabKey, u32)> = keys
            .iter()
            .map(|&k| (k, removed.remove(k).unwrap()))
            .collect();

        assert_eq!(got, want, "same entries, same keys, index order");
        assert!(got.len() > 3 && !drained.is_empty());
        assert_eq!(drained.len(), removed.len());
        let left = |s: &Slab<u32>| -> Vec<(SlabKey, u32)> {
            s.iter().map(|(k, v)| (k, *v % 1000)).collect()
        };
        assert_eq!(left(&drained), left(&removed));
        assert!(got.iter().all(|&(k, _)| !drained.contains(k)));
        // The free lists agree in order and the generations were bumped
        // once: every later insert lands on the same key in both, past
        // the point where fresh slots are appended.
        for v in 0..got.len() as u32 + 4 {
            assert_eq!(drained.insert(v), removed.insert(v), "insert #{v}");
        }
    }

    #[test]
    fn contains_take_missing() {
        let mut s: Slab<u8> = Slab::new();
        assert!(!s.contains(SlabKey::NULL));
        assert!(s.take(SlabKey::NULL).is_none());
    }
}
