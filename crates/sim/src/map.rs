//! A small open-addressing hash map for hot per-transaction state.
//!
//! The simulator keys almost all of its transient bookkeeping by `u64`
//! (cache-line addresses, memory tokens). `std::collections::HashMap`
//! pays for SipHash's DoS resistance on every probe, which is wasted
//! work on a trusted, in-process key space that sits on the per-cycle
//! hot path. [`FnvMap`] replaces it there: FNV-1a over the eight key
//! bytes, power-of-two capacity, linear probing, and backward-shift
//! deletion (no tombstones, so probe sequences never degrade).
//!
//! Iteration order follows the probe table and is **not** insertion
//! order; like `HashMap`, callers that fold iteration order into
//! simulation outcomes must sort first.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Initial slot count on first insert (power of two).
const INITIAL_SLOTS: usize = 16;

/// FNV-1a over the little-endian bytes of `key`.
fn fnv1a(key: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for b in key.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A `u64`-keyed open-addressing map (see module docs).
#[derive(Clone)]
pub struct FnvMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> FnvMap<V> {
    /// Creates an empty map; no allocation until the first insert.
    pub fn new() -> Self {
        FnvMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = (fnv1a(key) as usize) & self.mask();
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & self.mask(),
                None => return None,
            }
        }
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("occupied slot").1)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key)
            .map(|i| &mut self.slots[i].as_mut().expect("occupied slot").1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if self.slots.is_empty() || self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (fnv1a(key) as usize) & self.mask();
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & self.mask(),
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// Uses backward-shift deletion: subsequent entries in the probe
    /// chain are moved up so lookups never cross a hole.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("occupied slot");
        self.len -= 1;
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[i] {
            let home = (fnv1a(*k) as usize) & mask;
            // Shift the entry into the hole unless the hole lies outside
            // its probe path (cyclic interval home..=i excludes hole).
            let between = if home <= i {
                home <= hole && hole <= i
            } else {
                home <= hole || hole <= i
            };
            if between {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(value)
    }

    /// Iterates over `(key, &value)` pairs in probe-table order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Doubles the table (or allocates the initial one) and rehashes.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            INITIAL_SLOTS
        } else {
            self.slots.len() * 2
        };
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        let mask = new_cap - 1;
        for (key, value) in old.into_iter().flatten() {
            let mut i = (fnv1a(key) as usize) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some((key, value));
        }
    }
}

impl<V> Default for FnvMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for FnvMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A table keyed by small dense integers (queue and region ids):
/// one `Option<V>` slot per key up to the largest ever inserted, so a
/// lookup is a bounds check and iteration runs in ascending key order.
#[derive(Debug, Clone)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> DenseMap<V> {
    /// Creates an empty table; no allocation until the first insert.
    pub fn new() -> Self {
        DenseMap { slots: Vec::new() }
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: usize) -> Option<&V> {
        self.slots.get(key)?.as_ref()
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut V> {
        self.slots.get_mut(key)?.as_mut()
    }

    /// The slot of `key`, growing the table to hold it.
    fn slot(&mut self, key: usize) -> &mut Option<V> {
        if key >= self.slots.len() {
            self.slots.resize_with(key + 1, || None);
        }
        &mut self.slots[key]
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: usize, value: V) -> Option<V> {
        self.slot(key).replace(value)
    }

    /// The value for `key`, inserted as `V::default()` when absent.
    pub fn or_default(&mut self, key: usize) -> &mut V
    where
        V: Default,
    {
        self.slot(key).get_or_insert_with(V::default)
    }

    /// Iterates over `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.as_ref().map(|v| (k, v)))
    }

    /// Iterates over the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;
    use std::collections::HashMap;

    #[test]
    fn basic_insert_get_remove() {
        let mut m = FnvMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "a"), None);
        assert_eq!(m.insert(7, "b"), Some("a"));
        assert_eq!(m.get(7), Some(&"b"));
        assert!(m.contains_key(7));
        assert_eq!(m.len(), 1);
        *m.get_mut(7).unwrap() = "c";
        assert_eq!(m.remove(7), Some("c"));
        assert_eq!(m.remove(7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FnvMap::new();
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(&(k * 3)));
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut m = FnvMap::new();
        for k in [64u64, 128, 192, 5, 999] {
            m.insert(k, ());
        }
        let mut keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![5, 64, 128, 192, 999]);
    }

    #[test]
    fn backward_shift_preserves_colliding_chains() {
        // Cache-line keys are multiples of the line size, a worst case
        // for weak hashes: build a dense cluster, then delete from the
        // middle and verify every survivor remains reachable.
        let mut m = FnvMap::new();
        let keys: Vec<u64> = (0..64).map(|i| i * 128).collect();
        for &k in &keys {
            m.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(k), Some(k + 1));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&(k + 1)));
            }
        }
    }

    /// Keys whose home slot in a 16-slot table is `>= lo`, in ascending
    /// key order. Used to build probe chains that wrap past the last
    /// slot back to index 0.
    fn keys_homed_at(lo: usize, n: usize) -> Vec<u64> {
        let mask = INITIAL_SLOTS - 1;
        (0u64..)
            .filter(|&k| (fnv1a(k) as usize) & mask >= lo)
            .take(n)
            .collect()
    }

    #[test]
    fn backward_shift_across_wraparound_chain() {
        // Six keys homed in the table's top two slots must spill past
        // the end into slots 0..: every removal order then forces
        // backward shifts across the wrap boundary, where `remove`'s
        // cyclic-interval test (home > i) decides which entries move.
        // Try all 720 orders; survivors must stay reachable throughout.
        let keys = keys_homed_at(INITIAL_SLOTS - 2, 6);
        let mut full = FnvMap::new();
        for &k in &keys {
            full.insert(k, k ^ 0xdead);
        }
        assert_eq!(full.len(), keys.len());

        let mut order: Vec<usize> = (0..keys.len()).collect();
        permute(&mut order, 0, &mut |order| {
            let mut m = full.clone();
            let mut gone = vec![false; keys.len()];
            for &idx in order {
                assert_eq!(m.remove(keys[idx]), Some(keys[idx] ^ 0xdead));
                gone[idx] = true;
                for (j, &k) in keys.iter().enumerate() {
                    let want = if gone[j] { None } else { Some(&(k ^ 0xdead)) };
                    assert_eq!(m.get(k), want, "key {k:#x} after removing {idx}");
                }
            }
            assert!(m.is_empty());
        });
    }

    /// Calls `f` with every permutation of `v[at..]` (Heap-style swap
    /// recursion); `v` is restored on return.
    fn permute(v: &mut Vec<usize>, at: usize, f: &mut impl FnMut(&[usize])) {
        if at == v.len() {
            f(v);
            return;
        }
        for i in at..v.len() {
            v.swap(at, i);
            permute(v, at + 1, f);
            v.swap(at, i);
        }
    }

    #[test]
    fn wrapped_chain_churn_matches_std_hashmap() {
        // Model test pinned to the wrap-around regime: every key homes
        // in the top quarter of a 16-slot table and occupancy is held
        // below the growth threshold, so probe chains routinely cross
        // the end of the table and deletions shift entries back across
        // it. The reference HashMap must agree after every operation.
        let pool = keys_homed_at(INITIAL_SLOTS - INITIAL_SLOTS / 4, 40);
        let mut rng = Rng64::new(0x3a7b);
        let mut ours = FnvMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..30_000u64 {
            let key = pool[(rng.next_u64() % pool.len() as u64) as usize];
            // Growth triggers at len * 4 >= slots * 3; stay under it.
            let full = ours.len() == INITIAL_SLOTS * 3 / 4 - 1;
            match rng.next_u64() % 4 {
                0 | 1 if !full => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                3 => {
                    assert_eq!(ours.get(key), reference.get(&key));
                    assert_eq!(ours.contains_key(key), reference.contains_key(&key));
                }
                _ => {
                    assert_eq!(ours.remove(key), reference.remove(&key));
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        // The table must never have grown: all churn stayed wrapped.
        assert_eq!(ours.slots.len(), INITIAL_SLOTS);
        let mut a: Vec<(u64, u64)> = ours.iter().map(|(k, v)| (k, *v)).collect();
        a.sort_unstable();
        let mut b: Vec<(u64, u64)> = reference.into_iter().collect();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn random_ops_match_std_hashmap() {
        let mut rng = Rng64::new(0xf17e);
        let mut ours = FnvMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            // Small key space forces heavy insert/remove churn on the
            // same slots, exercising deletion shifts and rehashing.
            let key = rng.next_u64() % 257;
            match rng.next_u64() % 4 {
                0 | 1 => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                2 => {
                    assert_eq!(ours.remove(key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(key), reference.get(&key));
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        let mut a: Vec<(u64, u64)> = ours.iter().map(|(k, v)| (k, *v)).collect();
        a.sort_unstable();
        let mut b: Vec<(u64, u64)> = reference.into_iter().collect();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn dense_map_is_sparse_tolerant_and_ordered() {
        let mut m: DenseMap<u64> = DenseMap::new();
        assert_eq!(m.get(48), None);
        assert_eq!(m.insert(48, 1), None);
        assert_eq!(m.insert(16, 2), None);
        assert_eq!(m.insert(48, 3), Some(1));
        *m.or_default(32) += 7;
        *m.get_mut(16).unwrap() += 1;
        assert_eq!(m.get(17), None);
        assert_eq!(m.get(1000), None);
        let pairs: Vec<(usize, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(pairs, vec![(16, 3), (32, 7), (48, 3)]);
        assert_eq!(m.values().sum::<u64>(), 13);
    }
}
