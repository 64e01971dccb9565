//! Hash tables for hot per-transaction state.
//!
//! The simulator keys almost all of its transient bookkeeping by `u64`
//! (cache-line addresses, memory tokens). [`FnvMap`] is std's
//! `HashMap` under an FNV-1a hasher. FNV-1a, because SipHash's DoS
//! resistance is wasted work on a trusted, in-process key space that
//! sits on the per-cycle hot path. Std's table, because a hand-rolled
//! linear-probing table under the same hash was measured against it in
//! alternated benchmark pairs and did not pay for its lines (DESIGN §6c).
//!
//! Iteration order is the table's, neither insertion nor key order;
//! callers that fold it into simulation outcomes or output sort first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a (64-bit) over the little-endian bytes of each written integer.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        // The 64-bit offset basis.
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.write(&key.to_le_bytes());
    }
}

/// A `u64`-keyed hash map (see module docs).
#[derive(Clone, Debug)]
pub struct FnvMap<V>(HashMap<u64, V, BuildHasherDefault<Fnv1a>>);

impl<V> FnvMap<V> {
    /// Creates an empty map; no allocation until the first insert.
    pub fn new() -> Self {
        FnvMap(HashMap::default())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.0.get(&key)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.0.get_mut(&key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.0.contains_key(&key)
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.0.remove(&key)
    }

    /// Iterates over `(key, &value)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.0.iter().map(|(&k, v)| (k, v))
    }
}

impl<V> Default for FnvMap<V> {
    fn default() -> Self {
        Self::new()
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
