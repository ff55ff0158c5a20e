//! A compact index from small integer keys — page indexes, node ids —
//! to one value per key that has been named.

/// Marks a key that was never named.
const NO_SLOT: u32 = u32::MAX;

/// One value per named key, found through a slot table: 4 bytes per
/// key up to the highest key named, and a value only for keys named.
/// Lookups are two array reads; nothing is hashed.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex<V> {
    /// By key: the key's position in `values`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The named keys' values, in the order first named.
    values: Vec<V>,
}

impl<V> Default for SlotIndex<V> {
    fn default() -> Self {
        SlotIndex {
            slot: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> SlotIndex<V> {
    /// `key`'s value, if it was named.
    pub(crate) fn get(&self, key: usize) -> Option<&V> {
        self.values.get(*self.slot.get(key)? as usize)
    }

    /// `key`'s value, made by `fresh` the first time `key` is named.
    pub(crate) fn get_or_insert_with(&mut self, key: usize, fresh: impl FnOnce() -> V) -> &mut V {
        if key >= self.slot.len() {
            self.slot.resize(key + 1, NO_SLOT);
        }
        if self.slot[key] == NO_SLOT {
            self.slot[key] = u32::try_from(self.values.len()).expect("index slots fit u32");
            self.values.push(fresh());
        }
        &mut self.values[self.slot[key] as usize]
    }

    /// Number of keys named.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The values, in the order their keys were first named.
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_named_keys_hold_a_value() {
        let mut index: SlotIndex<Vec<u32>> = SlotIndex::default();
        index.get_or_insert_with(9, Vec::new).push(1);
        index.get_or_insert_with(2, Vec::new).push(2);
        index.get_or_insert_with(9, Vec::new).push(3);
        assert_eq!(index.len(), 2);
        assert_eq!(index.get(9), Some(&vec![1, 3]));
        assert_eq!(index.get(2), Some(&vec![2]));
        assert_eq!(index.get(5), None);
        assert_eq!(index.get(500), None);
        assert_eq!(index.values(), [vec![1, 3], vec![2]]);
        assert_eq!(index.len(), 2, "lookups name nothing");
    }
}
