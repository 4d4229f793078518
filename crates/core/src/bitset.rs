//! A dense, fixed-capacity bit set used for order closures and histories.
//!
//! The temporal-order closure of a computation is a reachability matrix with
//! one [`DenseBitSet`] row per event, and a [`History`](crate::History) is a
//! downward-closed `DenseBitSet` of event ids. A small hand-rolled bit set
//! keeps `gem-core` dependency-free and lets us provide exactly the
//! operations those structures need (subset tests, union, iteration).

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of small integers backed by `u64` words.
///
/// The capacity is set at construction; all indices passed to methods must
/// be below it.
///
/// # Examples
///
/// ```
/// use gem_core::DenseBitSet;
/// let mut s = DenseBitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseBitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// The backing words, `capacity.div_ceil(64)` of them.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably; the caller keeps bits at or above
    /// `capacity` clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = Self::new(capacity);
        for i in 0..capacity {
            set.insert(i);
        }
        set
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index` into the set. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `index` from the set. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// True if `index` is in the set.
    ///
    /// Out-of-capacity indices are reported as absent rather than panicking,
    /// so that queries against a smaller closure row are safe.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place union: `self ← self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place difference: `self ← self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &DenseBitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
            && self.words.len() <= other.words.len()
    }

    /// True if `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &DenseBitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the indices in the set, in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for DenseBitSet {
    /// Collects indices into a set sized to the largest index + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let capacity = indices.iter().copied().max().map_or(0, |m| m + 1);
        let mut set = DenseBitSet::new(capacity);
        for i in indices {
            set.insert(i);
        }
        set
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set indices produced by [`DenseBitSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    set: &'a DenseBitSet,
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports not-fresh");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert!(!s.contains(129));
    }

    #[test]
    fn len_and_empty() {
        let mut s = DenseBitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.insert(1);
        s.insert(9);
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn full_contains_everything() {
        let s = DenseBitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(0));
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let mut a: DenseBitSet = [1usize, 2, 3].into_iter().collect();
        let b: DenseBitSet = [3usize, 2].into_iter().collect();
        // resize to common capacity
        let mut a2 = DenseBitSet::new(4);
        a2.extend(a.iter());
        let mut b2 = DenseBitSet::new(4);
        b2.extend(b.iter());
        a = a2.clone();
        a.union_with(&b2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        a.intersect_with(&b2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
        a.difference_with(&b2);
        assert!(a.is_empty());
        assert!(b2.is_subset(&a2));
        assert!(!a2.is_subset(&b2));
        let c: DenseBitSet = DenseBitSet::new(4);
        assert!(c.is_disjoint(&a2));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let mut s = DenseBitSet::new(200);
        for i in [150, 3, 77, 64, 63] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 77, 150]);
    }

    #[test]
    fn out_of_capacity_contains_is_false() {
        let s = DenseBitSet::new(5);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_capacity_insert_panics() {
        let mut s = DenseBitSet::new(5);
        s.insert(5);
    }

    #[test]
    fn debug_shows_contents() {
        let s: DenseBitSet = [1usize, 4].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 4}");
    }
}
