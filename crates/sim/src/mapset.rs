//! A fixed-width bitset over a job's map indices.
//!
//! A reduce attempt tracks which MOFs it still needs and which it already
//! holds, and every ALG logging tick snapshots the latter. As bitsets both
//! are `num_maps / 64` words: membership is a shift and a mask, iteration
//! runs in map-index order, and a snapshot is a copy of those words.

/// A set of map indices below a width fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MapSet {
    words: Box<[u64]>,
}

impl MapSet {
    /// The empty set of width `n`.
    pub(crate) fn empty(n: u32) -> MapSet {
        MapSet { words: vec![0; (n as usize).div_ceil(64)].into_boxed_slice() }
    }

    /// Every index in `0..n`.
    pub(crate) fn full(n: u32) -> MapSet {
        let mut s = MapSet::empty(n);
        s.words.fill(u64::MAX);
        if let Some(last) = s.words.last_mut().filter(|_| !n.is_multiple_of(64)) {
            *last = (1 << (n % 64)) - 1;
        }
        s
    }

    /// The indices in `0..n` that are not in `self` (of width `n`).
    pub(crate) fn complement(&self, n: u32) -> MapSet {
        let mut s = MapSet::full(n);
        for (w, own) in s.words.iter_mut().zip(self.words.iter()) {
            *w &= !own;
        }
        s
    }

    pub(crate) fn contains(&self, m: u32) -> bool {
        self.words.get(m as usize / 64).is_some_and(|w| w & (1 << (m % 64)) != 0)
    }

    pub(crate) fn insert(&mut self, m: u32) {
        self.words[m as usize / 64] |= 1 << (m % 64);
    }

    pub(crate) fn remove(&mut self, m: u32) {
        self.words[m as usize / 64] &= !(1 << (m % 64));
    }

    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(i as u32 * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn full_and_complement_respect_the_width() {
        for n in [0, 1, 63, 64, 65, 130] {
            let full = MapSet::full(n);
            assert_eq!(full.len(), n as usize);
            assert_eq!(full.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(full.complement(n).is_empty());
            assert_eq!(MapSet::empty(n).complement(n), full);
        }
    }

    proptest! {
        /// Same answers as a `BTreeSet<u32>` under random inserts and
        /// removes, iteration order included.
        #[test]
        fn matches_btreeset(n in 1u32..300, ops in proptest::collection::vec((proptest::bool::ANY, 0u32..300), 0..200)) {
            let mut set = MapSet::empty(n);
            let mut model = BTreeSet::new();
            for (add, m) in ops {
                let m = m % n;
                if add {
                    set.insert(m);
                    model.insert(m);
                } else {
                    set.remove(m);
                    model.remove(&m);
                }
                prop_assert_eq!(set.contains(m), model.contains(&m));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            let missing: Vec<u32> = (0..n).filter(|m| !model.contains(m)).collect();
            prop_assert_eq!(set.complement(n).iter().collect::<Vec<_>>(), missing);
        }
    }
}
