//! A small fixed-width bit set used as the dataflow lattice element.
//!
//! Dataflow facts over a program are sets drawn from a finite universe
//! (registers for liveness, definition sites for reaching definitions), so a
//! dense `u64`-word bit set gives transfer functions and meets that are a
//! handful of word operations. Everything here is `std`-only by design.

/// A dense, fixed-universe bit set.
///
/// The universe size is fixed at construction; all binary operations require
/// both operands to share a universe and panic otherwise (mixing universes is
/// always an analysis bug, never a recoverable condition).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    bits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over a universe of `bits` elements.
    #[must_use]
    pub fn new(bits: usize) -> Self {
        BitSet {
            bits,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// A full set over a universe of `bits` elements.
    #[must_use]
    pub fn full(bits: usize) -> Self {
        let mut s = BitSet::new(bits);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// The universe size (not the population count).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.bits
    }

    /// Number of elements present.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no element is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `i` is present.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `i`; returns whether the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} outside universe {}", self.bits);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let changed = *w & mask == 0;
        *w |= mask;
        changed
    }

    /// Removes `i`; returns whether the set changed.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} outside universe {}", self.bits);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let changed = *w & mask != 0;
        *w &= !mask;
        changed
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.bits, other.bits, "bitset universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self &= other`; returns whether `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.bits, other.bits, "bitset universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self &= !other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.bits, other.bits, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Whether every element of `self` is also in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.bits, other.bits, "bitset universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates the present elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }

    /// Clears any bits beyond the universe (after a whole-word fill).
    fn trim(&mut self) {
        let tail = self.bits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_rng::Rng;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn full_respects_universe() {
        let s = BitSet::full(67);
        assert_eq!(s.count(), 67);
        assert!(s.contains(66));
    }

    /// A naive model: the same universe as a `Vec<bool>`.
    fn random_pair(rng: &mut Rng, bits: usize) -> (BitSet, Vec<bool>) {
        let mut set = BitSet::new(bits);
        let mut model = vec![false; bits];
        for _ in 0..rng.below(2 * bits + 1) {
            let i = rng.below(bits);
            if rng.next_u64().is_multiple_of(2) {
                set.insert(i);
                model[i] = true;
            } else {
                set.remove(i);
                model[i] = false;
            }
        }
        (set, model)
    }

    fn assert_matches(set: &BitSet, model: &[bool], what: &str, seed: u64) {
        let expected: Vec<usize> = model
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            expected,
            "{what} diverged from model (seed {seed})"
        );
        assert_eq!(set.count(), expected.len(), "{what} count (seed {seed})");
        assert_eq!(set.is_empty(), expected.is_empty(), "{what} (seed {seed})");
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(set.contains(i), b, "{what} bit {i} (seed {seed})");
        }
    }

    #[test]
    fn property_ops_match_vec_bool_model() {
        // Universe sizes straddle word boundaries on purpose.
        for seed in 1..=64u64 {
            let mut rng = Rng::from_state(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for &bits in &[1usize, 63, 64, 65, 130] {
                let (mut a, mut ma) = random_pair(&mut rng, bits);
                let (b, mb) = random_pair(&mut rng, bits);
                assert_matches(&a, &ma, "construction", seed);

                match rng.below(3) {
                    0 => {
                        let changed = a.union_with(&b);
                        let mut any = false;
                        for (x, &y) in ma.iter_mut().zip(&mb) {
                            any |= y && !*x;
                            *x |= y;
                        }
                        assert_eq!(changed, any, "union change bit (seed {seed})");
                        assert_matches(&a, &ma, "union", seed);
                        // b is now a subset of the union.
                        assert!(b.is_subset_of(&a), "subset after union (seed {seed})");
                    }
                    1 => {
                        let changed = a.intersect_with(&b);
                        let mut any = false;
                        for (x, &y) in ma.iter_mut().zip(&mb) {
                            any |= *x && !y;
                            *x &= y;
                        }
                        assert_eq!(changed, any, "intersect change bit (seed {seed})");
                        assert_matches(&a, &ma, "intersect", seed);
                        assert!(a.is_subset_of(&b), "subset after intersect (seed {seed})");
                    }
                    _ => {
                        a.subtract(&b);
                        for (x, &y) in ma.iter_mut().zip(&mb) {
                            *x &= !y;
                        }
                        assert_matches(&a, &ma, "subtract", seed);
                    }
                }
            }
        }
    }

    #[test]
    fn property_full_then_removals_match_model() {
        for seed in 1..=16u64 {
            let mut rng = Rng::from_state(seed ^ 0xDEE0_DEE0_DEE0_DEE0);
            for &bits in &[7usize, 64, 129] {
                let mut set = BitSet::full(bits);
                let mut model = vec![true; bits];
                for _ in 0..rng.below(bits) {
                    let i = rng.below(bits);
                    set.remove(i);
                    model[i] = false;
                }
                assert_matches(&set, &model, "full-minus-removals", seed);
            }
        }
    }

    #[test]
    fn union_intersect_subtract() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(3);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 65]);
        assert!(!u.union_with(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset_of(&u));
        assert!(!u.is_subset_of(&i));
    }
}
