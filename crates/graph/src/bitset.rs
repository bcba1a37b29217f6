//! Dense bit sets and bit matrices.
//!
//! URSA's measurement algorithms are dominated by partial-order queries
//! ("is `b` a descendant of `a`?") and by set algebra over node sets
//! (ancestors, descendants, stages). Both are served by a dense, fixed
//! capacity bit set — graphs here are trace DAGs with at most a few
//! thousand nodes, so dense storage wins over any sparse scheme.

use std::fmt;

type Word = u64;
const WORD_BITS: usize = Word::BITS as usize;

/// A fixed-capacity set of `usize` values stored as a dense bit vector.
///
/// # Examples
///
/// ```
/// use ursa_graph::bitset::BitSet;
///
/// let mut s = BitSet::new(70);
/// s.insert(3);
/// s.insert(69);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 69]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<Word>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim_tail();
        s
    }

    /// The exclusive upper bound on storable values.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Read-only view of the backing words: value `v` is bit `v % 64`
    /// of word `v / 64`; bits at or past the capacity are always zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn trim_tail(&mut self) {
        let tail = self.capacity % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1 << tail) - 1;
            }
        }
    }

    /// Inserts `value`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "bit {value} out of capacity {}",
            self.capacity
        );
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / WORD_BITS, value % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Tests membership of `value`. Out-of-range values are absent.
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && self.words[value / WORD_BITS] & (1 << (value % WORD_BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: removes every element of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `true` if the sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of elements shared with `other`.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: Word,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to the maximum value seen.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A dense square boolean matrix, used for transitive closures
/// (reachability) and for the `CanReuse` relations of the paper's §3.
///
/// Row `i` is a [`BitSet`]-like word row; `get(i, j)` answers "does the
/// relation hold between `i` and `j`". Rows are laid out with a fixed
/// word stride that may exceed the `⌈n/64⌉` words in use: the spare
/// words stay zero and let [`BitMatrix::grow`] add nodes by appending
/// rows. Equality compares contents, never the stride.
///
/// # Examples
///
/// ```
/// use ursa_graph::bitset::BitMatrix;
///
/// let mut m = BitMatrix::new(3);
/// m.set(0, 2);
/// assert!(m.get(0, 2));
/// assert!(!m.get(2, 0));
/// ```
#[derive(Clone)]
pub struct BitMatrix {
    n: usize,
    /// Words allocated per row (at least `⌈n/64⌉`, at least 1).
    stride: usize,
    bits: Vec<Word>,
}

impl BitMatrix {
    /// Creates an all-false `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let stride = n.div_ceil(WORD_BITS).max(1);
        BitMatrix {
            n,
            stride,
            bits: vec![0; n * stride],
        }
    }

    /// The number of rows (and columns).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Extends the matrix to `n × n`; the new rows and columns are all
    /// false. While the new columns fit in the row stride this only
    /// appends rows. Otherwise the rows are re-laid out once with a
    /// spare word each, so the next 64 nodes append again.
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the current size.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "cannot shrink a {} matrix to {n}", self.n);
        let need = n.div_ceil(WORD_BITS);
        if need > self.stride {
            let stride = need + 1;
            let mut bits = vec![0; n * stride];
            for i in 0..self.n {
                bits[i * stride..i * stride + self.stride]
                    .copy_from_slice(&self.bits[self.row_range(i)]);
            }
            self.bits = bits;
            self.stride = stride;
        } else {
            self.bits.resize(n * self.stride, 0);
        }
        self.n = n;
    }

    #[inline]
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * self.stride;
        start..start + self.stride
    }

    /// Read-only view of row `i`: the `⌈n/64⌉` words that can hold
    /// bits, column `j` at bit `j % 64` of word `j / 64` (the spare
    /// stride words are always zero and not included).
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        let start = i * self.stride;
        &self.bits[start..start + self.n.div_ceil(WORD_BITS)]
    }

    /// Sets entry `(i, j)` to true.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn set(&mut self, i: usize, j: usize) {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for {}",
            self.n
        );
        self.bits[i * self.stride + j / WORD_BITS] |= 1 << (j % WORD_BITS);
    }

    /// Clears entry `(i, j)`.
    pub fn unset(&mut self, i: usize, j: usize) {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for {}",
            self.n
        );
        self.bits[i * self.stride + j / WORD_BITS] &= !(1 << (j % WORD_BITS));
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for {}",
            self.n
        );
        self.bits[i * self.stride + j / WORD_BITS] & (1 << (j % WORD_BITS)) != 0
    }

    /// Clears every entry of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn clear_row(&mut self, i: usize) {
        assert!(i < self.n, "row {i} out of bounds for {}", self.n);
        let range = self.row_range(i);
        self.bits[range].fill(0);
    }

    /// ORs row `src` into row `dst` (`dst |= src`). Used to propagate
    /// reachability along an edge.
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.n && dst < self.n);
        if src == dst {
            return;
        }
        let (s, d) = (src * self.stride, dst * self.stride);
        // Rows never overlap for src != dst.
        for k in 0..self.n.div_ceil(WORD_BITS) {
            let v = self.bits[s + k];
            self.bits[d + k] |= v;
        }
    }

    /// Like [`BitMatrix::or_row_into`], but calls `on_new` with every
    /// column of `dst` the OR newly set, in increasing order.
    pub fn or_row_into_logged(&mut self, src: usize, dst: usize, mut on_new: impl FnMut(usize)) {
        assert!(src < self.n && dst < self.n);
        if src == dst {
            return;
        }
        let (s, d) = (src * self.stride, dst * self.stride);
        for k in 0..self.n.div_ceil(WORD_BITS) {
            let mut fresh = self.bits[s + k] & !self.bits[d + k];
            self.bits[d + k] |= fresh;
            while fresh != 0 {
                on_new(k * WORD_BITS + fresh.trailing_zeros() as usize);
                fresh &= fresh - 1;
            }
        }
    }

    /// Iterates over the true columns of row `i` in increasing order.
    pub fn row_iter(&self, i: usize) -> RowIter<'_> {
        RowIter {
            words: self.row_words(i),
            word_idx: 0,
            current: 0,
            n: self.n,
            started: false,
        }
    }

    /// Number of true entries in row `i`.
    pub fn row_len(&self, i: usize) -> usize {
        self.row_words(i)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Copies row `i` into a [`BitSet`] of capacity `n`.
    pub fn row_bitset(&self, i: usize) -> BitSet {
        let mut s = BitSet::new(self.n);
        s.words.copy_from_slice(self.row_words(i));
        s.trim_tail();
        s
    }
}

impl PartialEq for BitMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && (0..self.n).all(|i| self.row_words(i) == other.row_words(i))
    }
}

impl Eq for BitMatrix {}

/// Iterator over the true columns of a [`BitMatrix`] row.
pub struct RowIter<'a> {
    words: &'a [Word],
    word_idx: usize,
    current: Word,
    n: usize,
    started: bool,
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if !self.started {
            self.started = true;
            self.current = self.words.first().copied().unwrap_or(0);
        }
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let v = self.word_idx * WORD_BITS + bit;
                return if v < self.n { Some(v) } else { None };
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.n {
            write!(f, "  {i}: ")?;
            f.debug_set().entries(self.row_iter(i)).finish()?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(9));
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports already-present");
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn full_set_is_exactly_capacity() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
    }

    #[test]
    fn set_algebra() {
        let mut a: BitSet = [1usize, 3, 5, 7].into_iter().collect();
        let cap = a.capacity();
        let mut b = BitSet::new(cap);
        b.extend([3usize, 4, 7]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 7]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(a.intersection_len(&b), 2);

        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5]);

        let empty = BitSet::new(cap);
        assert!(empty.is_disjoint(&b));
        assert!(i.is_subset(&u));
        assert!(!u.is_subset(&i));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let vals = [0usize, 63, 64, 65, 127, 128];
        let s: BitSet = vals.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vals.to_vec());
    }

    #[test]
    fn matrix_set_get() {
        let mut m = BitMatrix::new(100);
        m.set(3, 99);
        m.set(3, 0);
        m.set(99, 99);
        assert!(m.get(3, 99));
        assert!(m.get(3, 0));
        assert!(!m.get(0, 3));
        assert_eq!(m.row_iter(3).collect::<Vec<_>>(), vec![0, 99]);
        assert_eq!(m.row_len(3), 2);
        m.unset(3, 0);
        assert!(!m.get(3, 0));
    }

    #[test]
    fn matrix_or_row_propagates() {
        let mut m = BitMatrix::new(5);
        m.set(1, 2);
        m.set(1, 4);
        m.set(0, 1);
        m.or_row_into(1, 0);
        assert!(m.get(0, 2));
        assert!(m.get(0, 4));
        assert!(m.get(0, 1), "existing bits preserved");
    }

    #[test]
    fn matrix_row_bitset_matches_row_iter() {
        let mut m = BitMatrix::new(70);
        for j in [0, 5, 63, 64, 69] {
            m.set(7, j);
        }
        let row = m.row_bitset(7);
        assert_eq!(
            row.iter().collect::<Vec<_>>(),
            m.row_iter(7).collect::<Vec<_>>()
        );
        assert_eq!(row.capacity(), 70);
    }

    /// A matrix whose first rows hold a few bits on both sides of the
    /// 64-column word boundary.
    fn seeded(n: usize) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for i in 0..n.min(8) {
            for j in [0, i, 62, 63] {
                if j < n {
                    m.set(i, j);
                }
            }
        }
        m
    }

    #[test]
    fn grow_within_stride_appends_empty_rows_and_columns() {
        let mut m = seeded(40);
        let before = m.clone();
        m.grow(42);
        assert_eq!(m.len(), 42);
        for i in 0..40 {
            assert_eq!(
                m.row_iter(i).collect::<Vec<_>>(),
                before.row_iter(i).collect::<Vec<_>>()
            );
        }
        assert_eq!(m.row_len(40), 0);
        assert!(!m.get(3, 41));
        m.set(41, 3);
        m.set(3, 41);
        assert!(m.get(41, 3) && m.get(3, 41));
    }

    #[test]
    fn grow_across_a_word_boundary_keeps_every_bit() {
        let mut m = seeded(63);
        let before = m.clone();
        m.grow(65);
        for i in 0..63 {
            for j in 0..63 {
                assert_eq!(m.get(i, j), before.get(i, j), "({i},{j})");
            }
            assert!(!m.get(i, 63) && !m.get(i, 64));
        }
        assert_eq!(m.row_len(64), 0);
        m.set(64, 64);
        m.set(2, 64);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 2, 62, 64]);
        // Growing again stays within the spare word.
        m.grow(100);
        assert_eq!(m.row_iter(2).collect::<Vec<_>>(), vec![0, 2, 62, 64]);
        assert!(m.get(64, 64));
    }

    #[test]
    fn row_views_ignore_spare_words() {
        let mut m = seeded(60);
        // 60 → 70 re-lays rows out with a spare word; 70 → 75 appends.
        m.grow(70);
        m.grow(75);
        m.set(5, 74);
        m.set(74, 0);
        let row = m.row_bitset(5);
        assert_eq!(row.capacity(), 75);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 5, 74]);
        assert_eq!(m.row_iter(5).collect::<Vec<_>>(), vec![0, 5, 74]);
        assert_eq!(m.row_len(5), 3);
        assert_eq!(m.row_bitset(74).iter().collect::<Vec<_>>(), vec![0]);
        m.or_row_into(5, 74);
        assert_eq!(m.row_iter(74).collect::<Vec<_>>(), vec![0, 5, 74]);
        m.clear_row(5);
        assert_eq!(m.row_len(5), 0);
    }

    #[test]
    fn equality_compares_contents_not_layout() {
        let mut grown = seeded(60);
        grown.grow(70);
        let mut fresh = BitMatrix::new(70);
        for i in 0..60 {
            for j in seeded(60).row_iter(i) {
                fresh.set(i, j);
            }
        }
        assert_eq!(grown, fresh, "same bits, different strides");
        fresh.set(69, 69);
        assert_ne!(grown, fresh);
        grown.set(69, 69);
        assert_eq!(grown, fresh);
        assert_ne!(BitMatrix::new(3), BitMatrix::new(4));
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn shrinking_panics() {
        BitMatrix::new(4).grow(3);
    }

    #[test]
    fn zero_sized_matrix_is_fine() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = BitSet::new(3);
        assert_eq!(format!("{s:?}"), "{}");
        let m = BitMatrix::new(1);
        assert!(!format!("{m:?}").is_empty());
    }
}
