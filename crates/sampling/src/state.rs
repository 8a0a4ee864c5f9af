//! Dense failure-state storage.
//!
//! The failure-state table of §3.2.1 (Table 1) — one row per component, one
//! column per sampling round — is stored as a bit matrix: a set bit means
//! *failed*. Rows are padded to [`WideWord`] alignment (4×u64, 256 rounds)
//! so per-round reads, per-row population counts, and 256-lane wide reads
//! are all branch-free; padding words are invisible to every accessor and
//! are kept zero by all writers (`set_wide_word` masks, bit writers
//! bounds-check against `rounds`).
//!
//! At the paper's largest setting (≈30K components × 10⁴ rounds) this is
//! ~37 MB; assessment code typically works in *blocks* of rounds (one
//! extended-dagger macro-cycle at a time), which keeps the working set in
//! cache. Both layouts are served by the same structure since rows are
//! independent.

use crate::wide::WideWord;

/// A borrowed view of one component's failure states across rounds.
#[derive(Clone, Copy, Debug)]
pub struct BitRow<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitRow<'a> {
    /// True if the component failed in `round`.
    #[inline]
    pub fn get(&self, round: usize) -> bool {
        debug_assert!(round < self.len);
        (self.words[round / 64] >> (round % 64)) & 1 == 1
    }

    /// Number of rounds.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rounds.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of failed rounds.
    pub fn count_ones(&self) -> usize {
        // Trailing bits beyond `len` are kept zero by all writers.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the failure flag of each round.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |r| self.get(r))
    }
}

/// Components × rounds failure-state matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BitMatrix {
    components: usize,
    rounds: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-alive matrix of the given shape. Rows are padded to wide-word
    /// alignment so each row holds a whole number of [`WideWord`]s.
    pub fn new(components: usize, rounds: usize) -> Self {
        let words_per_row = rounds.div_ceil(64).next_multiple_of(WideWord::WORDS);
        BitMatrix { components, rounds, words_per_row, bits: vec![0; components * words_per_row] }
    }

    /// Number of component rows.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Number of round columns.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Clears every bit (all components alive in all rounds).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Makes this an all-alive `components × rounds` matrix in place,
    /// reusing the allocation when its capacity suffices — how recycled
    /// chunk tables follow a chunk width that changed with the model.
    pub fn reshape(&mut self, components: usize, rounds: usize) {
        let words_per_row = rounds.div_ceil(64).next_multiple_of(WideWord::WORDS);
        self.bits.clear();
        self.bits.resize(components * words_per_row, 0);
        self.components = components;
        self.rounds = rounds;
        self.words_per_row = words_per_row;
    }

    /// Sets the row count to `components` in place, keeping the round
    /// count, the kept rows' bits and the allocation when its capacity
    /// suffices; added rows are all-alive. How a recycled chunk table
    /// grows by the scratch rows of an in-place collapse and drops them
    /// afterwards.
    pub fn resize_rows(&mut self, components: usize) {
        self.bits.resize(components * self.words_per_row, 0);
        self.components = components;
    }

    /// Overwrites row `to` with row `from`.
    pub fn copy_row(&mut self, from: usize, to: usize) {
        let wpr = self.words_per_row;
        self.bits.copy_within(from * wpr..(from + 1) * wpr, to * wpr);
    }

    /// ORs row `src` into row `dst`, a whole row at a time.
    ///
    /// # Panics
    /// Panics if `src == dst`.
    pub fn or_row_into(&mut self, dst: usize, src: usize) {
        assert_ne!(src, dst, "a row ORed into itself is already its own OR");
        let wpr = self.words_per_row;
        let (dst_row, src_row) = if dst < src {
            let (head, tail) = self.bits.split_at_mut(src * wpr);
            (&mut head[dst * wpr..(dst + 1) * wpr], &tail[..wpr])
        } else {
            let (head, tail) = self.bits.split_at_mut(dst * wpr);
            (&mut tail[..wpr], &head[src * wpr..(src + 1) * wpr])
        };
        for (d, s) in dst_row.iter_mut().zip(src_row) {
            *d |= s;
        }
    }

    /// Component `c`'s row words, padding included. Writers keep the
    /// padding bits clear.
    #[inline]
    pub(crate) fn row_words_mut(&mut self, c: usize) -> &mut [u64] {
        let start = c * self.words_per_row;
        &mut self.bits[start..start + self.words_per_row]
    }

    /// Overwrites row `c` with the OR of rows `rows` of `src`, a whole row
    /// at a time. `src` must have the same round count; its padding bits
    /// are clear, so the written row's are too.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the round counts differ.
    pub fn set_row_or(&mut self, c: usize, src: &BitMatrix, rows: &[u32]) {
        assert_eq!(self.rounds, src.rounds, "round count mismatch");
        let (&first, rest) = rows.split_first().expect("at least one source row");
        let wpr = self.words_per_row;
        let src_row = |r: u32| &src.bits[r as usize * wpr..(r as usize + 1) * wpr];
        let dst = &mut self.bits[c * wpr..(c + 1) * wpr];
        dst.copy_from_slice(src_row(first));
        for &r in rest {
            for (d, s) in dst.iter_mut().zip(src_row(r)) {
                *d |= s;
            }
        }
    }

    /// Marks component `c` failed in `round`.
    #[inline]
    pub fn set(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        self.bits[c * self.words_per_row + round / 64] |= 1u64 << (round % 64);
    }

    /// Clears component `c`'s failure in `round` (marks it alive).
    #[inline]
    pub fn unset(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        self.bits[c * self.words_per_row + round / 64] &= !(1u64 << (round % 64));
    }

    /// True if component `c` failed in `round`.
    #[inline]
    pub fn get(&self, c: usize, round: usize) -> bool {
        debug_assert!(c < self.components && round < self.rounds);
        (self.bits[c * self.words_per_row + round / 64] >> (round % 64)) & 1 == 1
    }

    /// Borrowed view of component `c`'s row.
    #[inline]
    pub fn row(&self, c: usize) -> BitRow<'_> {
        let start = c * self.words_per_row;
        BitRow { words: &self.bits[start..start + self.words_per_row], len: self.rounds }
    }

    /// Number of [`WideWord`]s per component row.
    #[inline]
    pub fn wide_words_per_row(&self) -> usize {
        self.words_per_row / WideWord::WORDS
    }

    /// Reads the `ww`-th 256-round wide word of component `c`'s row.
    #[inline]
    pub fn wide_word(&self, c: usize, ww: usize) -> WideWord {
        debug_assert!(c < self.components && ww < self.wide_words_per_row());
        let start = c * self.words_per_row + ww * WideWord::WORDS;
        WideWord([
            self.bits[start],
            self.bits[start + 1],
            self.bits[start + 2],
            self.bits[start + 3],
        ])
    }

    /// Writes the `ww`-th 256-round wide word of component `c`'s row. Lanes
    /// beyond the round count are masked off so population counts stay
    /// exact — this includes the alignment padding of the tail wide word,
    /// so blanket row writes (e.g. fault injection) stay safe.
    #[inline]
    pub fn set_wide_word(&mut self, c: usize, ww: usize, value: WideWord) {
        debug_assert!(c < self.components && ww < self.wide_words_per_row());
        let start = c * self.words_per_row + ww * WideWord::WORDS;
        let masked = value & self.wide_mask(ww);
        self.bits[start] = masked.word(0);
        self.bits[start + 1] = masked.word(1);
        self.bits[start + 2] = masked.word(2);
        self.bits[start + 3] = masked.word(3);
    }

    /// Number of valid rounds covered by wide word `ww` (256 for every wide
    /// word but the tail, where it is `rounds % 256`).
    #[inline]
    pub fn rounds_in_wide(&self, ww: usize) -> usize {
        self.rounds.saturating_sub(ww * WideWord::LANES).min(WideWord::LANES)
    }

    /// Mask of the valid round lanes of wide word `ww`: lane r is set iff
    /// round `256·ww + r` exists.
    #[inline]
    pub fn wide_mask(&self, ww: usize) -> WideWord {
        WideWord::lane_mask(self.rounds_in_wide(ww))
    }

    /// OR of every component's wide word `ww`: lane r is set iff *any*
    /// component failed in round `256·ww + r`. This is the route-and-check
    /// screen mask — a zero lane proves the round's verdict equals the
    /// all-alive baseline, so the round can skip routing entirely.
    pub fn any_failed_wide(&self, ww: usize) -> WideWord {
        debug_assert!(ww < self.wide_words_per_row());
        let mut acc = [0u64; 4];
        let mut i = ww * WideWord::WORDS;
        for _ in 0..self.components {
            acc[0] |= self.bits[i];
            acc[1] |= self.bits[i + 1];
            acc[2] |= self.bits[i + 2];
            acc[3] |= self.bits[i + 3];
            i += self.words_per_row;
        }
        WideWord(acc)
    }

    /// Total failed (component, round) cells — handy for sanity checks.
    pub fn total_failures(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Memory footprint of the bit store in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(3, 100);
        m.set(0, 0);
        m.set(1, 63);
        m.set(1, 64);
        m.set(2, 99);
        assert!(m.get(0, 0));
        assert!(m.get(1, 63));
        assert!(m.get(1, 64));
        assert!(m.get(2, 99));
        assert!(!m.get(0, 1));
        assert!(!m.get(2, 98));
        assert_eq!(m.total_failures(), 4);
    }

    #[test]
    fn rows_are_independent() {
        let mut m = BitMatrix::new(2, 64);
        m.set(0, 5);
        assert!(!m.get(1, 5));
        assert_eq!(m.row(0).count_ones(), 1);
        assert_eq!(m.row(1).count_ones(), 0);
    }

    #[test]
    fn row_iteration_matches_get() {
        let mut m = BitMatrix::new(1, 130);
        for r in (0..130).step_by(7) {
            m.set(0, r);
        }
        let row = m.row(0);
        assert_eq!(row.len(), 130);
        for (r, failed) in row.iter().enumerate() {
            assert_eq!(failed, r % 7 == 0, "round {r}");
        }
        assert_eq!(row.count_ones(), 130usize.div_ceil(7));
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = BitMatrix::new(4, 70);
        for c in 0..4 {
            m.set(c, c * 10);
        }
        m.clear();
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn zero_rounds_matrix_is_legal() {
        let m = BitMatrix::new(5, 0);
        assert_eq!(m.rounds(), 0);
        assert!(m.row(2).is_empty());
    }

    #[test]
    fn bytes_accounts_padding() {
        let m = BitMatrix::new(2, 65);
        // 65 bits -> 2 words, padded to one wide word (4), 2 rows -> 64 bytes.
        assert_eq!(m.bytes(), 64);
        assert_eq!(m.wide_words_per_row(), 1);
        let exact = BitMatrix::new(3, 256);
        assert_eq!(exact.wide_words_per_row(), 1);
        assert_eq!(exact.bytes(), 3 * 4 * 8);
    }

    #[test]
    fn padding_words_are_inert() {
        // 65 rounds: words 2 and 3 of the row are pure alignment padding.
        let mut m = BitMatrix::new(1, 65);
        assert_eq!(m.rounds_in_wide(0), 65);
        assert_eq!(m.wide_mask(0), WideWord([!0, 1, 0, 0]));
        // Blanket writes across the whole row (the fault-injection pattern)
        // leave tail and padding bits clear.
        m.set_wide_word(0, 0, WideWord::ONES);
        assert_eq!(m.wide_word(0, 0), WideWord([!0, 1, 0, 0]));
        assert_eq!(m.total_failures(), 65);
        assert_eq!(m.row(0).count_ones(), 65);
    }

    #[test]
    fn wide_reads_match_bit_reads_at_lane_boundaries() {
        for rounds in [255usize, 256, 257] {
            let mut m = BitMatrix::new(2, rounds);
            for r in (0..rounds).step_by(13) {
                m.set(0, r);
                if r % 2 == 0 {
                    m.set(1, r);
                }
            }
            assert_eq!(m.wide_words_per_row(), rounds.div_ceil(256));
            for ww in 0..m.wide_words_per_row() {
                let n = m.rounds_in_wide(ww);
                assert_eq!(n, (rounds - ww * 256).min(256));
                assert_eq!(m.wide_mask(ww), WideWord::lane_mask(n));
                for c in 0..2 {
                    let wide = m.wide_word(c, ww);
                    for lane in 0..256 {
                        let round = ww * 256 + lane;
                        let want = round < rounds && m.get(c, round);
                        assert_eq!(wide.bit(lane), want, "c={c} ww={ww} lane={lane}");
                    }
                }
            }
            // count_ones over rows ignores padding lanes.
            let expect0 = (0..rounds).step_by(13).count();
            assert_eq!(m.row(0).count_ones(), expect0, "rounds={rounds}");
        }
    }

    #[test]
    fn set_wide_word_masks_tail_lanes() {
        for rounds in [255usize, 256, 257] {
            let mut m = BitMatrix::new(1, rounds);
            for ww in 0..m.wide_words_per_row() {
                m.set_wide_word(0, ww, WideWord::ONES);
            }
            assert_eq!(m.total_failures(), rounds, "rounds={rounds}");
            // Round-trip: reads return exactly what survived the mask.
            for ww in 0..m.wide_words_per_row() {
                assert_eq!(m.wide_word(0, ww), m.wide_mask(ww));
            }
        }
    }

    #[test]
    fn reshape_reuses_storage_and_clears() {
        let mut m = BitMatrix::new(3, 2_816);
        m.set(2, 2_815);
        let capacity = m.bits.capacity();
        m.reshape(3, 2_560);
        assert_eq!((m.components(), m.rounds(), m.wide_words_per_row()), (3, 2_560, 10));
        assert_eq!(m.total_failures(), 0);
        assert_eq!(m.bits.capacity(), capacity, "shrinking keeps the allocation");
        m.set(1, 2_559);
        m.reshape(3, 2_816);
        assert_eq!(m, BitMatrix::new(3, 2_816));
    }

    #[test]
    fn resize_rows_keeps_rows_and_storage() {
        let mut m = BitMatrix::new(2, 300);
        m.set(1, 299);
        m.resize_rows(4);
        assert_eq!((m.components(), m.rounds()), (4, 300));
        assert!(m.get(1, 299));
        assert_eq!(m.total_failures(), 1, "added rows are all-alive");
        m.set(3, 5);
        let capacity = m.bits.capacity();
        m.resize_rows(2);
        assert_eq!(m.bits.capacity(), capacity, "dropping rows keeps the allocation");
        m.resize_rows(4);
        assert_eq!(m.total_failures(), 1, "re-added rows are all-alive again");
    }

    #[test]
    fn copy_row_and_or_row_into_are_rowwise() {
        let mut m = BitMatrix::new(4, 300);
        m.set(0, 1);
        m.set(1, 299);
        m.set(2, 64);
        m.copy_row(0, 3);
        m.or_row_into(3, 1);
        m.or_row_into(0, 2);
        m.or_row_into(2, 3);
        for r in 0..300 {
            assert_eq!(m.get(3, r), [1, 299].contains(&r), "round {r}");
            assert_eq!(m.get(0, r), [1, 64].contains(&r), "round {r}");
            assert_eq!(m.get(2, r), [1, 64, 299].contains(&r), "round {r}");
            assert_eq!(m.get(1, r), r == 299, "round {r}");
        }
    }

    #[test]
    fn set_row_or_is_rowwise_or() {
        let mut src = BitMatrix::new(3, 300);
        src.set(0, 1);
        src.set(1, 299);
        src.set(2, 1);
        src.set(2, 64);
        let mut out = BitMatrix::new(2, 300);
        out.set(1, 7); // overwritten, not kept
        out.set_row_or(1, &src, &[0, 1, 2]);
        out.set_row_or(0, &src, &[1]);
        for r in 0..300 {
            assert_eq!(out.get(1, r), [1, 64, 299].contains(&r), "round {r}");
            assert_eq!(out.get(0, r), r == 299, "round {r}");
        }
        assert_eq!(out.total_failures(), 4);
    }

    #[test]
    fn any_failed_wide_is_column_or() {
        let mut m = BitMatrix::new(3, 300);
        assert!(m.any_failed_wide(0).is_zero());
        assert!(m.any_failed_wide(1).is_zero());
        m.set(0, 3);
        m.set(1, 3);
        m.set(2, 70);
        m.set(2, 290);
        let mut lo = WideWord::ZERO;
        lo.set_lane(3);
        lo.set_lane(70);
        assert_eq!(m.any_failed_wide(0), lo);
        let mut hi = WideWord::ZERO;
        hi.set_lane(290 - 256);
        assert_eq!(m.any_failed_wide(1), hi);
        for r in 0..300 {
            let expect = (0..3).any(|c| m.get(c, r));
            assert_eq!(m.any_failed_wide(r / 256).bit(r % 256), expect, "round {r}");
        }
    }
}
