//! Flat text columns.
//!
//! [`TextRows`] is the one form a text column takes, from the generator
//! that fills it to the reader that counts in it:
//! [`Column::Text`](crate::Column) and [`Column::TextList`](crate::Column)
//! both hold one. Every string of the column lies back to back in one
//! validated buffer, cut by two offset arrays — three allocations per
//! column instead of one per row and one per string. Row `i` is a
//! [`TextRow`], a borrowed view of its strings.

use std::fmt;
use std::ops::Range;

/// A whole `Text` / `TextList` column, flat. Row `i` is a run of strings;
/// a `Text` column has exactly one string per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextRows {
    buf: String,
    /// End byte of string `j` in `buf`; it starts where `j - 1` ends.
    str_ends: Vec<u32>,
    /// One past the last string of row `i`; it starts where `i - 1` ends.
    row_ends: Vec<u32>,
}

fn start_of(ends: &[u32], i: usize) -> usize {
    i.checked_sub(1).map_or(0, |p| ends[p] as usize)
}

/// One row of a [`TextRows`]: its strings, borrowed.
#[derive(Clone, Copy)]
pub struct TextRow<'a> {
    rows: &'a TextRows,
    /// The row's strings are `first..end` of the column's.
    first: usize,
    end: usize,
}

impl<'a> TextRow<'a> {
    /// The row's strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let rows = self.rows;
        (self.first..self.end).map(move |j| rows.string(j))
    }

    /// Number of strings in the row.
    pub fn len(&self) -> usize {
        self.end - self.first
    }

    /// True when the row holds no string.
    pub fn is_empty(&self) -> bool {
        self.first == self.end
    }
}

impl PartialEq for TextRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TextRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl TextRows {
    /// Flatten borrowed rows.
    pub fn from_rows<'a, R>(rows: impl IntoIterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = &'a str>,
    {
        let mut out = TextRows::default();
        for row in rows {
            for s in row {
                out.buf.push_str(s);
                out.str_ends.push(out.buf.len() as u32);
            }
            out.row_ends.push(out.str_ends.len() as u32);
        }
        assert!(out.buf.len() <= u32::MAX as usize, "text column over 4 GiB");
        // A column is kept as long as its instance is: reserve nothing
        // beyond what it holds.
        out.buf.shrink_to_fit();
        out.str_ends.shrink_to_fit();
        out.row_ends.shrink_to_fit();
        out
    }

    /// Adopt decoded parts. `None` unless `bytes` is UTF-8 that the string
    /// ends cut exactly, in order and only at character boundaries (a
    /// multi-byte character split over two strings is valid as a whole
    /// buffer), and the row ends cut the strings exactly, in order.
    pub fn from_parts(bytes: Vec<u8>, str_ends: Vec<u32>, row_ends: Vec<u32>) -> Option<Self> {
        let buf = String::from_utf8(bytes).ok()?;
        u32::try_from(buf.len()).ok()?;
        let cuts = |ends: &[u32], total: usize| {
            ends.windows(2).all(|w| w[0] <= w[1]) && ends.last().map_or(0, |&e| e as usize) == total
        };
        let ok = cuts(&str_ends, buf.len())
            && cuts(&row_ends, str_ends.len())
            && str_ends.iter().all(|&e| buf.is_char_boundary(e as usize));
        ok.then_some(TextRows {
            buf,
            str_ends,
            row_ends,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_ends.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ends.is_empty()
    }

    /// Number of strings over all rows.
    pub fn num_strings(&self) -> usize {
        self.str_ends.len()
    }

    /// True when every row holds exactly one string, as a `Text` column's
    /// rows must.
    pub fn one_per_row(&self) -> bool {
        (self.row_ends.iter().enumerate()).all(|(i, &end)| end as usize == i + 1)
    }

    /// String `j` of the column.
    fn string(&self, j: usize) -> &str {
        &self.buf[start_of(&self.str_ends, j)..self.str_ends[j] as usize]
    }

    /// Row `i`; panics when `i` is out of range, like slice indexing.
    pub fn row(&self, i: usize) -> TextRow<'_> {
        TextRow {
            rows: self,
            first: start_of(&self.row_ends, i),
            end: self.row_ends[i] as usize,
        }
    }

    /// Rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TextRow<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// How many strings of the column, over all rows, equal `needle`: one
    /// linear pass over the offsets that touches a string's bytes only
    /// when its length matches.
    pub fn count_eq(&self, needle: &str) -> u64 {
        let (bytes, needle) = (self.buf.as_bytes(), needle.as_bytes());
        let mut start = 0;
        let matches = self.str_ends.iter().filter(|&&end| {
            let (from, to) = (start, end as usize);
            start = to;
            to - from == needle.len() && bytes[from..to] == *needle
        });
        matches.count() as u64
    }

    /// Bytes of text over all strings.
    pub fn text_len(&self) -> usize {
        self.buf.len()
    }

    /// Heap bytes held: what is reserved, not just what is used.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() + 4 * (self.str_ends.capacity() + self.row_ends.capacity())
    }

    /// `self` with row `rows[k]` replaced by `patch.row(k)` — a sparse
    /// delta applied without cloning the base, copying maximal runs of
    /// rows from the base or the patch: consecutive patched rows are
    /// consecutive patch rows, so a delta that patches most rows costs a
    /// bulk copy per run, not per row. `rows` must be strictly ascending,
    /// in range and as long as `patch`, as [`Column::patched`](crate::Column::patched),
    /// the one caller, has vetted. `None` unless base and patch together
    /// fit the `u32` offsets.
    pub(crate) fn splice(&self, rows: &[u32], patch: &TextRows) -> Option<TextRows> {
        u32::try_from(self.buf.len() + patch.buf.len()).ok()?;
        debug_assert_eq!(rows.len(), patch.len(), "rows vetted by the caller");
        // Base rows `next..r`, then patch rows `k..k + run`, per run.
        let (mut pieces, mut next) = (Vec::new(), 0);
        for (r, k, run) in runs(rows) {
            pieces.extend([(self, next, r), (patch, k, k + run)]);
            next = r + run;
        }
        pieces.push((self, next, self.len()));
        Some(concat(pieces.iter().copied()))
    }

    /// Rows `rows` (any order, repeats allowed) as a column of their own:
    /// the patch of a sparse delta, or a subgraph's projection. Copies
    /// maximal runs of consecutive rows; panics on a row out of range, as
    /// the writer takes `rows` from the data it writes.
    pub fn gather(&self, rows: &[u32]) -> TextRows {
        concat(runs(rows).map(|(r, _, run)| (self, r, r + run)))
    }

    /// Where rows `from..to` lie: their strings' index range and their
    /// bytes' range in `buf`.
    fn lie(&self, from: usize, to: usize) -> (Range<usize>, Range<usize>) {
        let (s0, s1) = (start_of(&self.row_ends, from), start_of(&self.row_ends, to));
        let (b0, b1) = (start_of(&self.str_ends, s0), start_of(&self.str_ends, s1));
        (s0..s1, b0..b1)
    }

    /// Append rows `from..to` of `src`, re-basing their offsets.
    fn append_rows(&mut self, src: &TextRows, from: usize, to: usize) {
        let (strings, bytes) = src.lie(from, to);
        let (b0, s0) = (bytes.start, strings.start);
        let (at_byte, at_string) = (self.buf.len(), self.str_ends.len());
        self.buf.push_str(&src.buf[bytes]);
        let str_ends = src.str_ends[strings].iter();
        self.str_ends
            .extend(str_ends.map(|&e| (e as usize - b0 + at_byte) as u32));
        let row_ends = src.row_ends[from..to].iter();
        self.row_ends
            .extend(row_ends.map(|&e| (e as usize - s0 + at_string) as u32));
    }
}

/// Rows `from..to` of each `(column, from, to)` piece, back to back. A
/// first pass over the pieces sizes the output exactly, at O(1) a piece.
fn concat<'a, I>(pieces: I) -> TextRows
where
    I: Iterator<Item = (&'a TextRows, usize, usize)> + Clone,
{
    let (mut rows, mut strings, mut bytes) = (0, 0, 0);
    for (src, from, to) in pieces.clone() {
        let (s, b) = src.lie(from, to);
        (rows, strings, bytes) = (rows + to - from, strings + s.len(), bytes + b.len());
    }
    assert!(bytes <= u32::MAX as usize, "text column over 4 GiB");
    let mut out = TextRows {
        buf: String::with_capacity(bytes),
        str_ends: Vec::with_capacity(strings),
        row_ends: Vec::with_capacity(rows),
    };
    for (src, from, to) in pieces {
        out.append_rows(src, from, to);
    }
    out
}

/// The maximal runs of consecutive rows in `rows`, in order: `(first row,
/// its index in rows, length)`.
fn runs(rows: &[u32]) -> impl Iterator<Item = (usize, usize, usize)> + Clone + '_ {
    let mut k = 0;
    std::iter::from_fn(move || {
        let r = *rows.get(k)? as usize;
        let run = (rows[k..].iter().zip(r..))
            .take_while(|&(&row, at)| row as usize == at)
            .count();
        k += run;
        Some((r, k - run, run))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(rows: &[&[&str]]) -> TextRows {
        TextRows::from_rows(rows.iter().map(|r| r.iter().copied()))
    }

    fn unflatten(t: &TextRows) -> Vec<Vec<&str>> {
        t.iter().map(|r| r.iter().collect()).collect()
    }

    #[test]
    fn rows_read_back_with_empty_lists_and_strings() {
        let t = lists(&[&["#a", "", "héllo"], &[], &["#a"]]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(
            unflatten(&t),
            vec![vec!["#a", "", "héllo"], vec![], vec!["#a"]]
        );
        assert_eq!((t.row(0).len(), t.row(1).len()), (3, 0));
        assert_eq!(t.count_eq("#a"), 2);
        assert_eq!(t.count_eq(""), 1);
        assert_eq!(t.count_eq("#b"), 0);
        assert_eq!(t.heap_bytes(), "#ahéllo#a".len() + 4 * (4 + 3));
        assert_eq!(t.text_len(), "#ahéllo#a".len());
        assert!(TextRows::default().is_empty());
    }

    #[test]
    fn from_parts_accepts_exactly_what_from_rows_builds() {
        let t = lists(&[&["é", "x"], &[]]);
        let back = TextRows::from_parts("éx".into(), vec![2, 3], vec![2, 2]).unwrap();
        assert_eq!(back, t);
        // A two-byte character split across two strings: the buffer as a
        // whole is valid UTF-8, the strings are not.
        assert!(TextRows::from_parts("é".into(), vec![1, 2], vec![2]).is_none());
        assert!(TextRows::from_parts(vec![0xff], vec![1], vec![1]).is_none());
        // Ends that overrun, fall short, or go backwards.
        assert!(TextRows::from_parts("ab".into(), vec![3], vec![1]).is_none());
        assert!(TextRows::from_parts("ab".into(), vec![1], vec![1]).is_none());
        assert!(TextRows::from_parts("ab".into(), vec![2, 1, 2], vec![3]).is_none());
        assert!(TextRows::from_parts("ab".into(), vec![1, 2], vec![1]).is_none());
        assert!(TextRows::from_parts("ab".into(), vec![1, 2], vec![2, 1, 2]).is_none());
        assert!(TextRows::from_parts(vec![], vec![], vec![1]).is_none());
    }

    #[test]
    fn splice_replaces_rows_and_copies_runs() {
        let base = lists(&[&["a"], &["b", "c"], &[], &["d"], &["e"]]);
        let patch = lists(&[&[], &["X", "YY"], &["Z"]]);
        let got = base.splice(&[1, 2, 4], &patch).unwrap();
        assert_eq!(got, lists(&[&["a"], &[], &["X", "YY"], &["d"], &["Z"]]));
        // No change, and every row changed.
        assert_eq!(base.splice(&[], &TextRows::default()).unwrap(), base);
        let all = lists(&[&["1"], &[], &["3"], &[], &["5"]]);
        assert_eq!(base.splice(&[0, 1, 2, 3, 4], &all).unwrap(), all);
    }

    #[test]
    fn gather_picks_rows_in_any_order() {
        let base = lists(&[&["a"], &["b", "c"], &[], &["d"], &["e"]]);
        let got = base.gather(&[3, 4, 1, 1, 2]);
        assert_eq!(got, lists(&[&["d"], &["e"], &["b", "c"], &["b", "c"], &[]]));
        assert_eq!(got.heap_bytes(), "debcbc".len() + 4 * (6 + 5));
        assert_eq!(base.gather(&[]), TextRows::default());
        assert_eq!(base.gather(&[0, 1, 2, 3, 4]), base);
    }

    #[test]
    fn rows_compare_by_their_strings() {
        let t = lists(&[&["a", "b"], &["ab"], &["a", "b"], &[], &[""]]);
        assert_eq!(t.row(0), t.row(2));
        assert_ne!(t.row(0), t.row(1));
        assert_ne!(t.row(3), t.row(4));
        assert_eq!(format!("{:?}", t.row(0)), r#"["a", "b"]"#);
        assert!(t.row(3).is_empty() && !t.row(4).is_empty());
        assert_eq!(t.num_strings(), 6);
        assert!(!t.one_per_row());
        assert!(lists(&[&["a"], &[""]]).one_per_row());
        assert!(TextRows::default().one_per_row());
    }

    /// The output is sized from its runs, not from base plus patch: a
    /// patch over long rows reserves nothing for the rows it replaces.
    #[test]
    fn splice_reserves_exactly_what_it_holds() {
        let base = lists(&[&["long base row"], &["b", "c"], &[], &["dddddddd"], &["e"]]);
        let patch = lists(&[&[], &["X", "YY"], &["Z"]]);
        for (rows, patch) in [
            (&[1, 2, 4][..], &patch),
            (&[0, 3, 4], &patch),
            (&[], &TextRows::default()),
        ] {
            let got = base.splice(rows, patch).unwrap();
            assert_eq!(got.buf.capacity(), got.buf.len());
            assert_eq!(got.str_ends.capacity(), got.str_ends.len());
            assert_eq!(got.row_ends.capacity(), got.row_ends.len());
            let used = got.buf.len() + 4 * (got.str_ends.len() + got.row_ends.len());
            assert_eq!(got.heap_bytes(), used);
        }
        // What is reserved counts, not what is used.
        let mut roomy = base.clone();
        roomy.buf.reserve(100);
        assert!(roomy.heap_bytes() >= base.heap_bytes() + 100);
    }
}
