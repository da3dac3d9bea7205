//! Flat, read-only text columns.
//!
//! [`Column::Text`](crate::Column) / [`Column::TextList`](crate::Column)
//! are the *writable* form: one `String` per value. [`TextRows`] is the
//! form a reader holds: every string of the column back to back in one
//! validated buffer plus two offset arrays — three allocations per column
//! instead of one per row and one per string.

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

impl TextRows {
    /// Flatten borrowed rows (the in-memory source converts once here).
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

    /// The strings of row `i` in order (`.len()` is their number); panics
    /// when `i` is out of range, like slice indexing.
    pub fn row(&self, i: usize) -> impl ExactSizeIterator<Item = &str> {
        (start_of(&self.row_ends, i)..self.row_ends[i] as usize)
            .map(|j| &self.buf[start_of(&self.str_ends, j)..self.str_ends[j] as usize])
    }

    /// Rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = &str>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// How many strings of the column, over all rows, equal `needle`: one
    /// linear pass over the offsets that touches a string's bytes only
    /// when its length matches.
    pub fn count_eq(&self, needle: &str) -> u64 {
        let (bytes, needle) = (self.buf.as_bytes(), needle.as_bytes());
        let (mut start, mut count) = (0, 0);
        for &end in &self.str_ends {
            let end = end as usize;
            count += u64::from(end - start == needle.len() && bytes[start..end] == *needle);
            start = end;
        }
        count
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.buf.len() + 4 * (self.str_ends.len() + self.row_ends.len())
    }

    /// `self` with row `rows[k]` replaced by `patch.row(k)` — a sparse
    /// delta applied without cloning the base: the unchanged runs between
    /// patched rows are bulk copies. `None` unless `rows` is strictly
    /// ascending, in range and as long as `patch`.
    pub fn splice(&self, rows: &[u32], patch: &TextRows) -> Option<TextRows> {
        u32::try_from(self.buf.len() + patch.buf.len()).ok()?;
        if rows.len() != patch.len() {
            return None;
        }
        let mut out = TextRows {
            buf: String::with_capacity(self.buf.len() + patch.buf.len()),
            str_ends: Vec::with_capacity(self.str_ends.len() + patch.str_ends.len()),
            row_ends: Vec::with_capacity(self.len()),
        };
        let mut next = 0; // first base row not yet copied
        for (k, &r) in rows.iter().enumerate() {
            let r = r as usize;
            if r < next || r >= self.len() {
                return None;
            }
            out.append_rows(self, next, r);
            out.append_rows(patch, k, k + 1);
            next = r + 1;
        }
        out.append_rows(self, next, self.len());
        Some(out)
    }

    /// Append rows `from..to` of `src`, re-basing their offsets.
    fn append_rows(&mut self, src: &TextRows, from: usize, to: usize) {
        let (s0, s1) = (start_of(&src.row_ends, from), start_of(&src.row_ends, to));
        let (b0, b1) = (start_of(&src.str_ends, s0), start_of(&src.str_ends, s1));
        let (bytes, strings) = (self.buf.len(), self.str_ends.len());
        self.buf.push_str(&src.buf[b0..b1]);
        let str_ends = src.str_ends[s0..s1].iter();
        self.str_ends
            .extend(str_ends.map(|&e| (e as usize - b0 + bytes) as u32));
        let row_ends = src.row_ends[from..to].iter();
        self.row_ends
            .extend(row_ends.map(|&e| (e as usize - s0 + strings) as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(rows: &[&[&str]]) -> TextRows {
        TextRows::from_rows(rows.iter().map(|r| r.iter().copied()))
    }

    fn unflatten(t: &TextRows) -> Vec<Vec<&str>> {
        t.iter().map(|r| r.collect()).collect()
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
        // Malformed patches.
        assert!(base.splice(&[1], &patch).is_none(), "length mismatch");
        assert!(base.splice(&[2, 2, 3], &patch).is_none(), "not ascending");
        assert!(base.splice(&[1, 2, 5], &patch).is_none(), "out of range");
    }
}
