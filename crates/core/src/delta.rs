//! Sparse deltas between same-shaped [`Column`]s.
//!
//! Time-series graphs change slowly: successive instances of a column are
//! mostly identical, with a handful of rows differing (`isExists` churn,
//! a few active vertices). The GoFS v2 slice format exploits this by
//! storing, for every instance after the first in a pack, only the rows
//! that differ from the pack's base snapshot. This module provides the
//! storage-agnostic half of that scheme:
//!
//! * [`Column::changed_rows`] — which rows of `self` differ from `base`;
//! * [`Column::gather_rows`] — extract those rows as a small dense column;
//! * [`Column::patched`] — the base with such a patch applied: a clone
//!   written over for a fixed-width or `LongList` column, a splice of
//!   maximal row runs for a text one. It vets the patch's rows once, for
//!   every type.
//!
//! `Double` columns compare by **bit pattern** (`f64::to_bits`), so `NaN`
//! payloads and signed zeros survive a delta round-trip exactly — the
//! invariant is `base.patched(rows, values) == cur` for *any* floats,
//! not just the well-behaved ones.

use crate::error::{CoreError, Result};
use crate::instance::Column;
use crate::text::TextRows;

/// Compare one row of two same-typed columns; `Double` compares by bits.
macro_rules! rows_differ {
    ($a:expr, $b:expr, f64) => {
        $a.to_bits() != $b.to_bits()
    };
    ($a:expr, $b:expr) => {
        $a != $b
    };
}

impl Column {
    /// Indices of rows where `self` differs from `base`, ascending.
    ///
    /// Errors with [`CoreError::DeltaMismatch`] when the columns have
    /// different types or lengths — deltas are only defined between two
    /// instances of the *same* projected column.
    pub fn changed_rows(&self, base: &Column) -> Result<Vec<u32>> {
        if self.ty() != base.ty() {
            return Err(CoreError::DeltaMismatch(format!(
                "type {:?} vs base {:?}",
                self.ty(),
                base.ty()
            )));
        }
        if self.len() != base.len() {
            return Err(CoreError::DeltaMismatch(format!(
                "length {} vs base {}",
                self.len(),
                base.len()
            )));
        }
        fn diff<T>(cur: &[T], base: &[T], ne: impl Fn(&T, &T) -> bool) -> Vec<u32> {
            cur.iter()
                .zip(base)
                .enumerate()
                .filter(|(_, (c, b))| ne(c, b))
                .map(|(i, _)| i as u32)
                .collect()
        }
        Ok(match (self, base) {
            (Column::Long(c), Column::Long(b)) => diff(c, b, |x, y| rows_differ!(x, y)),
            (Column::Double(c), Column::Double(b)) => diff(c, b, |x, y| rows_differ!(x, y, f64)),
            (Column::Bool(c), Column::Bool(b)) => diff(c, b, |x, y| rows_differ!(x, y)),
            (Column::LongList(c), Column::LongList(b)) => diff(c, b, |x, y| rows_differ!(x, y)),
            (Column::Text(c), Column::Text(b)) | (Column::TextList(c), Column::TextList(b)) => {
                let rows = 0..c.len() as u32;
                rows.filter(|&i| c.row(i as usize) != b.row(i as usize))
                    .collect()
            }
            // Unreachable: the type check above already rejected mixed pairs.
            (c, b) => {
                return Err(CoreError::DeltaMismatch(format!(
                    "type {:?} vs base {:?}",
                    c.ty(),
                    b.ty()
                )))
            }
        })
    }

    /// Extract `rows` (ascending, in-range) as a dense column of the same
    /// type. Panics on out-of-range rows — this is the encode side, where
    /// rows come straight from [`Column::changed_rows`].
    pub fn gather_rows(&self, rows: &[u32]) -> Column {
        fn pick<T: Clone>(v: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&i| v[i as usize].clone()).collect()
        }
        match self {
            Column::Long(v) => Column::Long(pick(v, rows)),
            Column::Double(v) => Column::Double(pick(v, rows)),
            Column::Bool(v) => Column::Bool(pick(v, rows)),
            Column::LongList(v) => Column::LongList(pick(v, rows)),
            Column::Text(t) => Column::Text(t.gather(rows)),
            Column::TextList(t) => Column::TextList(t.gather(rows)),
        }
    }

    /// `self` with row `rows[i]` replaced by row `i` of `values`: the
    /// decode side of a sparse delta, and its one apply path. Everything
    /// is validated (type, counts, strictly ascending in-range rows) and
    /// reported as [`CoreError::DeltaMismatch`] — untrusted bytes must
    /// never panic.
    pub fn patched(&self, rows: &[u32], values: &Column) -> Result<Column> {
        if self.ty() != values.ty() {
            return Err(CoreError::DeltaMismatch(format!(
                "patch type {:?} vs column {:?}",
                values.ty(),
                self.ty()
            )));
        }
        if rows.len() != values.len() {
            return Err(CoreError::DeltaMismatch(format!(
                "{} rows but {} values",
                rows.len(),
                values.len()
            )));
        }
        let len = self.len();
        let mut prev: Option<u32> = None;
        for &r in rows {
            if r as usize >= len {
                return Err(CoreError::DeltaMismatch(format!(
                    "row {r} out of range (column has {len} rows)"
                )));
            }
            if prev.is_some_and(|p| p >= r) {
                return Err(CoreError::DeltaMismatch(
                    "rows must be strictly ascending".into(),
                ));
            }
            prev = Some(r);
        }
        fn put<T: Clone>(base: &[T], rows: &[u32], values: &[T]) -> Vec<T> {
            let mut out = base.to_vec();
            for (&r, v) in rows.iter().zip(values) {
                out[r as usize] = v.clone();
            }
            out
        }
        Ok(match (self, values) {
            (Column::Long(d), Column::Long(v)) => Column::Long(put(d, rows, v)),
            (Column::Double(d), Column::Double(v)) => Column::Double(put(d, rows, v)),
            (Column::Bool(d), Column::Bool(v)) => Column::Bool(put(d, rows, v)),
            (Column::LongList(d), Column::LongList(v)) => Column::LongList(put(d, rows, v)),
            (Column::Text(d), Column::Text(v)) => Column::Text(splice(d, rows, v)?),
            (Column::TextList(d), Column::TextList(v)) => Column::TextList(splice(d, rows, v)?),
            // Unreachable: the type check above already rejected mixed pairs.
            (d, v) => {
                return Err(CoreError::DeltaMismatch(format!(
                    "patch type {:?} vs column {:?}",
                    v.ty(),
                    d.ty()
                )))
            }
        })
    }
}

/// [`TextRows::splice`] over rows [`Column::patched`] has vetted: its one
/// failure is text past the `u32` offsets.
fn splice(base: &TextRows, rows: &[u32], patch: &TextRows) -> Result<TextRows> {
    (base.splice(rows, patch))
        .ok_or_else(|| CoreError::DeltaMismatch("patched text over 4 GiB".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_gather_scatter_roundtrip() {
        let base = Column::Long(vec![1, 2, 3, 4, 5]);
        let cur = Column::Long(vec![1, 20, 3, 40, 5]);
        let rows = cur.changed_rows(&base).unwrap();
        assert_eq!(rows, vec![1, 3]);
        let patch = cur.gather_rows(&rows);
        assert_eq!(patch, Column::Long(vec![20, 40]));
        assert_eq!(base.patched(&rows, &patch).unwrap(), cur);
    }

    #[test]
    fn identical_columns_have_no_changes() {
        let c = Column::Text(TextRows::from_rows([["a"], ["b"]]));
        assert!(c.changed_rows(&c.clone()).unwrap().is_empty());
    }

    #[test]
    fn doubles_compare_by_bits() {
        let base = Column::Double(vec![0.0, 1.0, f64::NAN]);
        let cur = Column::Double(vec![-0.0, 1.0, f64::NAN]);
        // -0.0 == 0.0 numerically but differs bitwise; NaN != NaN
        // numerically but the bit patterns here are identical.
        let rows = cur.changed_rows(&base).unwrap();
        assert_eq!(rows, vec![0]);
        match base.patched(&rows, &cur.gather_rows(&rows)).unwrap() {
            Column::Double(v) => {
                assert_eq!(v[0].to_bits(), (-0.0f64).to_bits());
                assert!(v[2].is_nan());
            }
            other => panic!("wrong type {:?}", other.ty()),
        }
    }

    #[test]
    fn list_columns_delta() {
        let base = Column::TextList(TextRows::from_rows([vec![], vec!["x"], vec![]]));
        let cur = Column::TextList(TextRows::from_rows([vec![], vec!["x", "y"], vec![]]));
        let rows = cur.changed_rows(&base).unwrap();
        assert_eq!(rows, vec![1]);
        let patch = cur.gather_rows(&rows);
        assert_eq!(patch, Column::TextList(TextRows::from_rows([["x", "y"]])));
        assert_eq!(base.patched(&rows, &patch).unwrap(), cur);
    }

    #[test]
    fn mismatches_are_typed_errors() {
        let longs = Column::Long(vec![1]);
        let doubles = Column::Double(vec![1.0]);
        assert!(matches!(
            longs.changed_rows(&doubles),
            Err(CoreError::DeltaMismatch(_))
        ));
        assert!(matches!(
            longs.changed_rows(&Column::Long(vec![1, 2])),
            Err(CoreError::DeltaMismatch(_))
        ));

        let dst = Column::Long(vec![1, 2, 3]);
        // Wrong patch type.
        assert!(dst.patched(&[0], &Column::Double(vec![0.5])).is_err());
        // Count mismatch.
        assert!(dst.patched(&[0, 1], &Column::Long(vec![9])).is_err());
        // Out of range.
        assert!(dst.patched(&[7], &Column::Long(vec![9])).is_err());
        // Not ascending.
        assert!(dst.patched(&[1, 1], &Column::Long(vec![9, 9])).is_err());
        // The same checks hold for text, which splices.
        let text = Column::TextList(TextRows::from_rows([vec!["a"], vec![]]));
        let patch = Column::TextList(TextRows::from_rows([vec!["b"], vec!["c"]]));
        assert!(text.patched(&[1, 0], &patch).is_err());
        assert!(text.patched(&[0, 2], &patch).is_err());
        assert!(text.patched(&[0], &patch).is_err());
    }
}
