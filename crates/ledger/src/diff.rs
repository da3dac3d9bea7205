//! Record-to-record comparison with a noise floor.
//!
//! Timing fields (names ending `_ns`) regress only when they exceed both
//! the relative threshold *and* an absolute noise floor, so scheduler
//! jitter on millisecond-scale fields is not reported. Count fields are
//! deterministic for a seeded run; any change to them is reported as a
//! fatal drift regardless of magnitude.

use crate::record::RunRecord;

/// Absolute floor below which a timing delta is noise, whatever the
/// percentage.
pub const NOISE_FLOOR_NS: u64 = 25_000_000;

/// Default relative regression threshold for timing fields (+50%).
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// How one field moved between two records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Timing regression past threshold + noise floor: gate-fatal.
    TimingRegression,
    /// Timing movement within tolerance: informational.
    TimingDrift,
    /// A deterministic count changed: gate-fatal (same seed should
    /// reproduce identical counts).
    CountChanged,
}

/// One changed field between two records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDelta {
    /// Where the field lives (`aggregates` or `counters`).
    pub section: &'static str,
    /// Field or counter name.
    pub field: String,
    /// Value in the old (baseline) record.
    pub old: u64,
    /// Value in the new record.
    pub new: u64,
    /// Classification under the gate rules.
    pub kind: DeltaKind,
}

impl FieldDelta {
    /// True when this delta should fail a gated comparison.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self.kind,
            DeltaKind::TimingRegression | DeltaKind::CountChanged
        )
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self.kind {
            DeltaKind::TimingRegression | DeltaKind::TimingDrift => {
                let pct = if self.old > 0 {
                    (self.new as f64 - self.old as f64) / self.old as f64 * 100.0
                } else {
                    0.0
                };
                let label = if self.kind == DeltaKind::TimingRegression {
                    "REGRESSION"
                } else {
                    "drift"
                };
                format!(
                    "{label} {}.{}: {}ms -> {}ms ({:+.1}%)",
                    self.section,
                    self.field,
                    self.old / 1_000_000,
                    self.new / 1_000_000,
                    pct
                )
            }
            DeltaKind::CountChanged => format!(
                "COUNT CHANGED {}.{}: {} -> {}",
                self.section, self.field, self.old, self.new
            ),
        }
    }
}

/// The result of comparing two records.
#[derive(Clone, Debug, Default)]
pub struct RecordDiff {
    /// Every changed field, in a deterministic order (aggregates in
    /// declaration order, then counters by name).
    pub deltas: Vec<FieldDelta>,
    /// True when the two records' config fingerprints differ (comparison
    /// is still produced, but apples-to-apples is not guaranteed).
    pub config_differs: bool,
}

impl RecordDiff {
    /// Gate-fatal deltas only.
    pub fn fatal(&self) -> impl Iterator<Item = &FieldDelta> {
        self.deltas.iter().filter(|d| d.is_fatal())
    }
}

/// Classify one timing field move under the noise-floor gate rule:
/// regression iff `new > round(old * (1 + threshold))` **and**
/// `new - old > NOISE_FLOOR_NS`.
fn classify_timing(old: u64, new: u64, threshold: f64) -> DeltaKind {
    let limit = (old as f64 * (1.0 + threshold)).round() as u64;
    if new > limit && new - old > NOISE_FLOOR_NS {
        DeltaKind::TimingRegression
    } else {
        DeltaKind::TimingDrift
    }
}

/// Compare two records field-by-field. `threshold` is the relative timing
/// tolerance (e.g. 0.5 ⇒ +50%).
pub fn diff_records(old: &RunRecord, new: &RunRecord, threshold: f64) -> RecordDiff {
    let mut deltas = Vec::new();
    for ((name, o), (_, n)) in old
        .aggregates
        .fields()
        .iter()
        .zip(new.aggregates.fields().iter())
    {
        if o == n {
            continue;
        }
        let kind = if name.ends_with("_ns") {
            classify_timing(*o, *n, threshold)
        } else {
            DeltaKind::CountChanged
        };
        deltas.push(FieldDelta {
            section: "aggregates",
            field: (*name).to_string(),
            old: *o,
            new: *n,
            kind,
        });
    }

    // Counters: union of names, absent ⇒ 0. Both lists are name-sorted,
    // so a two-pointer merge keeps the output deterministic.
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let (name, o, n) = match (old.counters.get(i), new.counters.get(j)) {
            (Some((a, ov)), Some((b, nv))) => match a.cmp(b) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (a.clone(), *ov, *nv)
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    (a.clone(), *ov, 0)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    (b.clone(), 0, *nv)
                }
            },
            (Some((a, ov)), None) => {
                i += 1;
                (a.clone(), *ov, 0)
            }
            (None, Some((b, nv))) => {
                j += 1;
                (b.clone(), 0, *nv)
            }
            (None, None) => break,
        };
        if o != n {
            deltas.push(FieldDelta {
                section: "counters",
                field: name,
                old: o,
                new: n,
                kind: DeltaKind::CountChanged,
            });
        }
    }

    RecordDiff {
        deltas,
        config_differs: old.config != new.config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wall_ns: u64, msgs_local: u64) -> RunRecord {
        let mut r = RunRecord::default();
        r.aggregates.wall_ns = wall_ns;
        r.aggregates.msgs_local = msgs_local;
        r
    }

    #[test]
    fn identical_records_diff_clean() {
        let a = rec(1_000_000_000, 42);
        let d = diff_records(&a, &a.clone(), DEFAULT_THRESHOLD);
        assert!(d.deltas.is_empty());
        assert_eq!(d.fatal().count(), 0);
        assert!(!d.config_differs);
    }

    #[test]
    fn timing_regression_needs_threshold_and_floor() {
        // +100% but only 10ms absolute: under the 25ms floor ⇒ drift.
        let d = diff_records(&rec(10_000_000, 0), &rec(20_000_000, 0), 0.5);
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.deltas[0].kind, DeltaKind::TimingDrift);
        assert_eq!(d.fatal().count(), 0);

        // +100% and 1000ms absolute: past both ⇒ regression.
        let d = diff_records(&rec(1_000_000_000, 0), &rec(2_000_000_000, 0), 0.5);
        assert_eq!(d.deltas[0].kind, DeltaKind::TimingRegression);
        assert!(d.fatal().next().is_some());
        assert!(d.deltas[0].describe().contains("REGRESSION"));

        // Large absolute but under +50% ⇒ drift.
        let d = diff_records(&rec(1_000_000_000, 0), &rec(1_400_000_000, 0), 0.5);
        assert_eq!(d.deltas[0].kind, DeltaKind::TimingDrift);

        // Improvements never regress.
        let d = diff_records(&rec(2_000_000_000, 0), &rec(1_000_000_000, 0), 0.5);
        assert_eq!(d.deltas[0].kind, DeltaKind::TimingDrift);
    }

    #[test]
    fn count_changes_are_always_fatal() {
        let d = diff_records(&rec(0, 41), &rec(0, 42), DEFAULT_THRESHOLD);
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.deltas[0].kind, DeltaKind::CountChanged);
        assert!(d.fatal().next().is_some());
        assert!(d.deltas[0].describe().contains("COUNT CHANGED"));
    }

    #[test]
    fn counter_union_handles_asymmetry() {
        let a = RunRecord {
            counters: vec![("colored".into(), 5), ("seen".into(), 9)],
            ..Default::default()
        };
        let b = RunRecord {
            counters: vec![("infected".into(), 3), ("seen".into(), 9)],
            ..Default::default()
        };
        let d = diff_records(&a, &b, DEFAULT_THRESHOLD);
        let names: Vec<&str> = d.deltas.iter().map(|x| x.field.as_str()).collect();
        assert_eq!(names, vec!["colored", "infected"]);
        assert_eq!(d.deltas[0].new, 0);
        assert_eq!(d.deltas[1].old, 0);
    }

    #[test]
    fn config_mismatch_is_flagged() {
        let a = RunRecord::default();
        let mut b = RunRecord::default();
        b.config.algorithm = "other".into();
        assert!(diff_records(&a, &b, DEFAULT_THRESHOLD).config_differs);
    }
}
