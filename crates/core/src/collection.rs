//! The time-series collection `Γ = ⟨Ĝ, G, t0, δ⟩`.

use crate::error::{CoreError, Result};
use crate::instance::GraphInstance;
use crate::template::GraphTemplate;
use std::sync::Arc;

/// An ordered, periodic series of [`GraphInstance`]s over one shared
/// [`GraphTemplate`].
///
/// Invariant: instance `i` has timestamp exactly `t0 + i·δ` (the paper's
/// periodicity assumption, §II.A), enforced at [`TimeSeriesCollection::push`].
#[derive(Clone, Debug)]
pub struct TimeSeriesCollection {
    template: Arc<GraphTemplate>,
    start_time: i64,
    period: i64,
    instances: Vec<GraphInstance>,
}

impl TimeSeriesCollection {
    /// An empty collection starting at `start_time` with period `period`.
    ///
    /// # Panics
    /// Panics if `period <= 0`; use [`TimeSeriesCollection::try_new`] for a
    /// fallible variant.
    pub fn new(template: Arc<GraphTemplate>, start_time: i64, period: i64) -> Self {
        Self::try_new(template, start_time, period).expect("period must be > 0")
    }

    /// Fallible constructor.
    pub fn try_new(template: Arc<GraphTemplate>, start_time: i64, period: i64) -> Result<Self> {
        if period <= 0 {
            return Err(CoreError::InvalidPeriod(period));
        }
        Ok(TimeSeriesCollection {
            template,
            start_time,
            period,
            instances: Vec::new(),
        })
    }

    /// The shared template `Ĝ`.
    pub fn template(&self) -> &Arc<GraphTemplate> {
        &self.template
    }

    /// `t0`: timestamp of the first instance.
    pub fn start_time(&self) -> i64 {
        self.start_time
    }

    /// `δ`: the constant period between successive instances.
    pub fn period(&self) -> i64 {
        self.period
    }

    /// Number of instances currently held.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instances have been pushed.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Timestamp the next pushed instance must carry.
    pub fn next_timestamp(&self) -> i64 {
        self.start_time + self.period * self.instances.len() as i64
    }

    /// A fresh default-valued instance stamped with
    /// [`TimeSeriesCollection::next_timestamp`], ready to fill and push.
    pub fn new_instance(&self) -> GraphInstance {
        GraphInstance::new(&self.template, self.next_timestamp())
    }

    /// Append an instance, validating its timestamp and template conformance.
    pub fn push(&mut self, instance: GraphInstance) -> Result<()> {
        let expected = self.next_timestamp();
        if instance.timestamp() != expected {
            return Err(CoreError::TimestampMismatch {
                expected,
                got: instance.timestamp(),
            });
        }
        instance.validate_against(&self.template)?;
        self.instances.push(instance);
        Ok(())
    }

    /// Instance at position `i` (timestep index).
    pub fn get(&self, i: usize) -> Option<&GraphInstance> {
        self.instances.get(i)
    }

    /// Mutable instance at position `i`.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut GraphInstance> {
        self.instances.get_mut(i)
    }

    /// Iterate instances in time order.
    pub fn iter(&self) -> impl Iterator<Item = &GraphInstance> {
        self.instances.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrType;
    use crate::instance::Column;
    use crate::template::TemplateBuilder;
    use crate::text::TextRows;

    fn template() -> Arc<GraphTemplate> {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("x", AttrType::Long);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_edge(0, 1, 2).unwrap();
        Arc::new(b.finalize().unwrap())
    }

    #[test]
    fn push_enforces_periodic_timestamps() {
        let t = template();
        let mut c = TimeSeriesCollection::new(t.clone(), 100, 5);
        assert_eq!(c.next_timestamp(), 100);
        c.push(c.new_instance()).unwrap();
        assert_eq!(c.next_timestamp(), 105);
        c.push(c.new_instance()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0).unwrap().timestamp(), 100);
        assert_eq!(c.get(1).unwrap().timestamp(), 105);

        let bad = GraphInstance::new(&t, 999);
        assert_eq!(
            c.push(bad),
            Err(CoreError::TimestampMismatch {
                expected: 110,
                got: 999
            })
        );
    }

    #[test]
    fn invalid_period_rejected() {
        let t = template();
        assert!(TimeSeriesCollection::try_new(t.clone(), 0, 0).is_err());
        assert!(TimeSeriesCollection::try_new(t, 0, -5).is_err());
    }

    #[test]
    #[should_panic(expected = "period must be > 0")]
    fn new_panics_on_bad_period() {
        let _ = TimeSeriesCollection::new(template(), 0, 0);
    }

    #[test]
    fn push_rejects_foreign_template() {
        let t = template();
        let mut other_b = TemplateBuilder::new("other", false);
        other_b.vertex_schema().add("y", AttrType::Double);
        other_b.add_vertex(1);
        let other = other_b.finalize().unwrap();

        let mut c = TimeSeriesCollection::new(t, 0, 1);
        let foreign = GraphInstance::new(&other, 0);
        assert!(c.push(foreign).is_err());
    }

    #[test]
    fn iter_preserves_order() {
        let t = template();
        let mut c = TimeSeriesCollection::new(t, 0, 10);
        for _ in 0..4 {
            c.push(c.new_instance()).unwrap();
        }
        let stamps: Vec<i64> = c.iter().map(|g| g.timestamp()).collect();
        assert_eq!(stamps, vec![0, 10, 20, 30]);
    }

    #[test]
    fn mutate_through_get_mut() {
        let t = template();
        let mut c = TimeSeriesCollection::new(t, 0, 1);
        c.push(c.new_instance()).unwrap();
        c.get_mut(0).unwrap().vertex_i64_mut("x").unwrap()[0] = 77;
        assert_eq!(c.get(0).unwrap().vertex_col(0), &Column::Long(vec![77, 0]));
    }

    /// A `Text` row holds exactly one string: a row of none or of two is
    /// refused at push, where the rest of an instance's shape is checked.
    #[test]
    fn push_refuses_a_text_row_without_exactly_one_string() {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("name", AttrType::Text);
        b.add_vertex(1);
        b.add_vertex(2);
        let t = Arc::new(b.finalize().unwrap());
        let mut c = TimeSeriesCollection::new(t, 0, 1);
        for rows in [vec![vec!["a"], vec![]], vec![vec!["a"], vec!["b", "c"]]] {
            let mut g = c.new_instance();
            g.set_vertex_col("name", Column::Text(TextRows::from_rows(rows)))
                .unwrap();
            assert!(matches!(c.push(g), Err(CoreError::TemplateMismatch(_))));
        }
        let mut g = c.new_instance();
        let names = TextRows::from_rows([["a"], [""]]);
        g.set_vertex_col("name", Column::Text(names)).unwrap();
        c.push(g).unwrap();
        assert_eq!(c.len(), 1);
    }
}
