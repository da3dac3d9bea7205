//! Graph instances `gᵗ = ⟨Vᵗ, Eᵗ, t⟩`: columnar time-variant values.
//!
//! An instance carries one typed [`Column`] per schema attribute, for
//! vertices and for edges, each exactly as long as the template's vertex /
//! edge count. Instances embed a copy of the (tiny) schemas so they are
//! self-describing for serialisation and name-based access; hot loops should
//! resolve a name to a column position once and then use the positional
//! accessors ([`GraphInstance::vertex_col`] etc.).

use crate::attr::{AttrType, AttrValue, Schema};
use crate::error::{CoreError, Result};
use crate::ids::{EdgeIdx, VertexIdx};
use crate::template::GraphTemplate;

/// A dense, typed column of attribute values.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// `i64` values.
    Long(Vec<i64>),
    /// `f64` values.
    Double(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings.
    Text(Vec<String>),
    /// Lists of `i64`.
    LongList(Vec<Vec<i64>>),
    /// Lists of strings.
    TextList(Vec<Vec<String>>),
}

impl Column {
    /// A column of `len` default values of type `ty`.
    pub fn new(ty: AttrType, len: usize) -> Column {
        match ty {
            AttrType::Long => Column::Long(vec![0; len]),
            AttrType::Double => Column::Double(vec![0.0; len]),
            AttrType::Bool => Column::Bool(vec![false; len]),
            AttrType::Text => Column::Text(vec![String::new(); len]),
            AttrType::LongList => Column::LongList(vec![Vec::new(); len]),
            AttrType::TextList => Column::TextList(vec![Vec::new(); len]),
        }
    }

    /// The column's element type.
    pub fn ty(&self) -> AttrType {
        match self {
            Column::Long(_) => AttrType::Long,
            Column::Double(_) => AttrType::Double,
            Column::Bool(_) => AttrType::Bool,
            Column::Text(_) => AttrType::Text,
            Column::LongList(_) => AttrType::LongList,
            Column::TextList(_) => AttrType::TextList,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Long(v) => v.len(),
            Column::Double(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Text(v) => v.len(),
            Column::LongList(v) => v.len(),
            Column::TextList(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Long(v) => v.len() * 8,
            Column::Double(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Text(v) => v.iter().map(|s| s.len() + 24).sum(),
            Column::LongList(v) => v.iter().map(|l| l.len() * 8 + 24).sum(),
            Column::TextList(v) => v
                .iter()
                .map(|l| l.iter().map(|s| s.len() + 24).sum::<usize>() + 24)
                .sum(),
        }
    }

    /// Dynamically-typed read of row `i`.
    pub fn get(&self, i: usize) -> AttrValue {
        match self {
            Column::Long(v) => AttrValue::Long(v[i]),
            Column::Double(v) => AttrValue::Double(v[i]),
            Column::Bool(v) => AttrValue::Bool(v[i]),
            Column::Text(v) => AttrValue::Text(v[i].clone()),
            Column::LongList(v) => AttrValue::LongList(v[i].clone()),
            Column::TextList(v) => AttrValue::TextList(v[i].clone()),
        }
    }

    /// Dynamically-typed write of row `i`; errors on type mismatch.
    pub fn set(&mut self, i: usize, value: AttrValue) -> Result<()> {
        match (self, value) {
            (Column::Long(v), AttrValue::Long(x)) => v[i] = x,
            (Column::Double(v), AttrValue::Double(x)) => v[i] = x,
            (Column::Bool(v), AttrValue::Bool(x)) => v[i] = x,
            (Column::Text(v), AttrValue::Text(x)) => v[i] = x,
            (Column::LongList(v), AttrValue::LongList(x)) => v[i] = x,
            (Column::TextList(v), AttrValue::TextList(x)) => v[i] = x,
            (col, value) => {
                return Err(CoreError::AttributeTypeMismatch {
                    name: String::from("<column>"),
                    expected: col.ty(),
                    got: value.ty(),
                })
            }
        }
        Ok(())
    }
}

/// Time-variant attribute values for one timestep.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphInstance {
    timestamp: i64,
    vertex_schema: Schema,
    edge_schema: Schema,
    vertex_cols: Vec<Column>,
    edge_cols: Vec<Column>,
}

impl GraphInstance {
    /// A fresh instance at `timestamp` with default attribute values for
    /// every vertex and edge of `template`.
    pub fn new(template: &GraphTemplate, timestamp: i64) -> Self {
        let nv = template.num_vertices();
        let ne = template.num_edges();
        GraphInstance {
            timestamp,
            vertex_schema: template.vertex_schema().clone(),
            edge_schema: template.edge_schema().clone(),
            vertex_cols: template
                .vertex_schema()
                .iter()
                .map(|a| Column::new(a.ty, nv))
                .collect(),
            edge_cols: template
                .edge_schema()
                .iter()
                .map(|a| Column::new(a.ty, ne))
                .collect(),
        }
    }

    /// Construct from pre-built columns (used by the GoFS decoder).
    /// [`GraphInstance::validate_against`] checks template conformance.
    pub fn from_parts(
        timestamp: i64,
        vertex_schema: Schema,
        edge_schema: Schema,
        vertex_cols: Vec<Column>,
        edge_cols: Vec<Column>,
    ) -> Self {
        GraphInstance {
            timestamp,
            vertex_schema,
            edge_schema,
            vertex_cols,
            edge_cols,
        }
    }

    /// Timestamp `t` of this instance.
    pub fn timestamp(&self) -> i64 {
        self.timestamp
    }

    /// The embedded vertex schema (a copy of the template's).
    pub fn vertex_schema(&self) -> &Schema {
        &self.vertex_schema
    }

    /// The embedded edge schema (a copy of the template's).
    pub fn edge_schema(&self) -> &Schema {
        &self.edge_schema
    }

    /// All vertex columns, in schema order.
    pub fn vertex_columns(&self) -> &[Column] {
        &self.vertex_cols
    }

    /// All edge columns, in schema order.
    pub fn edge_columns(&self) -> &[Column] {
        &self.edge_cols
    }

    /// Check that schemas, column types and lengths match `template`.
    pub fn validate_against(&self, template: &GraphTemplate) -> Result<()> {
        if &self.vertex_schema != template.vertex_schema() {
            return Err(CoreError::TemplateMismatch(
                "vertex schema differs".to_string(),
            ));
        }
        if &self.edge_schema != template.edge_schema() {
            return Err(CoreError::TemplateMismatch(
                "edge schema differs".to_string(),
            ));
        }
        let check = |cols: &[Column], schema: &Schema, n: usize, what: &str| -> Result<()> {
            if cols.len() != schema.len() {
                return Err(CoreError::TemplateMismatch(format!(
                    "{what}: {} columns, schema has {}",
                    cols.len(),
                    schema.len()
                )));
            }
            for (i, c) in cols.iter().enumerate() {
                let def = schema.def(i).ok_or_else(|| {
                    CoreError::TemplateMismatch(format!("{what}: schema has no column {i}"))
                })?;
                if c.ty() != def.ty {
                    return Err(CoreError::TemplateMismatch(format!(
                        "{what} column `{}`: type {:?} != schema {:?}",
                        def.name,
                        c.ty(),
                        def.ty
                    )));
                }
                if c.len() != n {
                    return Err(CoreError::TemplateMismatch(format!(
                        "{what} column `{}`: {} rows, expected {}",
                        def.name,
                        c.len(),
                        n
                    )));
                }
            }
            Ok(())
        };
        check(
            &self.vertex_cols,
            template.vertex_schema(),
            template.num_vertices(),
            "vertex",
        )?;
        check(
            &self.edge_cols,
            template.edge_schema(),
            template.num_edges(),
            "edge",
        )
    }

    // ---- typed column access by position (hot path) -------------------

    /// Vertex column at schema position `i`.
    pub fn vertex_col(&self, i: usize) -> &Column {
        &self.vertex_cols[i]
    }

    /// Mutable vertex column at schema position `i`.
    pub fn vertex_col_mut(&mut self, i: usize) -> &mut Column {
        &mut self.vertex_cols[i]
    }

    /// Edge column at schema position `i`.
    pub fn edge_col(&self, i: usize) -> &Column {
        &self.edge_cols[i]
    }

    /// Mutable edge column at schema position `i`.
    pub fn edge_col_mut(&mut self, i: usize) -> &mut Column {
        &mut self.edge_cols[i]
    }

    // ---- typed column access by name (convenience) --------------------

    /// Borrow a named `Double` vertex column.
    pub fn vertex_f64(&self, name: &str) -> Result<&[f64]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Double)?;
        match &self.vertex_cols[i] {
            Column::Double(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Double)),
        }
    }

    /// Mutably borrow a named `Double` vertex column.
    pub fn vertex_f64_mut(&mut self, name: &str) -> Result<&mut [f64]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Double)?;
        match &mut self.vertex_cols[i] {
            Column::Double(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Double)),
        }
    }

    /// Borrow a named `Long` vertex column.
    pub fn vertex_i64(&self, name: &str) -> Result<&[i64]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Long)?;
        match &self.vertex_cols[i] {
            Column::Long(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Long)),
        }
    }

    /// Mutably borrow a named `Long` vertex column.
    pub fn vertex_i64_mut(&mut self, name: &str) -> Result<&mut [i64]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Long)?;
        match &mut self.vertex_cols[i] {
            Column::Long(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Long)),
        }
    }

    /// Borrow a named `Bool` vertex column (e.g. `isExists`).
    pub fn vertex_bool(&self, name: &str) -> Result<&[bool]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Bool)?;
        match &self.vertex_cols[i] {
            Column::Bool(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Bool)),
        }
    }

    /// Mutably borrow a named `Bool` vertex column.
    pub fn vertex_bool_mut(&mut self, name: &str) -> Result<&mut [bool]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::Bool)?;
        match &mut self.vertex_cols[i] {
            Column::Bool(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Bool)),
        }
    }

    /// Borrow a named `TextList` vertex column (e.g. tweets per interval).
    pub fn vertex_text_list(&self, name: &str) -> Result<&[Vec<String>]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::TextList)?;
        match &self.vertex_cols[i] {
            Column::TextList(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::TextList)),
        }
    }

    /// Mutably borrow a named `TextList` vertex column.
    pub fn vertex_text_list_mut(&mut self, name: &str) -> Result<&mut [Vec<String>]> {
        let i = self.vertex_schema.resolve_typed(name, AttrType::TextList)?;
        match &mut self.vertex_cols[i] {
            Column::TextList(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::TextList)),
        }
    }

    /// Borrow a named `Double` edge column (e.g. road latency).
    pub fn edge_f64(&self, name: &str) -> Result<&[f64]> {
        let i = self.edge_schema.resolve_typed(name, AttrType::Double)?;
        match &self.edge_cols[i] {
            Column::Double(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Double)),
        }
    }

    /// Mutably borrow a named `Double` edge column.
    pub fn edge_f64_mut(&mut self, name: &str) -> Result<&mut [f64]> {
        let i = self.edge_schema.resolve_typed(name, AttrType::Double)?;
        match &mut self.edge_cols[i] {
            Column::Double(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Double)),
        }
    }

    /// Borrow a named `Long` edge column.
    pub fn edge_i64(&self, name: &str) -> Result<&[i64]> {
        let i = self.edge_schema.resolve_typed(name, AttrType::Long)?;
        match &self.edge_cols[i] {
            Column::Long(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Long)),
        }
    }

    /// Mutably borrow a named `Long` edge column.
    pub fn edge_i64_mut(&mut self, name: &str) -> Result<&mut [i64]> {
        let i = self.edge_schema.resolve_typed(name, AttrType::Long)?;
        match &mut self.edge_cols[i] {
            Column::Long(v) => Ok(v),
            c => Err(type_err(name, c.ty(), AttrType::Long)),
        }
    }

    // ---- dynamically-typed access --------------------------------------

    /// Read one vertex attribute cell by column position.
    pub fn get_vertex(&self, col: usize, v: VertexIdx) -> AttrValue {
        self.vertex_cols[col].get(v.idx())
    }

    /// Write one vertex attribute cell by column position.
    pub fn set_vertex(&mut self, col: usize, v: VertexIdx, value: AttrValue) -> Result<()> {
        self.vertex_cols[col].set(v.idx(), value)
    }

    /// Read one edge attribute cell by column position.
    pub fn get_edge(&self, col: usize, e: EdgeIdx) -> AttrValue {
        self.edge_cols[col].get(e.idx())
    }

    /// Write one edge attribute cell by column position.
    pub fn set_edge(&mut self, col: usize, e: EdgeIdx, value: AttrValue) -> Result<()> {
        self.edge_cols[col].set(e.idx(), value)
    }

    /// Approximate heap footprint in bytes (used by the GoFS slice cache).
    pub fn approx_bytes(&self) -> usize {
        let cols = self.vertex_cols.iter().chain(&self.edge_cols);
        cols.map(Column::approx_bytes).sum()
    }
}

fn type_err(name: &str, expected: AttrType, got: AttrType) -> CoreError {
    CoreError::AttributeTypeMismatch {
        name: name.to_string(),
        expected,
        got,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateBuilder;

    fn template() -> GraphTemplate {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("load", AttrType::Double);
        b.vertex_schema().add("tweets", AttrType::TextList);
        b.vertex_schema().add("count", AttrType::Long);
        b.vertex_schema()
            .add(GraphTemplate::IS_EXISTS, AttrType::Bool);
        b.edge_schema().add("latency", AttrType::Double);
        for i in 0..3 {
            b.add_vertex(i);
        }
        b.add_edge(0, 0, 1).unwrap();
        b.add_edge(1, 1, 2).unwrap();
        b.finalize().unwrap()
    }

    #[test]
    fn new_instance_has_defaults() {
        let t = template();
        let g = GraphInstance::new(&t, 42);
        assert_eq!(g.timestamp(), 42);
        assert_eq!(g.vertex_f64("load").unwrap(), &[0.0, 0.0, 0.0]);
        assert_eq!(g.edge_f64("latency").unwrap(), &[0.0, 0.0]);
        assert!(g.vertex_text_list("tweets").unwrap()[0].is_empty());
        g.validate_against(&t).unwrap();
    }

    #[test]
    fn typed_mutation_roundtrip() {
        let t = template();
        let mut g = GraphInstance::new(&t, 0);
        g.vertex_f64_mut("load").unwrap()[1] = 3.5;
        g.vertex_i64_mut("count").unwrap()[2] = -7;
        g.vertex_bool_mut(GraphTemplate::IS_EXISTS).unwrap()[0] = true;
        g.edge_f64_mut("latency").unwrap()[0] = 9.0;
        g.vertex_text_list_mut("tweets").unwrap()[1].push("#rust".into());
        assert_eq!(g.vertex_f64("load").unwrap()[1], 3.5);
        assert_eq!(g.vertex_i64("count").unwrap()[2], -7);
        assert!(g.vertex_bool(GraphTemplate::IS_EXISTS).unwrap()[0]);
        assert_eq!(g.edge_f64("latency").unwrap()[0], 9.0);
        assert_eq!(g.vertex_text_list("tweets").unwrap()[1], vec!["#rust"]);
    }

    #[test]
    fn name_and_type_errors() {
        let t = template();
        let mut g = GraphInstance::new(&t, 0);
        assert!(matches!(
            g.vertex_f64("ghost"),
            Err(CoreError::UnknownAttribute(_))
        ));
        assert!(matches!(
            g.vertex_f64("count"),
            Err(CoreError::AttributeTypeMismatch { .. })
        ));
        assert!(matches!(
            g.edge_f64_mut("missing"),
            Err(CoreError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn dynamic_access_roundtrip() {
        let t = template();
        let mut g = GraphInstance::new(&t, 0);
        let load = t.vertex_schema().index_of("load").unwrap();
        g.set_vertex(load, VertexIdx(0), AttrValue::Double(1.25))
            .unwrap();
        assert_eq!(g.get_vertex(load, VertexIdx(0)), AttrValue::Double(1.25));
        // type mismatch rejected
        assert!(g
            .set_vertex(load, VertexIdx(0), AttrValue::Long(1))
            .is_err());
    }

    #[test]
    fn validate_detects_wrong_length() {
        let t = template();
        let g = GraphInstance::from_parts(
            0,
            t.vertex_schema().clone(),
            t.edge_schema().clone(),
            t.vertex_schema()
                .iter()
                .map(|a| Column::new(a.ty, 99))
                .collect(),
            t.edge_schema()
                .iter()
                .map(|a| Column::new(a.ty, t.num_edges()))
                .collect(),
        );
        assert!(g.validate_against(&t).is_err());
    }

    #[test]
    fn validate_detects_schema_drift() {
        let t = template();
        let mut other = Schema::new();
        other.add("different", AttrType::Long);
        let g = GraphInstance::from_parts(
            0,
            other,
            t.edge_schema().clone(),
            vec![Column::new(AttrType::Long, t.num_vertices())],
            t.edge_schema()
                .iter()
                .map(|a| Column::new(a.ty, t.num_edges()))
                .collect(),
        );
        assert!(g.validate_against(&t).is_err());
    }

    #[test]
    fn column_helpers() {
        let c = Column::new(AttrType::Long, 4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.ty(), AttrType::Long);
        assert_eq!(c.get(0), AttrValue::Long(0));
        let empty = Column::new(AttrType::Text, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn approx_bytes_is_positive_and_monotone() {
        let t = template();
        let mut g = GraphInstance::new(&t, 0);
        let before = g.approx_bytes();
        g.vertex_text_list_mut("tweets").unwrap()[0].push("#abcdef".into());
        assert!(g.approx_bytes() > before);
    }
}
