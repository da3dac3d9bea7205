//! Typed attribute schemas.
//!
//! The paper's model gives every vertex of the template the same set of
//! typed attributes `A(V̂) = {id, α1, …, αm}` and every edge
//! `A(Ê) = {id, β1, …, βn}`. The `id` attribute is implicit here — it lives
//! on the template — so a [`Schema`] only describes the *time-variant*
//! attributes whose values are carried by graph instances.

use crate::error::{CoreError, Result};

/// The type of one attribute column.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 64-bit signed integer.
    Long,
    /// 64-bit float.
    Double,
    /// Boolean (used for e.g. the `isExists` topology-churn convention).
    Bool,
    /// UTF-8 string.
    Text,
    /// Variable-length list of longs (e.g. license plates seen at a vertex).
    LongList,
    /// Variable-length list of strings (e.g. tweets/hashtags per interval).
    TextList,
}

impl AttrType {
    /// Stable single-byte tag used by the GoFS codec.
    pub fn tag(self) -> u8 {
        match self {
            AttrType::Long => 0,
            AttrType::Double => 1,
            AttrType::Bool => 2,
            AttrType::Text => 3,
            AttrType::LongList => 4,
            AttrType::TextList => 5,
        }
    }

    /// Inverse of [`AttrType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => AttrType::Long,
            1 => AttrType::Double,
            2 => AttrType::Bool,
            3 => AttrType::Text,
            4 => AttrType::LongList,
            5 => AttrType::TextList,
            _ => return None,
        })
    }
}

/// Definition of one attribute: a name and a type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name, unique within its schema.
    pub name: String,
    /// Column type.
    pub ty: AttrType,
}

/// An ordered set of [`AttrDef`]s shared by all vertices (or all edges) of a
/// template. Attribute positions are stable: instance columns are addressed
/// by the schema position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<AttrDef>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an attribute. Returns its column position.
    ///
    /// Duplicate names are rejected at [`Schema::validate`] /
    /// template-finalize time rather than here, so builders can stay
    /// infallible.
    pub fn add(&mut self, name: impl Into<String>, ty: AttrType) -> usize {
        self.attrs.push(AttrDef {
            name: name.into(),
            ty,
        });
        self.attrs.len() - 1
    }

    /// Check schema invariants (unique names).
    pub fn validate(&self) -> Result<()> {
        for (i, a) in self.attrs.iter().enumerate() {
            if self.attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(CoreError::DuplicateAttribute(a.name.clone()));
            }
        }
        Ok(())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Column position of `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Definition at column position `idx`.
    pub fn def(&self, idx: usize) -> Option<&AttrDef> {
        self.attrs.get(idx)
    }

    /// Iterate over attribute definitions in column order.
    pub fn iter(&self) -> impl Iterator<Item = &AttrDef> {
        self.attrs.iter()
    }

    /// Resolve `name` to `(position, type)`, erroring when absent.
    pub fn resolve(&self, name: &str) -> Result<(usize, AttrType)> {
        self.index_of(name)
            .map(|i| (i, self.attrs[i].ty))
            .ok_or_else(|| CoreError::UnknownAttribute(name.to_string()))
    }

    /// Resolve `name` and check it has type `ty`.
    pub fn resolve_typed(&self, name: &str, ty: AttrType) -> Result<usize> {
        let (idx, actual) = self.resolve(name)?;
        if actual != ty {
            return Err(CoreError::AttributeTypeMismatch {
                name: name.to_string(),
                expected: actual,
                got: ty,
            });
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_all_types() {
        for ty in [
            AttrType::Long,
            AttrType::Double,
            AttrType::Bool,
            AttrType::Text,
            AttrType::LongList,
            AttrType::TextList,
        ] {
            assert_eq!(AttrType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(AttrType::from_tag(200), None);
    }

    #[test]
    fn default_values_match_types() {
        for ty in [
            AttrType::Long,
            AttrType::Double,
            AttrType::Bool,
            AttrType::Text,
            AttrType::LongList,
            AttrType::TextList,
        ] {
            // Instances are initialised with these defaults.
            assert_eq!(crate::instance::Column::new(ty, 1).ty(), ty);
        }
    }

    #[test]
    fn schema_add_and_lookup() {
        let mut s = Schema::new();
        let a = s.add("latency", AttrType::Double);
        let b = s.add("tweets", AttrType::TextList);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.index_of("latency"), Some(0));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.resolve("tweets").unwrap(), (1, AttrType::TextList));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        s.validate().unwrap();
    }

    #[test]
    fn schema_rejects_duplicates() {
        let mut s = Schema::new();
        s.add("x", AttrType::Long);
        s.add("x", AttrType::Double);
        assert_eq!(s.validate(), Err(CoreError::DuplicateAttribute("x".into())));
    }

    #[test]
    fn resolve_typed_checks_type() {
        let mut s = Schema::new();
        s.add("latency", AttrType::Double);
        assert_eq!(s.resolve_typed("latency", AttrType::Double).unwrap(), 0);
        assert!(matches!(
            s.resolve_typed("latency", AttrType::Long),
            Err(CoreError::AttributeTypeMismatch { .. })
        ));
        assert!(matches!(
            s.resolve_typed("ghost", AttrType::Long),
            Err(CoreError::UnknownAttribute(_))
        ));
    }
}
