//! Column schemas for point tables.
//!
//! §2: points are `P(l, v₀, v₁, …, vₙ)` — a location plus numerical or
//! temporal attributes. Every attribute is stored as the `f64` it is
//! aggregated as: temporal columns are epoch seconds and counts are small
//! integers, both exact in `f64`'s 53-bit integer range.

/// One attribute column's definition: its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
}

impl ColumnDef {
    /// An `f64` attribute column named `name`.
    pub fn f64(name: &str) -> Self {
        ColumnDef {
            name: name.to_string(),
        }
    }
}

/// An ordered set of attribute columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Construct a schema, panicking on duplicate names — for trusted,
    /// programmatic construction. Untrusted input (snapshot files, user
    /// configuration) should go through [`Schema::try_new`].
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        match Schema::try_new(columns) {
            Ok(s) => s,
            Err(e) => panic!("duplicate column names: {e}"),
        }
    }

    /// Construct a schema, returning [`crate::DataError::DuplicateColumn`]
    /// when two columns share a name.
    pub fn try_new(columns: Vec<ColumnDef>) -> Result<Self, crate::DataError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(crate::DataError::DuplicateColumn {
                    column: c.name.clone(),
                });
            }
        }
        Ok(Schema { columns })
    }

    /// Number of attribute columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column definitions in order.
    #[inline]
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Like [`Schema::index_of`], but a typed error for the miss — use
    /// this wherever the name comes from outside the program (queries,
    /// CLI flags, files) so the failure is reportable, not a panic.
    pub fn require(&self, name: &str) -> Result<usize, crate::DataError> {
        self.index_of(name)
            .ok_or_else(|| crate::DataError::UnknownColumn {
                column: name.to_string(),
            })
    }

    /// Definition at `idx`.
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new(vec![ColumnDef::f64("fare"), ColumnDef::f64("passengers")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("fare"), Some(0));
        assert_eq!(s.index_of("passengers"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.column(1).name, "passengers");
        assert_eq!(s.require("fare"), Ok(0));
        assert_eq!(
            s.require("nope"),
            Err(crate::DataError::UnknownColumn {
                column: "nope".into()
            })
        );
    }

    #[test]
    fn try_new_reports_duplicates() {
        let err = Schema::try_new(vec![ColumnDef::f64("a"), ColumnDef::f64("a")]).unwrap_err();
        assert_eq!(
            err,
            crate::DataError::DuplicateColumn { column: "a".into() }
        );
        assert!(Schema::try_new(vec![ColumnDef::f64("a"), ColumnDef::f64("b")]).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate column names")]
    fn rejects_duplicates() {
        Schema::new(vec![ColumnDef::f64("a"), ColumnDef::f64("a")]);
    }

    #[test]
    fn empty_schema_ok() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
