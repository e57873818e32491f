//! Filter predicates over attribute columns.
//!
//! §2's query template allows `[AND filterCondition]*`; §3.3 and §4.4 build
//! GeoBlocks per filter predicate (e.g. `distance >= 4`,
//! `passenger_cnt == 1`). A [`Filter`] is a conjunction of per-column
//! comparisons, evaluated row-at-a-time against any [`Rows`] table.

use crate::error::DataError;
use crate::table::Rows;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    #[inline]
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A single column comparison, e.g. `distance >= 4`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub column: usize,
    pub op: CmpOp,
    pub value: f64,
}

impl Predicate {
    pub fn new(column: usize, op: CmpOp, value: f64) -> Self {
        Predicate { column, op, value }
    }

    #[inline]
    pub fn matches<T: Rows + ?Sized>(&self, table: &T, row: usize) -> bool {
        self.op.eval(table.value_f64(row, self.column), self.value)
    }
}

/// A conjunction of predicates. The empty filter matches everything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    predicates: Vec<Predicate>,
}

impl Filter {
    /// The match-all filter.
    pub fn all() -> Self {
        Filter::default()
    }

    /// A filter from predicates (AND semantics).
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Filter { predicates }
    }

    /// Convenience: a single-predicate filter built by column name.
    ///
    /// Returns [`DataError::UnknownColumn`] for a name missing from the
    /// table's schema. (This used to panic — one malformed filter string
    /// would kill a serving process.)
    pub fn on<T: Rows + ?Sized>(
        table: &T,
        column: &str,
        op: CmpOp,
        value: f64,
    ) -> Result<Self, DataError> {
        let idx = table.schema().require(column)?;
        Ok(Filter::new(vec![Predicate::new(idx, op, value)]))
    }

    /// The predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// True if the filter matches every row trivially.
    pub fn is_trivial(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Evaluate the conjunction on one row.
    #[inline]
    pub fn matches<T: Rows + ?Sized>(&self, table: &T, row: usize) -> bool {
        self.predicates.iter().all(|p| p.matches(table, row))
    }

    /// Indices of all matching rows (ascending).
    pub fn matching_rows<T: Rows + ?Sized>(&self, table: &T) -> Vec<u32> {
        (0..table.num_rows() as u32)
            .filter(|&i| self.matches(table, i as usize))
            .collect()
    }

    /// Fraction of rows matching — the paper's filter selectivity `s`.
    pub fn selectivity<T: Rows + ?Sized>(&self, table: &T) -> f64 {
        if table.num_rows() == 0 {
            return 0.0;
        }
        self.matching_rows(table).len() as f64 / table.num_rows() as f64
    }
}

impl std::fmt::Display for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "col{} {} {}", p.column, p.op, p.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::RawTable;
    use gb_geom::Point;

    fn table() -> RawTable {
        let mut t = RawTable::new(Schema::new(vec![
            ColumnDef::f64("dist"),
            ColumnDef::f64("pax"),
        ]));
        for (d, p) in [(1.0, 1.0), (4.0, 2.0), (5.5, 1.0), (0.5, 3.0), (9.0, 1.0)] {
            t.push_row(Point::new(0.0, 0.0), &[d, p]);
        }
        t
    }

    #[test]
    fn single_predicate() {
        let t = table();
        let f = Filter::on(&t, "dist", CmpOp::Ge, 4.0).unwrap();
        assert_eq!(f.matching_rows(&t), vec![1, 2, 4]);
        assert!((f.selectivity(&t) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn conjunction() {
        let t = table();
        let f = Filter::new(vec![
            Predicate::new(0, CmpOp::Ge, 4.0),
            Predicate::new(1, CmpOp::Eq, 1.0),
        ]);
        assert_eq!(f.matching_rows(&t), vec![2, 4]);
    }

    #[test]
    fn trivial_filter_matches_all() {
        let t = table();
        let f = Filter::all();
        assert!(f.is_trivial());
        assert_eq!(f.matching_rows(&t).len(), 5);
        assert_eq!(f.selectivity(&t), 1.0);
    }

    #[test]
    fn all_operators() {
        let t = table();
        assert_eq!(
            Filter::on(&t, "pax", CmpOp::Eq, 1.0)
                .unwrap()
                .matching_rows(&t),
            vec![0, 2, 4]
        );
        assert_eq!(
            Filter::on(&t, "pax", CmpOp::Ne, 1.0)
                .unwrap()
                .matching_rows(&t),
            vec![1, 3]
        );
        assert_eq!(
            Filter::on(&t, "pax", CmpOp::Gt, 1.0)
                .unwrap()
                .matching_rows(&t),
            vec![1, 3]
        );
        assert_eq!(
            Filter::on(&t, "dist", CmpOp::Lt, 1.0)
                .unwrap()
                .matching_rows(&t),
            vec![3]
        );
        assert_eq!(
            Filter::on(&t, "dist", CmpOp::Le, 1.0)
                .unwrap()
                .matching_rows(&t),
            vec![0, 3]
        );
    }

    #[test]
    fn display_formats() {
        let f = Filter::new(vec![
            Predicate::new(0, CmpOp::Ge, 4.0),
            Predicate::new(1, CmpOp::Eq, 1.0),
        ]);
        assert_eq!(format!("{f}"), "col0 >= 4 AND col1 == 1");
        assert_eq!(format!("{}", Filter::all()), "TRUE");
    }

    #[test]
    fn unknown_column_is_a_typed_error_not_a_panic() {
        let t = table();
        let err = Filter::on(&t, "missing", CmpOp::Eq, 0.0).unwrap_err();
        assert_eq!(
            err,
            crate::DataError::UnknownColumn {
                column: "missing".into()
            }
        );
        assert!(err.to_string().contains("missing"));
    }
}
