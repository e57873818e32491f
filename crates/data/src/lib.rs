//! Data substrate for the GeoBlocks reproduction: columnar tables, the
//! extract phase, and synthetic datasets / polygons / workloads replacing
//! the paper's proprietary inputs (§3.3, §4.1 — see DESIGN.md for the
//! substitution rationale).

pub mod datasets;
pub mod error;
pub mod extract;
pub mod filter;
pub mod polygons;
pub mod schema;
pub mod table;
pub mod workload;

pub use error::DataError;
pub use extract::{extract, extract_filtered, CleaningRules, Extract, ExtractStats};
pub use filter::{CmpOp, Filter, Predicate};
pub use schema::{ColumnDef, Schema};
pub use table::{BaseTable, RawTable, Rows};
pub use workload::{AggFunc, AggRequest, AggSpec, Query, Workload};
