//! In-memory tables: schemas, row storage, and per-table secondary indexes.
//!
//! Row storage is interior-mutable (`RwLock<Arc<Vec<Row>>>`) so the engine
//! can be shared (`&Engine`) across sessions: the server's per-table lock
//! groups serialize conflicting *batches*, while the row lock only guards
//! the short critical section of a single statement's read or mutation.
//! Read paths use `read_recursive` so a statement that re-reads a table it
//! is already scanning (e.g. `insert t select * from t`) cannot deadlock
//! against a queued writer.
//!
//! The `Arc` makes snapshots copy-on-write: `Table::clone` (used by
//! `BEGIN TRAN` to snapshot the whole database) is O(1) per table, and the
//! first mutation after a snapshot pays the one row-vector copy via
//! `Arc::make_mut`. The old eager `Vec` clone made `BEGIN TRAN` O(total
//! rows) on every transaction regardless of what it touched.
//!
//! Indexes live beside the rows under their own lock, as one shared
//! [`IndexSet`]. **Lock order is always rows → indexes → published**; every
//! path below acquires the row lock (read or write) before touching the
//! index lock, and the published-version lock last, so the three can never
//! deadlock against each other. Every row change goes through
//! [`TableWrite`], or through a `&mut self` method on a table nobody else
//! holds ([`Table::insert_row`], [`Table::add_column`]); each maintains the
//! indexes in the same critical section, so the index set always describes
//! the rows beside it.
//!
//! ## Published versions (MVCC)
//!
//! Beside the *live* rows every table keeps a **published** version: the
//! `(rows, indexes)` pair as of the last batch-consistent point. The server
//! calls [`Table::publish`] at the end of each write batch (while still
//! holding that batch's scheduling locks, so the pair it captures is never
//! a mid-batch state), and read-pure batches execute against [`Table::pinned`]
//! clones of the published version — sharing the `Arc`s, holding no locks,
//! and never observing a half-applied batch.

use std::sync::Arc;

use crate::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ast::ColumnDef;
use crate::error::{Error, ObjectKind, Result};
use crate::index::{IndexDef, IndexSet};
use crate::value::{DataType, Value};

/// A single column of a table schema. The name is interned (`Arc<str>`) so
/// per-statement output paths can reuse it without allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: Arc<str>,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl AsRef<str>, data_type: DataType, nullable: bool) -> Self {
        Column {
            name: Arc::from(name.as_ref()),
            data_type,
            nullable,
        }
    }
}

impl From<&ColumnDef> for Column {
    fn from(def: &ColumnDef) -> Self {
        Column {
            name: Arc::from(def.name.as_str()),
            data_type: def.data_type,
            nullable: def.nullable,
        }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Column names as shared handles (refcount bumps, no string copies).
    pub fn names(&self) -> Vec<Arc<str>> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A row is a vector of values, positionally matching the schema.
pub type Row = Vec<Value>;

/// The batch-consistent `(rows, indexes)` pair most recently published for
/// a table — what MVCC snapshot readers pin instead of the live state.
#[derive(Debug, Clone)]
struct TableVersion {
    rows: Arc<Vec<Row>>,
    indexes: Arc<IndexSet>,
}

/// A heap table: schema plus rows behind a per-table row lock, plus the
/// table's secondary indexes and its last published (batch-consistent)
/// version.
#[derive(Debug)]
pub struct Table {
    /// Canonical (as-created) full name, possibly dotted.
    pub name: String,
    pub schema: Schema,
    rows: RwLock<Arc<Vec<Row>>>,
    indexes: RwLock<Arc<IndexSet>>,
    published: RwLock<TableVersion>,
}

impl Clone for Table {
    /// O(1) copy-on-write snapshot: shares the row vector, the built
    /// index set, and the published version; whichever side mutates first
    /// pays the copy.
    fn clone(&self) -> Self {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: RwLock::new(Arc::clone(&self.rows.read_recursive())),
            indexes: RwLock::new(Arc::clone(&self.indexes.read_recursive())),
            published: RwLock::new(self.published.read_recursive().clone()),
        }
    }
}

impl PartialEq for Table {
    /// Compares name, schema and rows. Indexes are derived state (they are
    /// rebuildable from the rows) and deliberately excluded.
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.schema != other.schema {
            return false;
        }
        if std::ptr::eq(self, other) {
            return true;
        }
        *self.rows.read_recursive() == *other.rows.read_recursive()
    }
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let rows = Arc::new(Vec::new());
        Table {
            name: name.into(),
            schema,
            rows: RwLock::new(Arc::clone(&rows)),
            indexes: RwLock::new(Arc::default()),
            published: RwLock::new(TableVersion {
                rows,
                indexes: Arc::default(),
            }),
        }
    }

    /// Build a table pre-populated with rows (used for the trigger
    /// `inserted`/`deleted` pseudo-tables and SELECT INTO).
    pub fn with_rows(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Self {
        let rows = Arc::new(rows);
        Table {
            name: name.into(),
            schema,
            rows: RwLock::new(Arc::clone(&rows)),
            indexes: RwLock::new(Arc::default()),
            published: RwLock::new(TableVersion {
                rows,
                indexes: Arc::default(),
            }),
        }
    }

    /// Build a table from column definitions, validating uniqueness.
    pub fn from_defs(name: impl Into<String>, defs: &[ColumnDef]) -> Result<Self> {
        let name = name.into();
        if defs.is_empty() {
            return Err(Error::Shape {
                msg: format!("table '{name}' must have at least one column"),
            });
        }
        let mut columns: Vec<Column> = Vec::with_capacity(defs.len());
        for def in defs {
            if columns
                .iter()
                .any(|c| c.name.eq_ignore_ascii_case(&def.name))
            {
                return Err(Error::AlreadyExists {
                    kind: ObjectKind::Column,
                    name: def.name.clone(),
                });
            }
            columns.push(def.into());
        }
        Ok(Table::new(name, Schema::new(columns)))
    }

    /// Shared read access to the rows. Recursive so re-entrant reads within
    /// one statement never deadlock against a queued writer.
    pub fn rows(&self) -> RowsReadGuard<'_> {
        RowsReadGuard(self.rows.read_recursive())
    }

    /// Publish the current live `(rows, indexes)` pair as the new
    /// batch-consistent version that [`Table::pinned`] snapshots see.
    ///
    /// The caller must guarantee the live state *is* batch-consistent —
    /// the server calls this at batch end while still holding the batch's
    /// scheduling locks, so no concurrent writer can slip a half-applied
    /// statement into the captured pair.
    pub fn publish(&self) {
        let rows = self.rows.read_recursive();
        let indexes = Arc::clone(&self.indexes.read());
        *self.published.write() = TableVersion {
            rows: Arc::clone(&rows),
            indexes,
        };
    }

    /// An O(1) clone of the last *published* version — the MVCC read pin.
    /// Shares the published row vector and index set; never blocks on and
    /// is never blocked by live-row writers.
    pub fn pinned(&self) -> Table {
        let v = self.published.read_recursive().clone();
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: RwLock::new(Arc::clone(&v.rows)),
            indexes: RwLock::new(Arc::clone(&v.indexes)),
            published: RwLock::new(v),
        }
    }

    /// Open an index-maintaining write handle (engine DML entry point).
    /// Must not be called while holding a read guard from [`Table::rows`]
    /// on the same thread.
    pub fn write(&self) -> TableWrite<'_> {
        let rows = self.rows.write();
        TableWrite {
            table: self,
            rows,
            indexes: self.indexes.write(),
        }
    }

    /// The table's built index set. The returned handle stays valid after
    /// the internal locks drop; the row positions inside are only
    /// meaningful while the caller prevents concurrent mutation (holds a
    /// row guard or the server-level table lock).
    pub fn index_set(&self) -> Arc<IndexSet> {
        let _rows = self.rows.read_recursive();
        Arc::clone(&self.indexes.read())
    }

    /// Create and build a secondary index over the current rows.
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        let rows = self.rows.read_recursive();
        Arc::make_mut(&mut self.indexes.write()).create(def, &self.schema, &rows)
    }

    /// Drop an index by name; `false` if this table does not have it.
    pub fn drop_index(&self, name: &str) -> bool {
        let _rows = self.rows.read_recursive();
        Arc::make_mut(&mut self.indexes.write()).drop(name)
    }

    /// Definitions of the table's indexes (catalog introspection).
    pub fn index_defs(&self) -> Vec<IndexDef> {
        let _rows = self.rows.read_recursive();
        self.indexes.read().defs().cloned().collect()
    }

    /// Coerce and validate a row against the schema, then append it.
    pub fn insert_row(&mut self, row: Row) -> Result<()> {
        let coerced = self.check_row(row)?;
        let rows = Arc::make_mut(self.rows.get_mut());
        let indexes = self.indexes.get_mut();
        if !indexes.is_empty() {
            let set = Arc::make_mut(indexes);
            set.check_append(std::slice::from_ref(&coerced))?;
            set.append(rows.len(), std::slice::from_ref(&coerced));
        }
        rows.push(coerced);
        Ok(())
    }

    /// Validate a row (arity, types, NOT NULL) and return the coerced copy.
    pub fn check_row(&self, row: Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(Error::Shape {
                msg: format!(
                    "table '{}' expects {} values, got {}",
                    self.name,
                    self.schema.len(),
                    row.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&self.schema.columns) {
            let v = v.coerce_to(col.data_type)?;
            if v.is_null() && !col.nullable {
                return Err(Error::Constraint {
                    msg: format!(
                        "column '{}' of table '{}' does not allow NULL",
                        col.name, self.name
                    ),
                });
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Add a column with NULL backfill (ALTER TABLE ADD). Existing index
    /// columns keep their positions, so the built maps stay valid.
    pub fn add_column(&mut self, def: &ColumnDef) -> Result<()> {
        if self.schema.index_of(&def.name).is_some() {
            return Err(Error::AlreadyExists {
                kind: ObjectKind::Column,
                name: def.name.clone(),
            });
        }
        if !def.nullable {
            return Err(Error::Constraint {
                msg: format!(
                    "cannot add NOT NULL column '{}' to non-empty table",
                    def.name
                ),
            });
        }
        self.schema.columns.push(def.into());
        for row in Arc::make_mut(self.rows.get_mut()).iter_mut() {
            row.push(Value::Null);
        }
        Ok(())
    }

    /// An empty clone of this table (schema only) under a new name — the
    /// engine's `SELECT * INTO new FROM t WHERE 1=2` building block.
    pub fn empty_like(&self, name: impl Into<String>) -> Table {
        Table::new(name, self.schema.clone())
    }

    pub fn row_count(&self) -> usize {
        self.rows.read_recursive().len()
    }
}

/// Read guard over a table's rows (copy-on-write aware).
pub struct RowsReadGuard<'a>(RwLockReadGuard<'a, Arc<Vec<Row>>>);

impl std::ops::Deref for RowsReadGuard<'_> {
    type Target = Vec<Row>;
    fn deref(&self) -> &Vec<Row> {
        &self.0
    }
}

/// An exclusive, index-maintaining write handle over one table. Holds both
/// the row and index locks for the duration of a statement's mutation so
/// matched row positions cannot go stale between matching and applying.
pub struct TableWrite<'a> {
    table: &'a Table,
    rows: RwLockWriteGuard<'a, Arc<Vec<Row>>>,
    indexes: RwLockWriteGuard<'a, Arc<IndexSet>>,
}

impl TableWrite<'_> {
    /// The rows as they currently stand (matching phase).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The built index set (probe phase for UPDATE/DELETE).
    pub fn index_set(&self) -> &IndexSet {
        &self.indexes
    }

    /// Append pre-validated rows; unique indexes are checked before any
    /// row lands (statement atomicity).
    pub fn append(&mut self, new_rows: &[Row]) -> Result<()> {
        if !self.indexes.is_empty() {
            let set = Arc::make_mut(&mut self.indexes);
            set.check_append(new_rows)?;
            set.append(self.rows.len(), new_rows);
        }
        Arc::make_mut(&mut self.rows).extend_from_slice(new_rows);
        Ok(())
    }

    /// Replace the rows at the given positions; unique indexes are checked
    /// before any row changes.
    pub fn apply_updates(&mut self, updates: &[(usize, Row)]) -> Result<()> {
        if !self.indexes.is_empty() {
            let rows: &Vec<Row> = &self.rows;
            self.indexes.check_updates(rows, updates)?;
            let old: Vec<Row> = updates.iter().map(|(p, _)| rows[*p].clone()).collect();
            Arc::make_mut(&mut self.indexes).apply_updates(&old, updates);
        }
        let rows = Arc::make_mut(&mut self.rows);
        for (pos, new_row) in updates {
            rows[*pos] = new_row.clone();
        }
        Ok(())
    }

    /// Remove the rows at the given (ascending, deduped) positions.
    /// Positions shift, so the index maps are rebuilt — O(rows), the same
    /// order as the removal itself.
    pub fn delete(&mut self, positions: &[usize]) {
        let rows = Arc::make_mut(&mut self.rows);
        for pos in positions.iter().rev() {
            rows.remove(*pos);
        }
        if !self.indexes.is_empty() {
            Arc::make_mut(&mut self.indexes).rebuild(rows);
        }
    }

    /// Remove every row (TRUNCATE); index definitions survive.
    pub fn truncate(&mut self) {
        Arc::make_mut(&mut self.rows).clear();
        if !self.indexes.is_empty() {
            Arc::make_mut(&mut self.indexes).clear();
        }
    }

    pub fn table(&self) -> &Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexKey, IndexKind};

    fn defs() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "symbol".into(),
                data_type: DataType::Varchar(10),
                nullable: false,
            },
            ColumnDef {
                name: "price".into(),
                data_type: DataType::Float,
                nullable: true,
            },
        ]
    }

    #[test]
    fn from_defs_builds_schema() {
        let t = Table::from_defs("stock", &defs()).unwrap();
        assert_eq!(t.schema.len(), 2);
        assert_eq!(t.schema.index_of("PRICE"), Some(1));
        assert!(t.schema.column("symbol").is_some());
        assert!(t.schema.column("missing").is_none());
    }

    #[test]
    fn empty_defs_rejected() {
        assert!(Table::from_defs("t", &[]).is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let mut d = defs();
        d.push(ColumnDef {
            name: "SYMBOL".into(),
            data_type: DataType::Int,
            nullable: true,
        });
        assert!(Table::from_defs("t", &d).is_err());
    }

    #[test]
    fn insert_coerces_types() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("IBM".into()), Value::Int(100)])
            .unwrap();
        assert_eq!(t.rows()[0][1], Value::Float(100.0));
    }

    #[test]
    fn insert_enforces_not_null() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        let err = t
            .insert_row(vec![Value::Null, Value::Float(1.0)])
            .unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }));
    }

    #[test]
    fn insert_enforces_arity() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        assert!(t.insert_row(vec![Value::Str("IBM".into())]).is_err());
    }

    #[test]
    fn add_column_backfills_null() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("IBM".into()), Value::Float(1.0)])
            .unwrap();
        t.add_column(&ColumnDef {
            name: "vNo".into(),
            data_type: DataType::Int,
            nullable: true,
        })
        .unwrap();
        assert_eq!(t.schema.len(), 3);
        assert_eq!(t.rows()[0][2], Value::Null);
    }

    #[test]
    fn add_column_rejects_duplicates_and_not_null() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        assert!(t
            .add_column(&ColumnDef {
                name: "price".into(),
                data_type: DataType::Int,
                nullable: true,
            })
            .is_err());
        assert!(t
            .add_column(&ColumnDef {
                name: "x".into(),
                data_type: DataType::Int,
                nullable: false,
            })
            .is_err());
    }

    #[test]
    fn empty_like_copies_schema_only() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("IBM".into()), Value::Float(1.0)])
            .unwrap();
        let shadow = t.empty_like("stock_inserted");
        assert_eq!(shadow.name, "stock_inserted");
        assert_eq!(shadow.schema, t.schema);
        assert_eq!(shadow.row_count(), 0);
    }

    #[test]
    fn varchar_truncates_on_insert() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("VERYLONGSYMBOL".into()), Value::Float(1.0)])
            .unwrap();
        assert_eq!(t.rows()[0][0], Value::Str("VERYLONGSY".into()));
    }

    #[test]
    fn clone_snapshots_rows() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("IBM".into()), Value::Float(1.0)])
            .unwrap();
        let c = t.clone();
        assert_eq!(c, t);
        t.write().truncate();
        assert_eq!(c.row_count(), 1);
        assert_ne!(c, t);
    }

    fn ix(name: &str, column: &str, unique: bool, kind: IndexKind) -> IndexDef {
        IndexDef {
            name: name.into(),
            column: column.into(),
            unique,
            kind,
        }
    }

    #[test]
    fn write_handle_maintains_indexes_incrementally() {
        let t = Table::from_defs("stock", &defs()).unwrap();
        t.create_index(ix("i_sym", "symbol", false, IndexKind::Hash))
            .unwrap();
        let mut w = t.write();
        w.append(&[
            vec![Value::Str("IBM".into()), Value::Float(1.0)],
            vec![Value::Str("SUN".into()), Value::Float(2.0)],
        ])
        .unwrap();
        let probe = |w: &TableWrite<'_>, s: &str| {
            w.index_set()
                .best_for(0, false)
                .unwrap()
                .probe_eq(&IndexKey::Str(s.into()))
                .to_vec()
        };
        assert_eq!(probe(&w, "SUN"), vec![1]);
        w.apply_updates(&[(1, vec![Value::Str("HP".into()), Value::Float(2.0)])])
            .unwrap();
        assert_eq!(probe(&w, "SUN"), Vec::<usize>::new());
        assert_eq!(probe(&w, "HP"), vec![1]);
        w.delete(&[0]);
        assert_eq!(probe(&w, "HP"), vec![0], "rebuild shifted positions");
        w.truncate();
        assert_eq!(probe(&w, "HP"), Vec::<usize>::new());
        drop(w);
        assert_eq!(t.index_defs().len(), 1, "definitions survive truncate");
    }

    #[test]
    fn unique_index_enforced_through_write_handle() {
        let t = Table::from_defs("stock", &defs()).unwrap();
        t.create_index(ix("u_sym", "symbol", true, IndexKind::Hash))
            .unwrap();
        let mut w = t.write();
        w.append(&[vec![Value::Str("IBM".into()), Value::Null]])
            .unwrap();
        let err = w
            .append(&[vec![Value::Str("IBM".into()), Value::Null]])
            .unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }));
        assert_eq!(w.rows().len(), 1, "failed append left nothing behind");
    }

    #[test]
    fn clone_shares_until_mutation() {
        let mut t = Table::from_defs("stock", &defs()).unwrap();
        t.insert_row(vec![Value::Str("IBM".into()), Value::Float(1.0)])
            .unwrap();
        let snapshot = t.clone();
        // Mutating the original must not disturb the snapshot ...
        t.write()
            .append(&[vec![Value::Str("SUN".into()), Value::Float(2.0)]])
            .unwrap();
        assert_eq!(snapshot.row_count(), 1);
        assert_eq!(t.row_count(), 2);
        // ... and vice versa.
        snapshot.write().truncate();
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn pinned_sees_published_version_not_live_rows() {
        let t = Table::from_defs("stock", &defs()).unwrap();
        t.write()
            .append(&[vec![Value::Str("IBM".into()), Value::Float(1.0)]])
            .unwrap();
        // Engine DML (`write()`) does not publish — the server does that at
        // batch end — so a pin still sees the initial empty version.
        assert_eq!(t.pinned().row_count(), 0);
        t.publish();
        let pin = t.pinned();
        assert_eq!(pin.row_count(), 1);
        // Later live mutations never leak into an existing pin.
        t.write()
            .append(&[vec![Value::Str("SUN".into()), Value::Float(2.0)]])
            .unwrap();
        t.publish();
        assert_eq!(pin.row_count(), 1);
        assert_eq!(t.pinned().row_count(), 2);
    }
}
