//! Secondary indexes: hash (equality) and ordered/BTree (equality + range).
//!
//! An index maps a **key** — a normalized, totally-ordered image of a column
//! value — to the positions of the rows holding that value. Indexes are used
//! only to *pre-narrow* the candidate rows of a statement; the full WHERE
//! predicate is always re-evaluated against every candidate, so an index
//! probe only has to produce a **superset** of the matching rows and never
//! affects visible semantics.
//!
//! ## Key normalization
//!
//! [`IndexKey`] collapses the cross-type equalities of
//! [`Value::sql_cmp`](crate::value::Value::sql_cmp) so that any two values
//! that compare `Equal` map to the same key:
//!
//! - `Int(i)`, `DateTime(i)` and whole `Float`s (`5`, `dt:5`, `5.0`) all map
//!   to `IndexKey::Int`.
//! - fractional/non-finite floats map to `IndexKey::Frac` via a monotone
//!   bit transform, so `BTreeMap` range scans see the numeric order.
//! - strings map to `IndexKey::Str` (byte order, same as `sql_cmp`).
//! - `NULL` and `NaN` map to **no key at all**: `sql_cmp` returns `None` for
//!   them, so no sargable conjunct can ever be satisfied by such a row, and
//!   leaving them out keeps unique indexes Sybase-style NULL-tolerant.
//!
//! Whole floats outside the exact `i64` range saturate to `i64::MIN/MAX`;
//! that can only *merge* distinct keys (more candidates, filtered later),
//! never separate equal ones — see `key_of` for the argument. Range probes
//! treat such bounds as unbounded to stay on the superset side.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::error::{Error, ObjectKind, Result};
use crate::table::{Row, Schema};
use crate::value::Value;

/// Monotone map from `f64` to `u64`: preserves `<` for all non-NaN floats.
fn frac_bits(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn frac_val(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits & !(1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

/// Normalized index key. Ordering is consistent with `Value::sql_cmp` on
/// every comparable pair; incomparable pairs (numeric vs string) get an
/// arbitrary but fixed order (numerics first) so they can share a BTree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    Int(i64),
    /// Monotone bits of a float that is not exactly representable as `i64`
    /// (fractional or ±inf) — never `Equal` to any `Int` key.
    Frac(u64),
    Str(String),
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use IndexKey::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Frac(a), Frac(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // A Frac value is never an exact integer, and any non-integral
            // float has |f| < 2^53, where f64 comparison with a casted i64
            // is exact — so this is a total order and never returns Equal.
            (Int(a), Frac(b)) => (*a as f64).partial_cmp(&frac_val(*b)).unwrap_or_else(|| {
                unreachable!("Frac keys are never NaN");
            }),
            (Frac(a), Int(b)) => frac_val(*a).partial_cmp(&(*b as f64)).unwrap_or_else(|| {
                unreachable!("Frac keys are never NaN");
            }),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

/// Map a value to its index key; `None` for values no sargable conjunct can
/// match (`NULL`, `NaN`). A probe literal that maps to `None` makes the
/// conjunct unusable for index routing (it stays in the residual WHERE).
pub fn key_of(v: &Value) -> Option<IndexKey> {
    match v {
        Value::Null => None,
        Value::Int(i) | Value::DateTime(i) => Some(IndexKey::Int(*i)),
        Value::Float(f) if f.is_nan() => None,
        Value::Float(f) if f.fract() == 0.0 && f.is_finite() => {
            // Saturating cast: whole floats beyond i64 merge into the edge
            // keys. Equal values still collide (superset preserved) because
            // sql_cmp can only call `f == g` Equal when f and g are the
            // same float, which maps to the same saturated key.
            Some(IndexKey::Int(*f as i64))
        }
        Value::Float(f) => Some(IndexKey::Frac(frac_bits(*f))),
        Value::Str(s) => Some(IndexKey::Str(s.clone())),
    }
}

/// True when a whole float saturates in `key_of` — range probes must widen
/// such a bound to "unbounded" to keep the candidate set a superset.
fn saturates(v: &Value) -> bool {
    match v {
        Value::Float(f) => {
            f.fract() == 0.0 && f.is_finite() && (*f < i64::MIN as f64 || *f > i64::MAX as f64)
        }
        _ => false,
    }
}

/// Index flavor: hash serves equality only; ordered also serves ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Hash,
    Ordered,
}

/// Catalog definition of one single-column index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    pub name: String,
    pub column: String,
    pub unique: bool,
    pub kind: IndexKind,
}

#[derive(Debug, Clone)]
enum IndexMap {
    Hash(HashMap<IndexKey, Vec<usize>>),
    Ordered(BTreeMap<IndexKey, Vec<usize>>),
}

impl IndexMap {
    fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Hash => IndexMap::Hash(HashMap::new()),
            IndexKind::Ordered => IndexMap::Ordered(BTreeMap::new()),
        }
    }

    fn get(&self, key: &IndexKey) -> Option<&Vec<usize>> {
        match self {
            IndexMap::Hash(m) => m.get(key),
            IndexMap::Ordered(m) => m.get(key),
        }
    }

    fn entry_push(&mut self, key: IndexKey, pos: usize) {
        match self {
            IndexMap::Hash(m) => m.entry(key).or_default().push(pos),
            IndexMap::Ordered(m) => m.entry(key).or_default().push(pos),
        }
    }

    fn remove_pos(&mut self, key: &IndexKey, pos: usize) {
        let bucket = match self {
            IndexMap::Hash(m) => m.get_mut(key),
            IndexMap::Ordered(m) => m.get_mut(key),
        };
        if let Some(b) = bucket {
            b.retain(|p| *p != pos);
            if b.is_empty() {
                match self {
                    IndexMap::Hash(m) => {
                        m.remove(key);
                    }
                    IndexMap::Ordered(m) => {
                        m.remove(key);
                    }
                }
            }
        }
    }
}

/// One built index: definition + resolved column position + key map.
#[derive(Debug, Clone)]
pub struct Index {
    pub def: IndexDef,
    pub col: usize,
    map: IndexMap,
}

impl Index {
    fn key_at(&self, row: &Row) -> Option<IndexKey> {
        row.get(self.col).and_then(key_of)
    }

    /// Row positions whose key equals `key` (empty slice if none).
    pub fn probe_eq(&self, key: &IndexKey) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Row positions within `[lo, hi]` key bounds. Requires an ordered map;
    /// hash indexes return `None` (caller falls back to scan).
    pub fn probe_range(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
        out: &mut Vec<usize>,
    ) -> bool {
        let m = match &self.map {
            IndexMap::Ordered(m) => m,
            IndexMap::Hash(_) => return false,
        };
        // An inverted range (lo > hi) panics in BTreeMap::range; it also
        // matches nothing, so detect it and return an empty candidate set.
        let lo_k = match lo {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        let hi_k = match hi {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        if let (Some(l), Some(h)) = (lo_k, hi_k) {
            if l > h
                || (l == h
                    && (matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))))
            {
                return true;
            }
        }
        for (_, bucket) in m.range((lo, hi)) {
            out.extend_from_slice(bucket);
        }
        true
    }

    fn build(&mut self, rows: &[Row]) -> Result<()> {
        self.map = IndexMap::new(self.def.kind);
        for (pos, row) in rows.iter().enumerate() {
            if let Some(key) = self.key_at(row) {
                if self.def.unique && self.map.get(&key).is_some() {
                    return Err(self.violation(&key));
                }
                self.map.entry_push(key, pos);
            }
        }
        Ok(())
    }

    fn violation(&self, key: &IndexKey) -> Error {
        let shown = match key {
            IndexKey::Int(i) => i.to_string(),
            IndexKey::Frac(b) => frac_val(*b).to_string(),
            IndexKey::Str(s) => format!("'{s}'"),
        };
        Error::Constraint {
            msg: format!(
                "unique index '{}' on column '{}' violated by duplicate key {}",
                self.def.name, self.def.column, shown
            ),
        }
    }
}

/// All indexes of one table. Cloning is cheap relative to rebuilds but still
/// O(rows); a table holds its set as an `Arc<IndexSet>` beside its rows,
/// shared copy-on-write with snapshots and published versions. The table's
/// write paths change rows and set together, under both locks, so the set
/// always describes the rows beside it.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    indexes: Vec<Index>,
}

impl IndexSet {
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    pub fn defs(&self) -> impl Iterator<Item = &IndexDef> {
        self.indexes.iter().map(|ix| &ix.def)
    }

    pub fn by_name(&self, name: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.def.name.eq_ignore_ascii_case(name))
    }

    /// Best index for an access: any index serves equality, only ordered
    /// indexes serve ranges. Unique indexes win ties (smallest buckets).
    pub fn best_for(&self, col: usize, range: bool) -> Option<&Index> {
        self.indexes
            .iter()
            .filter(|ix| ix.col == col && (!range || ix.def.kind == IndexKind::Ordered))
            .max_by_key(|ix| ix.def.unique as u8)
    }

    /// Create and build a new index over the current rows. Fails on a
    /// duplicate index name, unknown column, or (for unique) existing dupes.
    pub fn create(&mut self, def: IndexDef, schema: &Schema, rows: &[Row]) -> Result<()> {
        if self.by_name(&def.name).is_some() {
            return Err(Error::AlreadyExists {
                kind: ObjectKind::Index,
                name: def.name,
            });
        }
        let col = schema
            .index_of(&def.column)
            .ok_or_else(|| Error::NotFound {
                kind: ObjectKind::Column,
                name: def.column.clone(),
            })?;
        let mut ix = Index {
            map: IndexMap::new(def.kind),
            def,
            col,
        };
        ix.build(rows)?;
        self.indexes.push(ix);
        Ok(())
    }

    /// Drop an index by name; `false` if it does not exist.
    pub fn drop(&mut self, name: &str) -> bool {
        let before = self.indexes.len();
        self.indexes
            .retain(|ix| !ix.def.name.eq_ignore_ascii_case(name));
        self.indexes.len() != before
    }

    /// Rebuild every index from scratch (post-DDL / foreign-mutation path).
    /// Unique violations cannot occur here: the rows were admitted by the
    /// incremental checks, so `build` errors are impossible and ignored in
    /// favor of keeping a usable (if partial) map.
    pub fn rebuild(&mut self, rows: &[Row]) {
        for ix in &mut self.indexes {
            let _ = ix.build(rows);
        }
    }

    /// Check that appending `new_rows` after `base` violates no unique
    /// index. Must be called before `append` (statement atomicity).
    pub fn check_append(&self, new_rows: &[Row]) -> Result<()> {
        for ix in &self.indexes {
            if !ix.def.unique {
                continue;
            }
            let mut batch: HashMap<IndexKey, ()> = HashMap::new();
            for row in new_rows {
                if let Some(key) = ix.key_at(row) {
                    if ix.map.get(&key).is_some() || batch.insert(key.clone(), ()).is_some() {
                        return Err(ix.violation(&key));
                    }
                }
            }
        }
        Ok(())
    }

    /// Incrementally register `new_rows` appended at position `base`.
    pub fn append(&mut self, base: usize, new_rows: &[Row]) {
        for ix in &mut self.indexes {
            for (off, row) in new_rows.iter().enumerate() {
                if let Some(key) = ix.key_at(row) {
                    ix.map.entry_push(key, base + off);
                }
            }
        }
    }

    /// Check that replacing the rows at `updates` positions violates no
    /// unique index. `rows` is the pre-update storage.
    pub fn check_updates(&self, rows: &[Row], updates: &[(usize, Row)]) -> Result<()> {
        for ix in &self.indexes {
            if !ix.def.unique {
                continue;
            }
            let touched: HashMap<usize, ()> = updates.iter().map(|(p, _)| (*p, ())).collect();
            let mut batch: HashMap<IndexKey, ()> = HashMap::new();
            for (_, new_row) in updates {
                if let Some(key) = ix.key_at(new_row) {
                    let clashes_existing =
                        ix.probe_eq(&key).iter().any(|p| !touched.contains_key(p));
                    if clashes_existing || batch.insert(key.clone(), ()).is_some() {
                        return Err(ix.violation(&key));
                    }
                }
            }
        }
        let _ = rows;
        Ok(())
    }

    /// Incrementally re-key updated positions. `old_rows[i]` is the prior
    /// content of position `updates[i].0`.
    pub fn apply_updates(&mut self, old_rows: &[Row], updates: &[(usize, Row)]) {
        for ix in &mut self.indexes {
            for (old, (pos, new_row)) in old_rows.iter().zip(updates) {
                let old_key = ix.key_at(old);
                let new_key = ix.key_at(new_row);
                if old_key == new_key {
                    continue;
                }
                if let Some(k) = old_key {
                    ix.map.remove_pos(&k, *pos);
                }
                if let Some(k) = new_key {
                    ix.map.entry_push(k, *pos);
                }
            }
        }
    }

    /// Forget everything (TRUNCATE): definitions survive, maps empty.
    pub fn clear(&mut self) {
        for ix in &mut self.indexes {
            ix.map = IndexMap::new(ix.def.kind);
        }
    }
}

/// Range-bound normalization for the planner: `None` means "the bound must
/// be treated as unbounded on this side" (saturating whole float).
pub fn range_key_of(v: &Value) -> Option<Option<IndexKey>> {
    if saturates(v) {
        return Some(None);
    }
    key_of(v).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column {
                name: "id".into(),
                data_type: DataType::Int,
                nullable: true,
            },
            Column {
                name: "x".into(),
                data_type: DataType::Float,
                nullable: true,
            },
        ])
    }

    fn def(name: &str, column: &str, unique: bool, kind: IndexKind) -> IndexDef {
        IndexDef {
            name: name.into(),
            column: column.into(),
            unique,
            kind,
        }
    }

    #[test]
    fn key_normalization_collapses_sql_equal_values() {
        assert_eq!(key_of(&Value::Int(5)), key_of(&Value::Float(5.0)));
        assert_eq!(key_of(&Value::Int(5)), key_of(&Value::DateTime(5)));
        assert_ne!(key_of(&Value::Int(5)), key_of(&Value::Float(5.5)));
        assert_eq!(key_of(&Value::Null), None);
        assert_eq!(key_of(&Value::Float(f64::NAN)), None);
        assert!(key_of(&Value::Float(f64::INFINITY)).is_some());
    }

    #[test]
    fn key_order_matches_sql_cmp() {
        let vals = [
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-2.5),
            Value::Int(-1),
            Value::Float(0.0),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(3),
            Value::Float(3.25),
            Value::Float(f64::INFINITY),
            Value::Str("".into()),
            Value::Str("abc".into()),
        ];
        for a in &vals {
            for b in &vals {
                let (ka, kb) = (key_of(a).unwrap(), key_of(b).unwrap());
                if let Some(ord) = a.sql_cmp(b) {
                    assert_eq!(ka.cmp(&kb), ord, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn frac_bits_is_monotone() {
        let xs = [f64::NEG_INFINITY, -1.5, -0.25, 0.25, 1.5, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(frac_bits(w[0]) < frac_bits(w[1]));
            assert_eq!(frac_val(frac_bits(w[0])), w[0]);
        }
    }

    #[test]
    fn hash_index_probes_equality() {
        let mut set = IndexSet::default();
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(2), Value::Float(2.0)],
            vec![Value::Int(1), Value::Float(3.0)],
            vec![Value::Null, Value::Float(4.0)],
        ];
        set.create(def("i1", "id", false, IndexKind::Hash), &schema(), &rows)
            .unwrap();
        let ix = set.best_for(0, false).unwrap();
        assert_eq!(ix.probe_eq(&IndexKey::Int(1)), &[0, 2]);
        assert_eq!(ix.probe_eq(&IndexKey::Int(9)), &[] as &[usize]);
        assert!(set.best_for(0, true).is_none(), "hash cannot serve ranges");
    }

    #[test]
    fn ordered_index_probes_ranges_across_types() {
        let mut set = IndexSet::default();
        let rows = vec![
            vec![Value::Int(10), Value::Null],
            vec![Value::Float(2.5), Value::Null],
            vec![Value::Int(5), Value::Null],
            vec![Value::Str("zzz".into()), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        set.create(def("i1", "id", false, IndexKind::Ordered), &schema(), &rows)
            .unwrap();
        let ix = set.best_for(0, true).unwrap();
        let mut out = Vec::new();
        assert!(ix.probe_range(
            Bound::Included(&IndexKey::Int(3)),
            Bound::Excluded(&IndexKey::Int(10)),
            &mut out,
        ));
        out.sort_unstable();
        assert_eq!(out, vec![2], "5 in [3,10); 2.5, 10, 'zzz', NULL out");
        out.clear();
        assert!(ix.probe_range(
            Bound::Included(&IndexKey::Int(10)),
            Bound::Included(&IndexKey::Int(3)),
            &mut out,
        ));
        assert!(out.is_empty(), "inverted range matches nothing");
    }

    #[test]
    fn unique_index_rejects_dupes_everywhere() {
        let mut set = IndexSet::default();
        let rows = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::Null],
        ];
        assert!(set
            .create(def("u", "id", true, IndexKind::Hash), &schema(), &rows)
            .is_err());
        let rows = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Null, Value::Null],
        ];
        set.create(def("u", "id", true, IndexKind::Hash), &schema(), &rows)
            .unwrap();
        // NULLs never conflict; Int(1) does, including against Float(1.0).
        assert!(set.check_append(&[vec![Value::Null, Value::Null]]).is_ok());
        assert!(set
            .check_append(&[vec![Value::Float(1.0), Value::Null]])
            .is_err());
        assert!(set
            .check_append(&[
                vec![Value::Int(7), Value::Null],
                vec![Value::Int(7), Value::Null]
            ])
            .is_err());
        // Updates may swap keys among themselves.
        let updates = vec![(0usize, vec![Value::Int(2), Value::Null])];
        assert!(set.check_updates(&rows, &updates).is_ok());
        let clash = vec![(1usize, vec![Value::Int(1), Value::Null])];
        assert!(set.check_updates(&rows, &clash).is_err());
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut set = IndexSet::default();
        let mut rows = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Null],
        ];
        set.create(def("i", "id", false, IndexKind::Ordered), &schema(), &rows)
            .unwrap();
        // Append.
        let fresh = vec![vec![Value::Int(2), Value::Null]];
        set.check_append(&fresh).unwrap();
        set.append(rows.len(), &fresh);
        rows.extend(fresh);
        // Update position 0: 1 -> 2.
        let updates = vec![(0usize, vec![Value::Int(2), Value::Null])];
        let old = vec![rows[0].clone()];
        set.check_updates(&rows, &updates).unwrap();
        set.apply_updates(&old, &updates);
        rows[0] = vec![Value::Int(2), Value::Null];
        let ix = set.best_for(0, false).unwrap();
        let mut got = ix.probe_eq(&IndexKey::Int(2)).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(ix.probe_eq(&IndexKey::Int(1)), &[] as &[usize]);
        // A rebuild from the same rows agrees.
        let mut set2 = set.clone();
        set2.rebuild(&rows);
        let ix2 = set2.best_for(0, false).unwrap();
        let mut got2 = ix2.probe_eq(&IndexKey::Int(2)).to_vec();
        got2.sort_unstable();
        assert_eq!(got2, got);
    }

    #[test]
    fn saturating_bounds_detected() {
        assert!(saturates(&Value::Float(1e300)));
        assert!(!saturates(&Value::Float(5.0)));
        assert!(!saturates(&Value::Float(f64::INFINITY)));
        assert!(!saturates(&Value::Int(i64::MAX)));
    }
}
