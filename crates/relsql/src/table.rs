//! Tables, schemas and indexes.
//!
//! Table and column names are interned [`Sym`]s, and rows live behind
//! `Rc` ([`SharedRow`]): a `SELECT *` result shares the stored rows
//! instead of deep-cloning every cell, and in-place cell updates go
//! through `Rc::make_mut` (an upsert swaps in a fresh `Rc`) so
//! outstanding result sets keep their snapshot.  A shared row is
//! immutable, so it also carries its own wire size
//! ([`StoredRow::wire_size`]), rendered at most once.

use crate::value::SqlValue;
use gintern::Sym;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Real,
    Text,
}

impl ColType {
    /// Does `v` fit this column (NULL fits everything; INT widens to REAL)?
    pub fn accepts(&self, v: &SqlValue) -> bool {
        matches!(
            (self, v),
            (_, SqlValue::Null)
                | (ColType::Int, SqlValue::Int(_))
                | (ColType::Real, SqlValue::Real(_))
                | (ColType::Real, SqlValue::Int(_))
                | (ColType::Text, SqlValue::Text(_))
        )
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColType::Int => write!(f, "INT"),
            ColType::Real => write!(f, "REAL"),
            ColType::Text => write!(f, "TEXT"),
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Lowercased name.
    pub name: Sym,
    pub ty: ColType,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Lowercased table name.
    pub name: Sym,
    pub columns: Vec<Column>,
    /// Index of the primary-key column, if any.
    pub primary_key: Option<usize>,
}

impl TableSchema {
    /// Position of the column named `name`: a scan over a handful of
    /// `u32`s, since parsed statements carry their names as symbols.
    pub fn column_of(&self, name: Sym) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column_names(&self) -> Vec<Sym> {
        self.columns.iter().map(|c| c.name).collect()
    }
}

/// A row is one value per column.
pub type Row = Vec<SqlValue>;

/// A row as tables and result sets hold it: the cells, plus a memo of
/// their rendered length.  Derefs to `[SqlValue]`; the only way to the
/// cells mutably is the private `cells_mut`, which forgets the memo.
/// A boxed slice and a one-word memo take the 24 bytes a `Vec` took.
#[derive(Debug, Clone)]
pub struct StoredRow {
    cells: Box<[SqlValue]>,
    /// Sum of the cells' [`SqlValue::wire_size`], or [`UNMEASURED`].
    wire: Cell<u64>,
}

/// Memo value of a row nobody has measured since it was built or
/// changed (no row renders to `u64::MAX` bytes).
const UNMEASURED: u64 = u64::MAX;

impl StoredRow {
    pub fn new(cells: Row) -> StoredRow {
        StoredRow {
            cells: cells.into_boxed_slice(),
            wire: Cell::new(UNMEASURED),
        }
    }

    /// Rendered length of the cells in bytes: the sum of their `Display`
    /// lengths, without separators.  Formats the row on the first call
    /// and answers from the memo afterwards.
    pub fn wire_size(&self) -> u64 {
        if self.wire.get() == UNMEASURED {
            self.wire
                .set(self.cells.iter().map(SqlValue::wire_size).sum());
        }
        self.wire.get()
    }

    fn cells_mut(&mut self) -> &mut [SqlValue] {
        self.wire.set(UNMEASURED);
        &mut self.cells
    }
}

impl Deref for StoredRow {
    type Target = [SqlValue];
    fn deref(&self) -> &[SqlValue] {
        &self.cells
    }
}

/// Rows are equal when their cells are, measured or not.
impl PartialEq for StoredRow {
    fn eq(&self, other: &StoredRow) -> bool {
        self.cells == other.cells
    }
}

/// A reference-counted row: cloning a result set shares storage with the
/// table instead of copying cells.
pub type SharedRow = Rc<StoredRow>;

/// Index key: a normalised, allocation-free form of a value for the
/// per-column equality indexes.  Numbers key by their `f64` bit
/// pattern so `2` and `2.0` (both `2.0f64`) share a key; `-0.0` keys
/// as `0.0`, since [`SqlValue::compare`] calls them equal, and all NaNs
/// collapse to one canonical key (the executor re-checks every hit, so
/// NaN still equals nothing).  Text keys are interned symbols.  The
/// index maps are only ever probed, never iterated, so key *ordering*
/// is unobservable — only equality must agree with `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum IndexKey {
    Num(u64),
    Text(Sym),
}

fn num_key(r: f64) -> IndexKey {
    let r = if r.is_nan() {
        f64::NAN
    } else if r == 0.0 {
        0.0
    } else {
        r
    };
    IndexKey::Num(r.to_bits())
}

/// Probe form of a key: text resolves through [`gintern::lookup`]
/// without interning — a string this thread never interned cannot
/// have been stored as a key (storing interns it), so a miss means
/// "not present".  `None` means the value cannot be in any index.
fn probe_key(v: &SqlValue) -> Option<IndexKey> {
    match v {
        SqlValue::Null => None,
        SqlValue::Int(i) => Some(num_key(*i as f64)),
        SqlValue::Real(r) => Some(num_key(*r)),
        SqlValue::Text(s) => gintern::lookup(s).map(IndexKey::Text),
    }
}

/// Store form of a key: interns text (allocating only the first time
/// a distinct string is seen on this thread) so the key can live in
/// the map.
fn store_key(v: &SqlValue) -> Option<IndexKey> {
    match v {
        SqlValue::Text(s) => Some(IndexKey::Text(gintern::intern(s))),
        _ => probe_key(v),
    }
}

/// A table: schema, row store and optional per-column equality indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    rows: Vec<Option<SharedRow>>, // tombstoned on delete; upsert overwrites
    live: usize,
    /// column index -> (key -> row ids)
    indexes: BTreeMap<usize, BTreeMap<IndexKey, Vec<usize>>>,
}

/// Errors raised by table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    Arity { expected: usize, got: usize },
    TypeMismatch { column: String, value: String },
    DuplicateKey(String),
    NoSuchColumn(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Arity { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            TableError::TypeMismatch { column, value } => {
                write!(f, "value {value} does not fit column {column}")
            }
            TableError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            TableError::NoSuchColumn(c) => write!(f, "no such column {c}"),
        }
    }
}

impl std::error::Error for TableError {}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        let mut t = Table {
            schema,
            rows: Vec::new(),
            live: 0,
            indexes: BTreeMap::new(),
        };
        if let Some(pk) = t.schema.primary_key {
            t.indexes.insert(pk, BTreeMap::new());
        }
        t
    }

    /// Does `row` fit the schema (arity and every cell's type)?
    fn check_row(&self, row: &[SqlValue]) -> Result<(), TableError> {
        if row.len() != self.schema.columns.len() {
            return Err(TableError::Arity {
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.schema.columns.iter().zip(row) {
            if !col.ty.accepts(v) {
                return Err(TableError::TypeMismatch {
                    column: col.name.to_string(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Insert a full row.
    pub fn insert(&mut self, row: Row) -> Result<usize, TableError> {
        self.check_row(&row)?;
        if let Some(pk) = self.schema.primary_key {
            // Probe form suffices: a duplicate key is by definition
            // already stored, hence already interned.
            if let Some(k) = probe_key(&row[pk]) {
                if self.indexes[&pk].get(&k).is_some_and(|v| !v.is_empty()) {
                    return Err(TableError::DuplicateKey(row[pk].to_string()));
                }
            }
        }
        let rid = self.rows.len();
        for (&col, idx) in self.indexes.iter_mut() {
            if let Some(k) = store_key(&row[col]) {
                idx.entry(k).or_default().push(rid);
            }
        }
        self.rows.push(Some(Rc::new(StoredRow::new(row))));
        self.live += 1;
        Ok(rid)
    }

    /// Insert `row`, or overwrite the live row holding its primary key
    /// in place: same row id, same scan position, no tombstone.  The
    /// slot gets a fresh, unmeasured `Rc`, so a result set still holding
    /// the old row keeps its snapshot.  A table without a primary key,
    /// or a NULL key, just inserts.
    pub fn upsert(&mut self, row: Row) -> Result<usize, TableError> {
        self.check_row(&row)?;
        // Index entries name live rows only, and a key has at most one.
        let live = self
            .schema
            .primary_key
            .and_then(|pk| self.index_ids(pk, &row[pk])?.first().copied());
        let Some(rid) = live else {
            return self.insert(row);
        };
        // The only index is the primary key's (`Table::new`), and the
        // key is unchanged: no index entry moves.
        debug_assert_eq!(self.indexes.len(), 1);
        self.rows[rid] = Some(Rc::new(StoredRow::new(row)));
        Ok(rid)
    }

    /// Row ids matching `value` on `col` via an index, borrowed from
    /// the index itself: `None` if the column has no index or the
    /// value is NULL (caller must scan), `Some(&[])` if indexed with
    /// no match.
    pub fn index_ids(&self, col: usize, value: &SqlValue) -> Option<&[usize]> {
        let idx = self.indexes.get(&col)?;
        if value.is_null() {
            return None;
        }
        Some(
            probe_key(value)
                .and_then(|k| idx.get(&k))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )
    }

    pub fn get_row(&self, rid: usize) -> Option<&SharedRow> {
        self.rows.get(rid).and_then(Option::as_ref)
    }

    /// Delete a row by id; returns whether it was live.
    pub fn delete_row(&mut self, rid: usize) -> bool {
        let Some(slot) = self.rows.get_mut(rid) else {
            return false;
        };
        let Some(row) = slot.take() else {
            return false;
        };
        self.live -= 1;
        for (&col, idx) in self.indexes.iter_mut() {
            // Probe form: a stored row's keys were interned on insert.
            if let Some(k) = probe_key(&row[col]) {
                if let Some(ids) = idx.get_mut(&k) {
                    ids.retain(|&r| r != rid);
                }
            }
        }
        true
    }

    /// Overwrite one column of a row (re-indexing as needed).
    pub fn update_cell(&mut self, rid: usize, col: usize, v: SqlValue) -> Result<(), TableError> {
        let ty = self.schema.columns[col].ty;
        if !ty.accepts(&v) {
            return Err(TableError::TypeMismatch {
                column: self.schema.columns[col].name.to_string(),
                value: v.to_string(),
            });
        }
        let Some(Some(row)) = self.rows.get_mut(rid) else {
            return Ok(());
        };
        // Copy-on-write: result sets holding this row keep their snapshot
        // (cells and measured size); the written row is unmeasured again.
        let old = std::mem::replace(&mut Rc::make_mut(row).cells_mut()[col], v.clone());
        if let Some(idx) = self.indexes.get_mut(&col) {
            if let Some(k) = probe_key(&old) {
                if let Some(ids) = idx.get_mut(&k) {
                    ids.retain(|&r| r != rid);
                }
            }
            if let Some(k) = store_key(&v) {
                idx.entry(k).or_default().push(rid);
            }
        }
        Ok(())
    }

    /// Iterate `(row_id, row)` over live rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SharedRow)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema {
            name: "cpu".into(),
            columns: vec![
                Column {
                    name: "host".into(),
                    ty: ColType::Text,
                },
                Column {
                    name: "load".into(),
                    ty: ColType::Real,
                },
            ],
            primary_key: Some(0),
        }
    }

    fn row(host: &str, load: f64) -> Row {
        vec![SqlValue::Text(host.into()), SqlValue::Real(load)]
    }

    #[test]
    fn insert_and_iterate() {
        let mut t = Table::new(schema());
        t.insert(row("a", 1.0)).unwrap();
        t.insert(row("b", 2.0)).unwrap();
        assert_eq!(t.live, 2);
        let hosts: Vec<&str> = t.iter().map(|(_, r)| r[0].as_text().unwrap()).collect();
        assert_eq!(hosts, vec!["a", "b"]);
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = Table::new(schema());
        t.insert(row("a", 1.0)).unwrap();
        assert!(matches!(
            t.insert(row("a", 9.0)),
            Err(TableError::DuplicateKey(_))
        ));
        assert_eq!(t.live, 1);
    }

    #[test]
    fn type_checking() {
        let mut t = Table::new(schema());
        assert!(matches!(
            t.insert(vec![SqlValue::Int(1), SqlValue::Real(0.0)]),
            Err(TableError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![SqlValue::Text("x".into())]),
            Err(TableError::Arity { .. })
        ));
        // INT accepted into REAL column; NULL accepted anywhere.
        t.insert(vec![SqlValue::Text("y".into()), SqlValue::Int(3)])
            .unwrap();
        t.insert(vec![SqlValue::Text("z".into()), SqlValue::Null])
            .unwrap();
    }

    #[test]
    fn index_lookup_matches_scan() {
        let mut t = Table::new(schema());
        for i in 0..20 {
            t.insert(row(&format!("h{i}"), i as f64)).unwrap();
        }
        let ids = t
            .index_ids(0, &SqlValue::Text("h7".into()))
            .expect("pk is indexed");
        assert_eq!(ids.len(), 1);
        assert_eq!(t.get_row(ids[0]).unwrap()[1], SqlValue::Real(7.0));
        // Unindexed column.
        assert!(t.index_ids(1, &SqlValue::Real(7.0)).is_none());
    }

    #[test]
    fn int_real_share_index_key() {
        let mut s = schema();
        s.primary_key = Some(1);
        let mut t = Table::new(s);
        t.insert(vec![SqlValue::Text("a".into()), SqlValue::Int(2)])
            .unwrap();
        // 2.0 collides with 2 under numeric key normalisation.
        assert!(matches!(
            t.insert(vec![SqlValue::Text("b".into()), SqlValue::Real(2.0)]),
            Err(TableError::DuplicateKey(_))
        ));
    }

    #[test]
    fn delete_and_update_maintain_indexes() {
        let mut t = Table::new(schema());
        let rid = t.insert(row("a", 1.0)).unwrap();
        t.insert(row("b", 2.0)).unwrap();
        assert!(t.delete_row(rid));
        assert!(!t.delete_row(rid));
        assert_eq!(t.live, 1);
        assert!(t
            .index_ids(0, &SqlValue::Text("a".into()))
            .unwrap()
            .is_empty());
        // Now the pk "a" is free again.
        let rid2 = t.insert(row("a", 5.0)).unwrap();
        t.update_cell(rid2, 0, SqlValue::Text("c".into())).unwrap();
        assert!(t
            .index_ids(0, &SqlValue::Text("a".into()))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_ids(0, &SqlValue::Text("c".into())).unwrap().len(),
            1
        );
    }

    #[test]
    fn upsert_rounds_overwrite_in_place() {
        // 1 000 publish rounds over 10 keys: ten row slots, no
        // tombstones, scan order = first-insert order, latest values.
        let mut t = Table::new(schema());
        let order = [3, 1, 4, 0, 5, 9, 2, 6, 8, 7];
        for round in 0..1_000 {
            for &k in &order {
                t.upsert(row(&format!("h{k}"), round as f64)).unwrap();
            }
        }
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.live, 10);
        let scanned: Vec<(&str, f64)> = t
            .iter()
            .map(|(_, r)| (r[0].as_text().unwrap(), r[1].as_number().unwrap()))
            .collect();
        let hosts: Vec<String> = order.iter().map(|k| format!("h{k}")).collect();
        let want: Vec<(&str, f64)> = hosts.iter().map(|h| (h.as_str(), 999.0)).collect();
        assert_eq!(scanned, want);
        assert_eq!(t.index_ids(0, &SqlValue::Text("h4".into())), Some(&[2][..]));
    }

    #[test]
    fn upsert_leaves_held_rows_alone() {
        let mut t = Table::new(schema());
        let rid = t.upsert(row("a", 1.0)).unwrap();
        let held = Rc::clone(t.get_row(rid).unwrap());
        assert_eq!(held.wire_size(), 6);
        assert_eq!(t.upsert(row("a", 12.5)).unwrap(), rid);
        // The holder keeps its cells and size; the slot is fresh.
        assert_eq!(held[1], SqlValue::Real(1.0));
        assert_eq!(held.wire_size(), 6);
        assert_eq!(t.get_row(rid).unwrap()[1], SqlValue::Real(12.5));
        assert_eq!(t.get_row(rid).unwrap().wire_size(), 7);
        // A row that does not fit changes nothing.
        assert!(t.upsert(vec![SqlValue::Text("a".into())]).is_err());
        assert_eq!(t.get_row(rid).unwrap()[1], SqlValue::Real(12.5));
    }

    #[test]
    fn null_pk_not_indexed() {
        let mut t = Table::new(schema());
        t.insert(vec![SqlValue::Null, SqlValue::Real(0.1)]).unwrap();
        t.insert(vec![SqlValue::Null, SqlValue::Real(0.2)]).unwrap(); // no dup error
        assert_eq!(t.live, 2);
    }
}
