//! Statement execution.

use crate::ast::{Pred, SelectCols, Stmt};
use crate::parser::{parse_stmt, SqlParseError};
use crate::table::{Row, SharedRow, StoredRow, Table, TableError, TableSchema};
use crate::value::SqlValue;
use gintern::Sym;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    Parse(String),
    NoSuchTable(String),
    TableExists(String),
    NoSuchColumn(String),
    Table(String),
    /// A statement that was required to be a `SELECT` and is not.
    NotSelect,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "{m}"),
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::TableExists(t) => write!(f, "table already exists: {t}"),
            SqlError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            SqlError::Table(m) => write!(f, "{m}"),
            SqlError::NotSelect => write!(f, "not a SELECT"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlParseError> for SqlError {
    fn from(e: SqlParseError) -> Self {
        SqlError::Parse(e.to_string())
    }
}

impl From<TableError> for SqlError {
    fn from(e: TableError) -> Self {
        SqlError::Table(e.to_string())
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Column names for SELECT results.
    pub columns: Vec<Sym>,
    /// Selected rows, shared with the table store (`SELECT *` clones an
    /// `Rc` per hit instead of the cells).
    pub rows: Vec<SharedRow>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
    /// Rows examined while evaluating the statement — the cost driver for
    /// the simulated registry.
    pub scanned: usize,
    /// Whether an index satisfied the lookup.
    pub used_index: bool,
}

/// A named collection of tables.  `Sym` keys order as their strings
/// do, so iteration matches the old `String`-keyed map exactly.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<Sym, Table>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        self.run(&parse_stmt(sql)?)
    }

    /// Insert one row (schema order) without going through SQL text —
    /// exactly `INSERT INTO table VALUES (...)`, minus the `format!`,
    /// lexing and parsing.  `table` is the symbol its caller resolved
    /// once, not a name hashed per row.
    pub fn insert_row(&mut self, table: Sym, row: Row) -> Result<(), SqlError> {
        self.table_mut(table)?.insert(row)?;
        Ok(())
    }

    /// Insert one row, or overwrite in place the live row that holds its
    /// primary key ([`Table::upsert`]) — what `UPDATE table SET … WHERE
    /// key = k` followed, when that touched nothing, by `INSERT` leaves
    /// behind.  The high-rate publish loops keep one row per key this
    /// way, with no tombstone per publish.
    pub fn upsert_row(&mut self, table: Sym, row: Row) -> Result<(), SqlError> {
        self.table_mut(table)?.upsert(row)?;
        Ok(())
    }

    /// Execute a pre-parsed statement.
    pub fn run(&mut self, stmt: &Stmt) -> Result<QueryResult, SqlError> {
        match stmt {
            Stmt::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                if self.tables.contains_key(name) {
                    return Err(SqlError::TableExists(name.to_string()));
                }
                let schema = TableSchema {
                    name: *name,
                    columns: columns.clone(),
                    primary_key: *primary_key,
                };
                self.tables.insert(*name, Table::new(schema));
                Ok(QueryResult::default())
            }
            Stmt::Insert { table, values } => {
                self.table_mut(*table)?.insert(values.clone())?;
                Ok(QueryResult {
                    affected: 1,
                    ..Default::default()
                })
            }
            Stmt::Select {
                cols,
                table,
                where_,
            } => {
                let t = self.table(*table)?;
                let (rids, scanned, used_index) = candidate_rows(t, where_.as_ref())?;
                // Project.
                match cols {
                    SelectCols::CountStar => Ok(QueryResult {
                        columns: vec![gintern::intern("count(*)")],
                        rows: vec![Rc::new(StoredRow::new(vec![SqlValue::Int(
                            rids.len() as i64
                        )]))],
                        scanned,
                        used_index,
                        ..Default::default()
                    }),
                    SelectCols::Star => Ok(QueryResult {
                        columns: t.schema.column_names(),
                        // Share the stored rows: an `Rc` bump per hit.
                        rows: rids
                            .iter()
                            .map(|&r| Rc::clone(t.get_row(r).unwrap()))
                            .collect(),
                        scanned,
                        used_index,
                        ..Default::default()
                    }),
                    SelectCols::Columns(names) => {
                        let idxs: Vec<usize> = names
                            .iter()
                            .map(|&n| {
                                t.schema
                                    .column_of(n)
                                    .ok_or_else(|| SqlError::NoSuchColumn(n.to_string()))
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(QueryResult {
                            columns: names.clone(),
                            rows: rids
                                .iter()
                                .map(|&r| {
                                    let row = t.get_row(r).unwrap();
                                    Rc::new(StoredRow::new(
                                        idxs.iter().map(|&i| row[i].clone()).collect(),
                                    ))
                                })
                                .collect(),
                            scanned,
                            used_index,
                            ..Default::default()
                        })
                    }
                }
            }
            Stmt::Update {
                table,
                sets,
                where_,
            } => {
                let t = self.table(*table)?;
                let (rids, scanned, used_index) = candidate_rows(t, where_.as_ref())?;
                // Resolve and type-check every assignment before writing
                // any, so a bad value leaves no row half-updated.
                let set_idx: Vec<(usize, SqlValue)> = sets
                    .iter()
                    .map(|(c, v)| {
                        let i = t
                            .schema
                            .column_of(*c)
                            .ok_or_else(|| SqlError::NoSuchColumn(c.to_string()))?;
                        if !t.schema.columns[i].ty.accepts(v) {
                            return Err(SqlError::from(TableError::TypeMismatch {
                                column: c.to_string(),
                                value: v.to_string(),
                            }));
                        }
                        Ok((i, v.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                let t = self.table_mut(*table)?;
                for &rid in &rids {
                    for (ci, v) in &set_idx {
                        t.update_cell(rid, *ci, v.clone())?;
                    }
                }
                Ok(QueryResult {
                    affected: rids.len(),
                    scanned,
                    used_index,
                    ..Default::default()
                })
            }
            Stmt::Delete { table, where_ } => {
                let t = self.table(*table)?;
                let (rids, scanned, used_index) = candidate_rows(t, where_.as_ref())?;
                let t = self.table_mut(*table)?;
                let mut affected = 0;
                for rid in rids {
                    if t.delete_row(rid) {
                        affected += 1;
                    }
                }
                Ok(QueryResult {
                    affected,
                    scanned,
                    used_index,
                    ..Default::default()
                })
            }
        }
    }

    fn table(&self, name: Sym) -> Result<&Table, SqlError> {
        self.tables
            .get(&name)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: Sym) -> Result<&mut Table, SqlError> {
        self.tables
            .get_mut(&name)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }
}

/// Find candidate row ids for a predicate: `(rows, scanned, used_index)`.
/// An equality on an indexed column probes the index and re-checks each
/// hit (the index keys every NaN alike, and NaN equals nothing); any
/// other predicate scans in row-id order.  An unknown column is an
/// error before any row is read.
fn candidate_rows(t: &Table, where_: Option<&Pred>) -> Result<(Vec<usize>, usize, bool), SqlError> {
    let filter = match where_ {
        None => None,
        Some(p) => {
            let ci = t
                .schema
                .column_of(p.column)
                .ok_or_else(|| SqlError::NoSuchColumn(p.column.to_string()))?;
            Some((ci, &p.value))
        }
    };
    // `SqlValue::compare`'s `=`: INT and REAL by value, NULL matches nothing.
    let keep =
        |row: &[SqlValue]| filter.is_none_or(|(ci, v)| row[ci].compare(v) == Some(Ordering::Equal));
    if let Some(ids) = filter.and_then(|(ci, v)| t.index_ids(ci, v)) {
        let rows: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&rid| t.get_row(rid).is_some_and(|row| keep(row)))
            .collect();
        let scanned = rows.len().max(1);
        return Ok((rows, scanned, true));
    }
    let mut scanned = 0;
    let rows = t
        .iter()
        .filter(|(_, row)| {
            scanned += 1;
            keep(row)
        })
        .map(|(rid, _)| rid)
        .collect();
    Ok((rows, scanned, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE cpu (host TEXT PRIMARY KEY, site TEXT, load REAL)")
            .unwrap();
        for (h, s, l) in [
            ("lucky0", "anl", 0.2),
            ("lucky3", "anl", 1.5),
            ("lucky4", "anl", 0.9),
            ("uc01", "uc", 2.5),
            ("uc02", "uc", 0.1),
        ] {
            db.execute(&format!("INSERT INTO cpu VALUES ('{h}', '{s}', {l})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn select_star_and_projection() {
        let mut d = db();
        let r = d.execute("SELECT * FROM cpu").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.columns, vec!["host", "site", "load"]);
        let r = d.execute("SELECT host FROM cpu WHERE site = 'uc'").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns, vec!["host"]);
    }

    #[test]
    fn count_star() {
        let mut d = db();
        let r = d
            .execute("SELECT COUNT(*) FROM cpu WHERE site = 'anl'")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(3));
    }

    #[test]
    fn index_probe_on_primary_key() {
        let mut d = db();
        let r = d
            .execute("SELECT load FROM cpu WHERE host = 'lucky3'")
            .unwrap();
        assert!(r.used_index);
        assert_eq!(r.rows.len(), 1);
        assert!(r.scanned <= 1);
        // Non-indexed column scans.
        let r = d.execute("SELECT host FROM cpu WHERE load = 0.9").unwrap();
        assert!(!r.used_index);
        assert_eq!(r.scanned, 5);
        // A miss through the index still counts one examined row.
        let r = d
            .execute("SELECT host FROM cpu WHERE host = 'nope'")
            .unwrap();
        assert!(r.used_index);
        assert_eq!((r.rows.len(), r.scanned), (0, 1));
        // NULL matches nothing, and the index cannot key it: a scan.
        let r = d.execute("SELECT host FROM cpu WHERE host = NULL").unwrap();
        assert!(!r.used_index);
        assert_eq!((r.rows.len(), r.scanned), (0, 5));
    }

    #[test]
    fn update_and_delete() {
        let mut d = db();
        let r = d
            .execute("UPDATE cpu SET load = 9.9 WHERE site = 'uc'")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = d
            .execute("SELECT COUNT(*) FROM cpu WHERE load = 9.9")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(2));
        let r = d.execute("DELETE FROM cpu WHERE site = 'anl'").unwrap();
        assert_eq!(r.affected, 3);
        let r = d.execute("SELECT COUNT(*) FROM cpu").unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(2));
    }

    #[test]
    fn errors() {
        let mut d = db();
        assert!(matches!(
            d.execute("SELECT * FROM nope"),
            Err(SqlError::NoSuchTable(_))
        ));
        assert!(matches!(
            d.execute("SELECT nope FROM cpu"),
            Err(SqlError::NoSuchColumn(_))
        ));
        assert!(matches!(
            d.execute("SELECT * FROM cpu WHERE nope = 1"),
            Err(SqlError::NoSuchColumn(_))
        ));
        assert!(matches!(
            d.execute("CREATE TABLE cpu (a INT)"),
            Err(SqlError::TableExists(_))
        ));
        assert!(matches!(
            d.execute("INSERT INTO cpu VALUES ('lucky0', 'anl', 0.0)"),
            Err(SqlError::Table(_)) // duplicate pk
        ));
    }

    #[test]
    fn direct_row_apis_match_sql() {
        // The same upsert round through SQL text and through the direct
        // APIs leaves both databases observably identical, row order
        // included: an existing key keeps its place.
        let mut via_sql = db();
        let mut direct = db();
        for (h, l) in [("lucky3", 7.5), ("new01", 0.3), ("uc01", 1.1)] {
            let updated = via_sql
                .execute(&format!(
                    "UPDATE cpu SET host = '{h}', site = 'x', load = {l} WHERE host = '{h}'"
                ))
                .unwrap();
            if updated.affected == 0 {
                via_sql
                    .execute(&format!("INSERT INTO cpu VALUES ('{h}', 'x', {l})"))
                    .unwrap();
            }
            direct
                .upsert_row(
                    "cpu".into(),
                    vec![
                        SqlValue::Text(h.into()),
                        SqlValue::Text("x".into()),
                        SqlValue::Real(l),
                    ],
                )
                .unwrap();
        }
        let a = via_sql.execute("SELECT * FROM cpu").unwrap();
        let b = direct.execute("SELECT * FROM cpu").unwrap();
        assert_eq!(a, b);
        assert_eq!(b.rows[1][0], SqlValue::Text("lucky3".into()));
        // Error surfaces match the SQL path's, and a rejected row leaves
        // the stored one alone.
        assert!(matches!(
            direct.insert_row("nope".into(), vec![]),
            Err(SqlError::NoSuchTable(_))
        ));
        let bad = vec![
            SqlValue::Text("uc01".into()),
            SqlValue::Int(1),
            SqlValue::Null,
        ];
        assert!(matches!(
            direct.upsert_row("cpu".into(), bad),
            Err(SqlError::Table(_))
        ));
        assert_eq!(direct.execute("SELECT * FROM cpu").unwrap(), b);
    }

    #[test]
    fn update_is_all_or_nothing() {
        // A bad value anywhere in the SET list writes nothing.
        let mut d = db();
        assert!(d
            .execute("UPDATE cpu SET load = 5.0, site = 7 WHERE host = 'uc01'")
            .is_err());
        let r = d
            .execute("SELECT load FROM cpu WHERE host = 'uc01'")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Real(2.5));
    }

    #[test]
    fn signed_zero_keys_match_the_scan() {
        // `k` is indexed and `c` is its unindexed copy.  For every
        // spelling of zero the probe returns what the scan returns, and
        // a second zero key is a duplicate, whichever sign came first.
        for first in [-0.0, 0.0] {
            let mut d = Database::new();
            d.execute("CREATE TABLE z (k REAL PRIMARY KEY, c REAL)")
                .unwrap();
            let zero = SqlValue::Real(first);
            d.insert_row("z".into(), vec![zero.clone(), zero]).unwrap();
            for needle in ["-0.0", "0", "0.0"] {
                let probe = d.execute(&format!("SELECT * FROM z WHERE k = {needle}"));
                let scan = d.execute(&format!("SELECT * FROM z WHERE c = {needle}"));
                let (probe, scan) = (probe.unwrap(), scan.unwrap());
                assert!(probe.used_index && !scan.used_index);
                assert_eq!(probe.rows, scan.rows, "k = {needle} after {first:?}");
                assert_eq!(probe.rows.len(), 1);
            }
            for second in [SqlValue::Real(-first), SqlValue::Int(0)] {
                let err = d
                    .insert_row("z".into(), vec![second.clone(), second])
                    .unwrap_err();
                assert!(err.to_string().contains("duplicate"), "{err}");
            }
        }
    }
}
