//! Statement execution.

use crate::ast::{CmpOp, Operand, Pred, SelectCols, Stmt};
use crate::parser::{parse_stmt, SqlParseError};
use crate::table::{Row, SharedRow, StoredRow, Table, TableError, TableSchema};
use crate::value::SqlValue;
use gintern::Sym;
use std::collections::{BTreeMap, HashMap};
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
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "{m}"),
            SqlError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            SqlError::TableExists(t) => write!(f, "table already exists: {t}"),
            SqlError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            SqlError::Table(m) => write!(f, "{m}"),
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

impl QueryResult {
    /// Approximate wire size of the result set in bytes.
    pub fn wire_size(&self) -> u64 {
        let header: u64 = self.columns.iter().map(|c| c.len() as u64 + 2).sum();
        let body: u64 = self
            .rows
            .iter()
            .map(|r| r.wire_size() + 2 * r.len() as u64)
            .sum();
        64 + header + body
    }
}

/// Upper bound on cached parsed statements; a backstop against a
/// workload that generates unbounded distinct query texts.
const STMT_CACHE_CAP: usize = 1024;

/// A named collection of tables.  `Sym` keys order as their strings
/// do, so iteration matches the old `String`-keyed map exactly.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<Sym, Table>,
    /// Parsed-statement cache for `SELECT`s, keyed by the exact query
    /// text.  The simulated services re-issue the same handful of
    /// query strings millions of times (consumer queries, stream-batch
    /// reads, COUNT(*) probes); a hit skips the lexer and parser
    /// entirely.  Only `SELECT`s are cached: DML texts embed fresh
    /// values on every call, so caching them would just grow the map.
    stmt_cache: HashMap<String, Rc<Stmt>>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse and execute one statement.  Repeated `SELECT` texts hit
    /// the statement cache and skip parsing.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, SqlError> {
        if let Some(stmt) = self.stmt_cache.get(sql) {
            let stmt = Rc::clone(stmt);
            return self.run(&stmt);
        }
        let stmt = parse_stmt(sql)?;
        if matches!(stmt, Stmt::Select { .. }) && self.stmt_cache.len() < STMT_CACHE_CAP {
            let stmt = Rc::new(stmt);
            self.stmt_cache.insert(sql.to_owned(), Rc::clone(&stmt));
            return self.run(&stmt);
        }
        self.run(&stmt)
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
            Stmt::DropTable { name } => {
                if self.tables.remove(name).is_none() {
                    return Err(SqlError::NoSuchTable(name.to_string()));
                }
                Ok(QueryResult::default())
            }
            Stmt::Insert {
                table,
                columns,
                values,
            } => {
                let t = self.table_mut(*table)?;
                let row = match columns {
                    None => values.clone(),
                    Some(cols) => {
                        // Reorder named values into schema order; missing
                        // columns become NULL.
                        if cols.len() != values.len() {
                            return Err(SqlError::Parse(format!(
                                "{} columns but {} values",
                                cols.len(),
                                values.len()
                            )));
                        }
                        let mut row = vec![SqlValue::Null; t.schema.columns.len()];
                        for (c, v) in cols.iter().zip(values) {
                            let i = t
                                .schema
                                .column_of(*c)
                                .ok_or_else(|| SqlError::NoSuchColumn(c.to_string()))?;
                            row[i] = v.clone();
                        }
                        row
                    }
                };
                t.insert(row)?;
                Ok(QueryResult {
                    affected: 1,
                    ..Default::default()
                })
            }
            Stmt::Select {
                cols,
                table,
                where_,
                order_by,
                limit,
            } => {
                let t = self.table(*table)?;
                let (mut rids, scanned, used_index) = candidate_rows(t, where_.as_ref())?;
                // Order.
                if let Some(ob) = order_by {
                    let ci = t
                        .schema
                        .column_of(ob.column)
                        .ok_or_else(|| SqlError::NoSuchColumn(ob.column.to_string()))?;
                    rids.sort_by(|&a, &b| {
                        let ra = &t.get_row(a).unwrap()[ci];
                        let rb = &t.get_row(b).unwrap()[ci];
                        let ord = ra.sort_key().total_cmp(&rb.sort_key());
                        if ob.desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                }
                if let Some(n) = limit {
                    rids.truncate(*n);
                }
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
/// An equality comparison of an indexed column against a literal (at the
/// top level or on the left spine of ANDs) short-circuits to an index
/// probe; everything else scans.
fn candidate_rows(t: &Table, where_: Option<&Pred>) -> Result<(Vec<usize>, usize, bool), SqlError> {
    validate_pred_columns(t, where_)?;
    if let Some(p) = where_ {
        if let Some((col, val)) = index_probe(t, p) {
            if let Some(ids) = t.index_ids(col, val) {
                // Probe then re-filter with the full predicate (the probe
                // may be one conjunct of a larger AND).
                let rows: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&rid| {
                        t.get_row(rid)
                            .is_some_and(|row| eval_pred(p, t, row) == Some(true))
                    })
                    .collect();
                let scanned = rows.len().max(1);
                return Ok((rows, scanned, true));
            }
        }
    }
    // Full scan.
    let mut rows = Vec::new();
    let mut scanned = 0;
    for (rid, row) in t.iter() {
        scanned += 1;
        let keep = match where_ {
            None => true,
            Some(p) => eval_pred(p, t, row) == Some(true),
        };
        if keep {
            rows.push(rid);
        }
    }
    Ok((rows, scanned, false))
}

/// Extract an indexable `col = literal` conjunct, borrowing the
/// literal from the predicate.
fn index_probe<'p>(t: &Table, p: &'p Pred) -> Option<(usize, &'p SqlValue)> {
    match p {
        Pred::Cmp(Operand::Column(c), CmpOp::Eq, Operand::Lit(v))
        | Pred::Cmp(Operand::Lit(v), CmpOp::Eq, Operand::Column(c)) => {
            let ci = t.schema.column_of(*c)?;
            t.has_index(ci).then_some((ci, v))
        }
        Pred::And(a, b) => index_probe(t, a).or_else(|| index_probe(t, b)),
        _ => None,
    }
}

fn validate_pred_columns(t: &Table, p: Option<&Pred>) -> Result<(), SqlError> {
    let Some(p) = p else { return Ok(()) };
    let check = |&c: &Sym| -> Result<(), SqlError> {
        t.schema
            .column_of(c)
            .map(|_| ())
            .ok_or_else(|| SqlError::NoSuchColumn(c.to_string()))
    };
    match p {
        Pred::Cmp(a, _, b) => {
            if let Operand::Column(c) = a {
                check(c)?;
            }
            if let Operand::Column(c) = b {
                check(c)?;
            }
            Ok(())
        }
        Pred::Like { column, .. } => check(column),
        Pred::IsNull(c) | Pred::IsNotNull(c) => check(c),
        Pred::And(a, b) | Pred::Or(a, b) => {
            validate_pred_columns(t, Some(a))?;
            validate_pred_columns(t, Some(b))
        }
        Pred::Not(q) => validate_pred_columns(t, Some(q)),
    }
}

/// Three-valued predicate evaluation (`None` = unknown, from NULLs).
fn eval_pred(p: &Pred, t: &Table, row: &[SqlValue]) -> Option<bool> {
    match p {
        Pred::Cmp(a, op, b) => {
            let va = operand_value(a, t, row);
            let vb = operand_value(b, t, row);
            let ord = va.compare(vb)?;
            Some(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => !ord.is_eq(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            })
        }
        Pred::Like {
            column,
            pattern,
            negated,
        } => {
            let ci = t.schema.column_of(*column)?;
            match &row[ci] {
                SqlValue::Null => None,
                SqlValue::Text(s) => Some(like_match(pattern, s) != *negated),
                // Non-text values match LIKE via their textual form, as
                // most SQL dialects coerce.
                v => Some(like_match(pattern, &v.to_string()) != *negated),
            }
        }
        Pred::IsNull(c) => {
            let ci = t.schema.column_of(*c)?;
            Some(row[ci].is_null())
        }
        Pred::IsNotNull(c) => {
            let ci = t.schema.column_of(*c)?;
            Some(!row[ci].is_null())
        }
        Pred::And(a, b) => match (eval_pred(a, t, row), eval_pred(b, t, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Pred::Or(a, b) => match (eval_pred(a, t, row), eval_pred(b, t, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Pred::Not(q) => eval_pred(q, t, row).map(|b| !b),
    }
}

/// SQL LIKE matching: `%` = any run (including empty), `_` = exactly one
/// character; case-insensitive like our text comparisons elsewhere.
///
/// Linear glob matching: walk both strings once, remembering only the
/// last `%` and where the value stood when it was seen.  On a mismatch
/// that `%` swallows one more character and matching resumes after it;
/// an earlier `%` never needs revisiting, because the later one can
/// absorb anything the earlier one would have.
fn like_match(pattern: &str, value: &str) -> bool {
    let (mut p, mut v) = (pattern, value);
    // (pattern after the last `%`, value position it resumes from)
    let mut star: Option<(&str, &str)> = None;
    loop {
        let mut pc = p.chars();
        let mut vc = v.chars();
        match (pc.next(), vc.next()) {
            (None, None) => return true,
            (Some('%'), _) => {
                p = pc.as_str();
                star = Some((p, v));
            }
            (Some(a), Some(b)) if a == '_' || a.eq_ignore_ascii_case(&b) => {
                p = pc.as_str();
                v = vc.as_str();
            }
            _ => {
                let Some((after, from)) = star else {
                    return false;
                };
                let mut rest = from.chars();
                if rest.next().is_none() {
                    return false;
                }
                (p, v) = (after, rest.as_str());
                star = Some((after, v));
            }
        }
    }
}

/// Borrowed operand resolution: predicate evaluation runs once per
/// scanned row per query, so it must not clone cell values (a `Text`
/// clone is a heap allocation per row).
fn operand_value<'a>(o: &'a Operand, t: &Table, row: &'a [SqlValue]) -> &'a SqlValue {
    const NULL: &SqlValue = &SqlValue::Null;
    match o {
        Operand::Lit(v) => v,
        Operand::Column(c) => t.schema.column_of(*c).map(|i| &row[i]).unwrap_or(NULL),
    }
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
        let r = d.execute("SELECT host FROM cpu WHERE load > 1.0").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns, vec!["host"]);
    }

    #[test]
    fn where_with_and_or_not() {
        let mut d = db();
        let r = d
            .execute("SELECT host FROM cpu WHERE site = 'anl' AND load < 1.0")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = d
            .execute("SELECT host FROM cpu WHERE site = 'uc' OR load >= 1.5")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let r = d
            .execute("SELECT host FROM cpu WHERE NOT site = 'anl'")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let mut d = db();
        let r = d
            .execute("SELECT host FROM cpu ORDER BY load DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], SqlValue::Text("uc01".into()));
        assert_eq!(r.rows[1][0], SqlValue::Text("lucky3".into()));
        let r = d.execute("SELECT host FROM cpu ORDER BY host").unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Text("lucky0".into()));
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
        // Index probe inside an AND still applies the full predicate.
        let r = d
            .execute("SELECT host FROM cpu WHERE host = 'lucky3' AND load < 1.0")
            .unwrap();
        assert!(r.used_index);
        assert_eq!(r.rows.len(), 0);
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
    fn insert_named_columns_fills_nulls() {
        let mut d = db();
        d.execute("INSERT INTO cpu (host) VALUES ('bare')").unwrap();
        let r = d
            .execute("SELECT site FROM cpu WHERE host = 'bare'")
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Null);
        // NULL never matches comparisons.
        let r = d
            .execute("SELECT host FROM cpu WHERE site = 'anl' OR site <> 'anl'")
            .unwrap();
        assert_eq!(r.rows.len(), 5); // 'bare' excluded
        let r = d
            .execute("SELECT host FROM cpu WHERE site IS NULL")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
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
        assert!(d.execute("DROP TABLE cpu").is_ok());
        assert!(matches!(
            d.execute("DROP TABLE cpu"),
            Err(SqlError::NoSuchTable(_))
        ));
    }

    #[test]
    fn wire_size_grows_with_rows() {
        let mut d = db();
        let small = d.execute("SELECT * FROM cpu LIMIT 1").unwrap().wire_size();
        let big = d.execute("SELECT * FROM cpu").unwrap().wire_size();
        assert!(big > small);
    }

    #[test]
    fn like_patterns() {
        let mut d = db();
        let r = d
            .execute("SELECT host FROM cpu WHERE host LIKE 'lucky%'")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let r = d
            .execute("SELECT host FROM cpu WHERE host LIKE 'uc0_'")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = d
            .execute("SELECT host FROM cpu WHERE host NOT LIKE 'lucky%'")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = d
            .execute("SELECT host FROM cpu WHERE host LIKE '%ck%' AND site = 'anl'")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        // Case-insensitive; no match is empty, not an error.
        let r = d
            .execute("SELECT host FROM cpu WHERE host LIKE 'LUCKY3'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = d
            .execute("SELECT host FROM cpu WHERE host LIKE 'z%'")
            .unwrap();
        assert_eq!(r.rows.len(), 0);
        // Bad usage is rejected.
        assert!(d.execute("SELECT host FROM cpu WHERE host LIKE 5").is_err());
        assert!(d
            .execute("SELECT host FROM cpu WHERE nosuch LIKE 'x'")
            .is_err());
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
    fn select_cache_reuses_parsed_statements() {
        let mut d = db();
        let a = d.execute("SELECT host FROM cpu WHERE load > 1.0").unwrap();
        // Mutate between identical queries: the cached plan re-executes
        // against current data, never stale results.
        d.execute("INSERT INTO cpu VALUES ('hot1', 'anl', 9.0)")
            .unwrap();
        let b = d.execute("SELECT host FROM cpu WHERE load > 1.0").unwrap();
        assert_eq!(a.rows.len() + 1, b.rows.len());
    }

    #[test]
    fn like_is_linear_in_hostile_patterns() {
        // Eight `%`s against 40 `a`s: every placement of the `%`s fails
        // on the final `b`, which the backtracking matcher tried one by
        // one (tens of millions of calls).
        let pattern = "%a%a%a%a%a%a%a%a%b";
        let value = "a".repeat(40);
        assert!(!like_match(pattern, &value));
        assert!(like_match(pattern, &format!("{value}b")));
        let mut d = Database::new();
        d.execute("CREATE TABLE t (s TEXT)").unwrap();
        for _ in 0..50 {
            d.execute(&format!("INSERT INTO t VALUES ('{value}')"))
                .unwrap();
        }
        let r = d
            .execute(&format!("SELECT COUNT(*) FROM t WHERE s LIKE '{pattern}'"))
            .unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Int(0));
    }

    #[test]
    fn column_to_column_predicates() {
        let mut d = Database::new();
        d.execute("CREATE TABLE p (a INT, b INT)").unwrap();
        d.execute("INSERT INTO p VALUES (1, 2)").unwrap();
        d.execute("INSERT INTO p VALUES (3, 3)").unwrap();
        d.execute("INSERT INTO p VALUES (5, 4)").unwrap();
        let r = d.execute("SELECT * FROM p WHERE a < b").unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = d.execute("SELECT * FROM p WHERE a = b").unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
