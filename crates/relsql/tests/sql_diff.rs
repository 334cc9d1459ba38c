//! Typed statements and direct row APIs vs the SQL text they replace.
//!
//! The R-GMA services build their statements without text: selects by
//! `Stmt::select`, rows by `insert_row` and `upsert_row` (which
//! overwrites a row in place).  Each must be *observably identical* to
//! the SQL text the services used to format and parse: same result
//! rows in the same order, same `scanned` and `used_index` accounting
//! (they feed simulated CPU costs), same errors.  These properties drive
//! random value mixes (INT/REAL collisions, quotes in text, NULLs, names
//! in any letter case) through both paths and compare whole
//! `QueryResult`s.

use proptest::prelude::*;
use relsql::{name, parse_stmt, Database, QueryResult, SelectCols, SqlError, SqlValue, Stmt, Sym};

/// A value pool that exercises every index-key class: whole reals that
/// collide with ints, negative zero, quoted text, NULL.
fn value_strategy() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        (-50i64..50).prop_map(SqlValue::Int),
        (-50i64..50).prop_map(|i| SqlValue::Real(i as f64)), // collides with Int
        (-500i64..500).prop_map(|i| SqlValue::Real(i as f64 / 10.0)),
        Just(SqlValue::Real(-0.0)),
        "[a-z '_%]{0,8}".prop_map(SqlValue::Text),
        Just(SqlValue::Null),
    ]
}

/// Literal form that round-trips through the lexer exactly like the
/// services' old `format!` queries did (whole reals printed `x.0`
/// still lex as REAL; ints as INT; quotes escape by doubling).
fn lit(v: &SqlValue) -> String {
    v.to_string()
}

#[derive(Debug, Clone)]
enum Op {
    /// Upsert `pk` — `UPDATE` then, if that touched nothing, `INSERT`
    /// as SQL text on the oracle; `upsert_row` on the typed side.
    Upsert(SqlValue, SqlValue, SqlValue),
    /// DELETE WHERE col = value (col 0 = indexed pk, col 1 = scan).
    DeleteEq(usize, SqlValue),
    /// SELECT with a WHERE shape: 0 = pk probe, 1 = unindexed eq,
    /// 2 = full table.
    Select(usize, SqlValue),
}

/// Keys for upserts and probes: mostly a small text pool, so a key is
/// often already stored and the upsert overwrites instead of inserting.
fn key_strategy() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        "[abc]".prop_map(SqlValue::Text),
        "[abc]".prop_map(SqlValue::Text),
        value_strategy(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let (k, v) = (key_strategy, value_strategy);
    prop_oneof![
        (k(), v(), v()).prop_map(|(a, b, c)| Op::Upsert(a, b, c)),
        (0usize..2, v()).prop_map(|(c, x)| Op::DeleteEq(c, x)),
        (0usize..3, k()).prop_map(|(s, a)| Op::Select(s, a)),
    ]
}

const SCHEMA: &str = "CREATE TABLE m (entity TEXT PRIMARY KEY, value REAL, note TEXT)";
const COLS: [&str; 2] = ["entity", "value"];

/// The oracle: every statement goes through fresh SQL text.
fn oracle_exec(db: &mut Database, sql: &str) -> Result<QueryResult, SqlError> {
    let stmt = parse_stmt(sql)?;
    db.run(&stmt)
}

/// A SELECT shape as text and as the typed statement it stands for.
fn select(shape: usize, a: &SqlValue) -> (String, Stmt) {
    let filter = [Some("entity"), Some("value"), None][shape.min(2)];
    let text = match filter {
        Some(column) => format!("SELECT * FROM m WHERE {column} = {}", lit(a)),
        None => "SELECT * FROM m".to_string(),
    };
    let typed = Stmt::select(SelectCols::Star, "m", filter.map(|c| (c, a.clone())));
    (text, typed)
}

/// `text` with the letters `mask` picks in upper case: SQL names are
/// case-insensitive.
fn spell(text: &str, mask: u64) -> String {
    let flip = |(i, c): (usize, char)| match mask >> (i % 64) & 1 {
        1 => c.to_ascii_uppercase(),
        _ => c,
    };
    text.chars().enumerate().map(flip).collect()
}

/// Text values the Registry stores: table names and predicates, quotes
/// included.
fn registry_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-c' ]{0,5}",
        Just("cpuload".to_string()),
        Just("o'brien".to_string()),
        Just("site='anl'".to_string()),
        Just("WHERE host = 'lucky7'".to_string()),
    ]
}

/// How the Registry quoted a text literal before its statements were
/// typed.
fn quoted(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

proptest! {
    /// Any op sequence leaves the typed side (direct row APIs, typed
    /// selects) observably identical to the SQL-text oracle: same
    /// SELECT results — rows, order, `scanned`, `used_index` — and same
    /// row counts affected.
    #[test]
    fn optimized_paths_match_sql_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut fast = Database::new();
        let mut slow = Database::new();
        fast.execute(SCHEMA).unwrap();
        let m = Sym::from("m");
        oracle_exec(&mut slow, SCHEMA).unwrap();
        let (dump_text, dump) = select(2, &SqlValue::Null);

        for op in &ops {
            match op {
                Op::Upsert(k, v, n) => {
                    let direct = fast.upsert_row(m, vec![k.clone(), v.clone(), n.clone()]);
                    let (k, v, n) = (lit(k), lit(v), lit(n));
                    let sql = oracle_exec(
                        &mut slow,
                        &format!(
                            "UPDATE m SET entity = {k}, value = {v}, note = {n} WHERE entity = {k}"
                        ),
                    )
                    .and_then(|updated| match updated.affected {
                        0 => oracle_exec(&mut slow, &format!("INSERT INTO m VALUES ({k}, {v}, {n})")),
                        _ => Ok(updated),
                    });
                    prop_assert_eq!(direct.is_ok(), sql.is_ok(), "upsert error surface diverged");
                }
                Op::DeleteEq(c, x) => {
                    let sql = format!("DELETE FROM m WHERE {} = {}", COLS[*c], lit(x));
                    let affected = fast.execute(&sql).unwrap().affected;
                    let del = oracle_exec(&mut slow, &sql).unwrap();
                    prop_assert_eq!(affected, del.affected);
                }
                Op::Select(shape, a) => {
                    let (sql, typed) = select(*shape, a);
                    let f = fast.run(&typed).unwrap();
                    let s = oracle_exec(&mut slow, &sql).unwrap();
                    prop_assert_eq!(f, s, "select diverged for {}", sql);
                }
            }
            // Full-table dump after every mutation: identical stores.
            let f = fast.run(&dump).unwrap();
            let s = oracle_exec(&mut slow, &dump_text).unwrap();
            prop_assert_eq!(f, s, "table dump diverged");
        }
    }

    /// The Registry's statements, typed, against the text it formatted
    /// before: a registration row through `insert_row` against the
    /// quote-escaped `INSERT`, the lookup by `tablename`, `SELECT *` and
    /// `COUNT(*)` — names spelled in any case, texts quoted.  Each pair
    /// gives the same error or the same whole `QueryResult`.
    #[test]
    fn registry_statements_match_their_text(
        rows in proptest::collection::vec((0i64..12, registry_text(), registry_text()), 0..24),
        probes in proptest::collection::vec(registry_text(), 1..6),
        mask in any::<u64>(),
    ) {
        let schema = "CREATE TABLE producers (id INT PRIMARY KEY, servlet INT, tablename TEXT, predicate TEXT)";
        let mut typed = Database::new();
        let mut text = Database::new();
        typed.execute(schema).unwrap();
        text.execute(schema).unwrap();
        let [producers, id, tablename] = ["producers", "id", "tablename"].map(|n| spell(n, mask));
        for (n, table, predicate) in &rows {
            let row = vec![
                SqlValue::Int(*n),
                SqlValue::Int(*n),
                SqlValue::Text(table.clone()),
                SqlValue::Text(predicate.clone()),
            ];
            let t = typed.insert_row(name(&producers), row);
            let insert = format!(
                "INSERT INTO {producers} VALUES ({n}, {n}, {}, {})",
                quoted(table),
                quoted(predicate)
            );
            let s = oracle_exec(&mut text, &insert).map(|r| r.affected);
            prop_assert_eq!(t.map(|()| 1), s, "{}", insert);
        }
        let mut pairs = vec![
            (
                Stmt::select(SelectCols::Star, &producers, None),
                format!("SELECT * FROM {producers}"),
            ),
            (
                Stmt::select(SelectCols::CountStar, &producers, None),
                format!("select count(*) from {producers}"),
            ),
        ];
        for table in rows.iter().map(|r| &r.1).chain(&probes) {
            let cols = SelectCols::Columns(vec![name(&id)]);
            let filter = Some((tablename.as_str(), SqlValue::Text(table.clone())));
            let sql = format!(
                "SELECT {id} FROM {producers} WHERE {tablename} = {}",
                quoted(table)
            );
            pairs.push((Stmt::select(cols, &producers, filter), sql));
        }
        for (stmt, sql) in &pairs {
            prop_assert_eq!(typed.run(stmt), oracle_exec(&mut text, sql), "{}", sql);
        }
    }

    /// The index probe is pure optimization: a probed equality SELECT
    /// returns exactly the rows a full predicate scan keeps, in the
    /// same (row-id) order.
    #[test]
    fn index_probe_matches_scan(
        rows in proptest::collection::vec((value_strategy(), value_strategy()), 0..40),
        needle in value_strategy(),
    ) {
        let mut db = Database::new();
        db.execute(SCHEMA).unwrap();
        for (k, v) in &rows {
            // Ignore duplicate-pk rejections; both paths see one store.
            let _ = db.insert_row("m".into(), vec![k.clone(), v.clone(), SqlValue::Null]);
        }
        let probed = db
            .execute(&format!("SELECT * FROM m WHERE entity = {}", lit(&needle)))
            .unwrap();
        let all = db.execute("SELECT * FROM m").unwrap();
        let scanned: Vec<_> = all
            .rows
            .iter()
            .filter(|r| r[0].compare(&needle) == Some(std::cmp::Ordering::Equal))
            .cloned()
            .collect();
        prop_assert_eq!(&probed.rows, &scanned, "probe vs scan rows diverged");
        if !needle.is_null() {
            prop_assert!(probed.used_index, "pk equality must use the index");
        }
    }
}
