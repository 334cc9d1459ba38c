//! Optimized relsql paths vs the SQL-text oracle.
//!
//! The allocation pass rebuilt several relsql internals — interned
//! index keys (`Sym`/f64-bit keys instead of `format!`ed strings),
//! borrowed predicate evaluation, the parsed-statement cache, names
//! bound to symbols at parse time, and the direct row APIs
//! (`insert_row`, and `upsert_row`, which overwrites a row in place).
//! Each of those must be *observably identical* to the plain SQL-text
//! path it bypasses: same result rows in the same order, same `scanned`
//! and `used_index` accounting (they feed simulated CPU costs), same
//! errors.  These properties drive random value mixes (INT/REAL
//! collisions, quotes in text, NULLs) through both paths and compare
//! whole `QueryResult`s.

use proptest::prelude::*;
use relsql::{parse_stmt, Database, QueryResult, SqlError, SqlValue, Sym};

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
    /// as SQL text on the oracle; `upsert_row` on the optimized side.
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

/// The oracle: every statement goes through fresh SQL text, parsed
/// anew each time (no statement cache, no direct row APIs).
fn oracle_exec(db: &mut Database, sql: &str) -> Result<QueryResult, SqlError> {
    let stmt = parse_stmt(sql)?;
    db.run(&stmt)
}

fn select_sql(shape: usize, a: &SqlValue) -> String {
    match shape {
        0 => format!("SELECT * FROM m WHERE entity = {}", lit(a)),
        1 => format!("SELECT * FROM m WHERE value = {}", lit(a)),
        _ => "SELECT * FROM m".to_string(),
    }
}

proptest! {
    /// Any op sequence leaves the optimized database (direct APIs +
    /// statement cache + interned index keys) observably identical to
    /// the SQL-text oracle: same SELECT results — rows, order,
    /// `scanned`, `used_index` — and same row counts affected.
    #[test]
    fn optimized_paths_match_sql_oracle(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut fast = Database::new();
        let mut slow = Database::new();
        fast.execute(SCHEMA).unwrap();
        let m = Sym::from("m");
        oracle_exec(&mut slow, SCHEMA).unwrap();

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
                    let sql = select_sql(*shape, a);
                    // `execute` exercises the statement cache (repeat
                    // shapes re-hit the same text); the oracle re-parses.
                    let f = fast.execute(&sql).unwrap();
                    let s = oracle_exec(&mut slow, &sql).unwrap();
                    prop_assert_eq!(f, s, "select diverged for {}", sql);
                }
            }
            // Full-table dump after every mutation: identical stores.
            let f = fast.execute("SELECT * FROM m").unwrap();
            let s = oracle_exec(&mut slow, "SELECT * FROM m").unwrap();
            prop_assert_eq!(f, s, "table dump diverged");
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
