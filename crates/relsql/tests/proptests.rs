//! Property-based tests for the relational engine.

use proptest::prelude::*;
use relsql::{parse_stmt, Database, SqlError, SqlValue};

/// `m.id` is the primary key; `m.id2` is an unindexed copy of it, so the
/// same equality can be asked through the index and through a scan.
fn setup(rows: &[(i64, f64, String)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE m (id INT PRIMARY KEY, v REAL, tag TEXT, id2 INT)")
        .unwrap();
    for (id, v, tag) in rows {
        db.execute(&format!("INSERT INTO m VALUES ({id}, {v}, '{tag}', {id})"))
            .unwrap();
    }
    db
}

/// Rows whose `v` and `tag` come from small pools, so equality
/// predicates on them match often.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, String)>> {
    proptest::collection::vec(
        (
            0i64..1000,
            (-8i64..8).prop_map(|h| h as f64 / 2.0),
            "[a-c]{1,2}".prop_map(String::from),
        ),
        0..30,
    )
    .prop_map(|mut v| {
        // Unique ids (primary key).
        v.sort_by_key(|r| r.0);
        v.dedup_by_key(|r| r.0);
        v
    })
}

/// One equality of each kind: the indexed key, an unindexed REAL and
/// an unindexed TEXT column.
fn predicates(id: i64, half: i64, tag: &str) -> [String; 3] {
    let v = half as f64 / 2.0;
    [
        format!("id = {id}"),
        format!("v = {v}"),
        format!("tag = '{tag}'"),
    ]
}

fn count(db: &mut Database, sql: &str) -> usize {
    match db.execute(sql).unwrap().rows[0][0] {
        SqlValue::Int(n) => n as usize,
        _ => unreachable!(),
    }
}

/// The Registry's schema and the four statement texts it sends.
const REGISTRY_SCHEMA: &str =
    "CREATE TABLE producers (id INT PRIMARY KEY, servlet INT, tablename TEXT, predicate TEXT)";
const REGISTRY_STATEMENTS: [&str; 4] = [
    REGISTRY_SCHEMA,
    "INSERT INTO producers VALUES (7, 7, 'cpuload', 'WHERE host = ''lucky7''')",
    "SELECT id FROM producers WHERE tablename = 'cpuload'",
    "SELECT COUNT(*) FROM producers",
];

/// Every form outside the grammar that an SQL writer might still try.
const REJECTED_FORMS: [&str; 16] = [
    "SELECT * FROM producers ORDER BY id",
    "SELECT * FROM producers LIMIT 3",
    "SELECT * FROM producers WHERE tablename LIKE 'cpu%'",
    "SELECT * FROM producers WHERE predicate IS NULL",
    "SELECT * FROM producers WHERE id = 1 AND servlet = 1",
    "SELECT * FROM producers WHERE id = 1 OR servlet = 1",
    "SELECT * FROM producers WHERE NOT id = 1",
    "SELECT * FROM producers WHERE (id = 1)",
    "SELECT * FROM producers WHERE id < 1",
    "SELECT * FROM producers WHERE id <= 1",
    "SELECT * FROM producers WHERE id > 1",
    "SELECT * FROM producers WHERE id >= 1",
    "SELECT * FROM producers WHERE id <> 1",
    "SELECT * FROM producers WHERE id != 1",
    "DROP TABLE producers",
    "INSERT INTO producers (id) VALUES (1)",
];

#[test]
fn forms_outside_the_grammar_are_parse_errors() {
    let mut db = Database::new();
    db.execute(REGISTRY_SCHEMA).unwrap();
    for sql in REJECTED_FORMS {
        assert!(parse_stmt(sql).is_err(), "{sql}");
        assert!(matches!(db.execute(sql), Err(SqlError::Parse(_))), "{sql}");
    }
    // The table is still there, still empty.
    assert_eq!(count(&mut db, REGISTRY_STATEMENTS[3]), 0);
}

proptest! {
    /// An indexed point query returns the same rows as a scan of the
    /// unindexed copy of the key.
    #[test]
    fn index_equals_scan(rows in arb_rows(), probe in 0i64..1000) {
        let mut db = setup(&rows);
        let indexed = db
            .execute(&format!("SELECT * FROM m WHERE id = {probe}"))
            .unwrap();
        let scanned = db
            .execute(&format!("SELECT * FROM m WHERE id2 = {probe}"))
            .unwrap();
        prop_assert_eq!(indexed.rows, scanned.rows);
        prop_assert!(indexed.used_index && !scanned.used_index);
        prop_assert_eq!(scanned.scanned, rows.len());
    }

    /// COUNT(*) equals the number of rows SELECT * returns, for each
    /// kind of predicate.
    #[test]
    fn count_matches_select(rows in arb_rows(), id in 0i64..1000, half in -8i64..8, tag in "[a-c]{1,2}") {
        let mut db = setup(&rows);
        for pred in predicates(id, half, &tag) {
            let n = count(&mut db, &format!("SELECT COUNT(*) FROM m WHERE {pred}"));
            let select = db
                .execute(&format!("SELECT * FROM m WHERE {pred}"))
                .unwrap();
            prop_assert_eq!(n, select.rows.len(), "{}", pred);
        }
    }

    /// DELETE removes exactly the rows the same predicate selects, and the
    /// table shrinks accordingly.
    #[test]
    fn delete_complements_select(
        rows in arb_rows(),
        id in 0i64..1000,
        half in -8i64..8,
        tag in "[a-c]{1,2}",
        which in 0usize..3,
    ) {
        let mut db = setup(&rows);
        let pred = &predicates(id, half, &tag)[which];
        let n_sel = count(&mut db, &format!("SELECT COUNT(*) FROM m WHERE {pred}"));
        let deleted = db
            .execute(&format!("DELETE FROM m WHERE {pred}"))
            .unwrap();
        prop_assert_eq!(deleted.affected, n_sel);
        prop_assert_eq!(count(&mut db, "SELECT COUNT(*) FROM m"), rows.len() - n_sel);
        // No survivor matches the predicate.
        prop_assert_eq!(count(&mut db, &format!("SELECT COUNT(*) FROM m WHERE {pred}")), 0);
    }

    /// UPDATE touches exactly the matching rows.
    #[test]
    fn update_affects_matches(
        rows in arb_rows(),
        id in 0i64..1000,
        half in -8i64..8,
        tag in "[a-c]{1,2}",
        which in 0usize..3,
    ) {
        let mut db = setup(&rows);
        let pred = &predicates(id, half, &tag)[which];
        let n = db
            .execute(&format!("UPDATE m SET tag = 'hit' WHERE {pred}"))
            .unwrap()
            .affected;
        prop_assert_eq!(count(&mut db, "SELECT COUNT(*) FROM m WHERE tag = 'hit'"), n);
    }

    /// Arbitrary bytes, read as text the lossy way, parse or fail with a
    /// typed error, and never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_stmt(&String::from_utf8_lossy(&bytes));
    }

    /// A Registry statement with a few bytes overwritten, inserted or
    /// removed (mostly by SQL's own punctuation, so the damage lands in
    /// the grammar) executes or fails with a typed error, and never
    /// panics.
    #[test]
    fn mutated_registry_statements_never_panic(
        which in 0usize..4,
        edits in proptest::collection::vec((any::<usize>(), 0usize..3, any::<u8>(), any::<bool>()), 1..6),
    ) {
        let mut db = Database::new();
        db.execute(REGISTRY_SCHEMA).unwrap();
        db.execute(REGISTRY_STATEMENTS[1]).unwrap();
        let mut bytes = REGISTRY_STATEMENTS[which].as_bytes().to_vec();
        for (at, op, raw, punct) in edits {
            let at = at % bytes.len();
            let b = if punct {
                let p = b"'(),*=<>!-.eE07 ";
                p[raw as usize % p.len()]
            } else {
                raw
            };
            match op {
                0 => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ => {
                    bytes.remove(at);
                    if bytes.is_empty() {
                        bytes.push(b);
                    }
                }
            }
        }
        let _ = db.execute(&String::from_utf8_lossy(&bytes));
    }

    /// `SqlValue::wire_size` is the length of the `Display` form for
    /// every variant, and text renders as a quote-doubled SQL literal.
    #[test]
    fn value_wire_size_is_display_length(
        i in any::<i64>(),
        bits in any::<u64>(),
        whole in -2_000_000_000_000_000i64..2_000_000_000_000_000,
        text in "[a-z' é]{0,12}",
    ) {
        let fixed = [-0.0, 0.0, 1e15, -1e15, 1e15 - 1.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let values = [SqlValue::Null, SqlValue::Int(i), SqlValue::Text(text.clone())]
            .into_iter()
            .chain([f64::from_bits(bits), whole as f64].into_iter().map(SqlValue::Real))
            .chain(fixed.into_iter().map(SqlValue::Real));
        for v in values {
            prop_assert_eq!(v.wire_size(), v.to_string().len() as u64, "{:?}", v);
        }
        prop_assert_eq!(
            SqlValue::Text(text.clone()).to_string(),
            format!("'{}'", text.replace('\'', "''"))
        );
    }
}
