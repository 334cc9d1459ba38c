//! Property-based tests for the relational engine.

use proptest::prelude::*;
use relsql::{Database, SqlValue};

fn setup(rows: &[(i64, f64, String)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE m (id INT PRIMARY KEY, v REAL, tag TEXT)")
        .unwrap();
    for (id, v, tag) in rows {
        let tag = tag.replace('\'', "''");
        db.execute(&format!("INSERT INTO m VALUES ({id}, {v}, '{tag}')"))
            .unwrap();
    }
    db
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, String)>> {
    proptest::collection::vec(
        (
            0i64..1000,
            -100.0f64..100.0,
            "[a-z]{1,5}".prop_map(String::from),
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

proptest! {
    /// An indexed point query returns the same rows as an unindexed scan
    /// of an equivalent predicate.
    #[test]
    fn index_equals_scan(rows in arb_rows(), probe in 0i64..1000) {
        let mut db = setup(&rows);
        let indexed = db
            .execute(&format!("SELECT * FROM m WHERE id = {probe}"))
            .unwrap();
        // Force a scan with a tautological extra disjunct that the probe
        // can't use.
        let scanned = db
            .execute(&format!("SELECT * FROM m WHERE id <= {probe} AND id >= {probe}"))
            .unwrap();
        prop_assert_eq!(indexed.rows.clone(), scanned.rows);
        prop_assert!(indexed.used_index || rows.is_empty());
    }

    /// COUNT(*) equals the number of rows SELECT * returns, for a variety
    /// of predicates.
    #[test]
    fn count_matches_select(rows in arb_rows(), threshold in -100.0f64..100.0) {
        let mut db = setup(&rows);
        let pred = format!("v >= {threshold}");
        let count = db
            .execute(&format!("SELECT COUNT(*) FROM m WHERE {pred}"))
            .unwrap();
        let select = db
            .execute(&format!("SELECT * FROM m WHERE {pred}"))
            .unwrap();
        prop_assert_eq!(
            count.rows[0][0].clone(),
            SqlValue::Int(select.rows.len() as i64)
        );
    }

    /// ORDER BY really sorts; LIMIT truncates to a prefix of the sort.
    #[test]
    fn order_by_sorts(rows in arb_rows(), limit in 0usize..10) {
        let mut db = setup(&rows);
        let all = db.execute("SELECT v FROM m ORDER BY v").unwrap();
        let vals: Vec<f64> = all
            .rows
            .iter()
            .map(|r| r[0].as_number().unwrap())
            .collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let lim = db
            .execute(&format!("SELECT v FROM m ORDER BY v LIMIT {limit}"))
            .unwrap();
        prop_assert_eq!(lim.rows.len(), limit.min(vals.len()));
        for (a, b) in lim.rows.iter().zip(all.rows.iter()) {
            prop_assert_eq!(a.clone(), b.clone());
        }
    }

    /// DELETE removes exactly the rows the same predicate selects, and the
    /// table shrinks accordingly.
    #[test]
    fn delete_complements_select(rows in arb_rows(), threshold in -100.0f64..100.0) {
        let mut db = setup(&rows);
        let selected = db
            .execute(&format!("SELECT COUNT(*) FROM m WHERE v < {threshold}"))
            .unwrap();
        let n_sel = match selected.rows[0][0] {
            SqlValue::Int(n) => n as usize,
            _ => unreachable!(),
        };
        let deleted = db
            .execute(&format!("DELETE FROM m WHERE v < {threshold}"))
            .unwrap();
        prop_assert_eq!(deleted.affected, n_sel);
        let remaining = db.execute("SELECT COUNT(*) FROM m").unwrap();
        prop_assert_eq!(
            remaining.rows[0][0].clone(),
            SqlValue::Int((rows.len() - n_sel) as i64)
        );
        // No survivor matches the predicate.
        let still = db
            .execute(&format!("SELECT COUNT(*) FROM m WHERE v < {threshold}"))
            .unwrap();
        prop_assert_eq!(still.rows[0][0].clone(), SqlValue::Int(0));
    }

    /// UPDATE touches exactly the matching rows.
    #[test]
    fn update_affects_matches(rows in arb_rows(), lo in 0i64..500) {
        let mut db = setup(&rows);
        let n = db
            .execute(&format!("UPDATE m SET tag = 'hit' WHERE id >= {lo}"))
            .unwrap()
            .affected;
        let hits = db
            .execute("SELECT COUNT(*) FROM m WHERE tag = 'hit'")
            .unwrap();
        prop_assert_eq!(hits.rows[0][0].clone(), SqlValue::Int(n as i64));
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
