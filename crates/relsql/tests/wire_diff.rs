//! Remembered wire sizes vs a fresh rendering.
//!
//! `relsql` rows carry their own wire size: the first `wire_size()`
//! formats the row, later calls answer from a memo, and anything that
//! can change the rendering (`Rc::make_mut` in `Table::update_cell`)
//! must forget it.  The oracle is the definition itself —
//! `to_string().len()`, rendered anew at every check.  Random mutation
//! sequences interleave measuring (so memos are warm when they have to
//! be dropped) with every way the store can change, and the memo must
//! stay invisible to `==`.

use proptest::prelude::*;
use relsql::{Database, QueryResult, SharedRow, SqlValue};

/// Whole reals, fractions, negative zero, the `1e15` edge of the `x.0`
/// rendering, NaN, quoted text, NULL.
fn value_strategy() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        (-50i64..50).prop_map(SqlValue::Int),
        (-50i64..50).prop_map(|i| SqlValue::Real(i as f64)),
        (-500i64..500).prop_map(|i| SqlValue::Real(i as f64 / 10.0)),
        Just(SqlValue::Real(-0.0)),
        Just(SqlValue::Real(1e15)),
        Just(SqlValue::Real(f64::NAN)),
        "[a-z '_%]{0,8}".prop_map(SqlValue::Text),
        Just(SqlValue::Null),
    ]
}

fn key_strategy() -> impl Strategy<Value = SqlValue> {
    "[a-d']{1,2}".prop_map(SqlValue::Text)
}

#[derive(Debug, Clone)]
enum SqlOp {
    /// Plain insert.
    Insert(SqlValue, SqlValue, SqlValue),
    /// Overwrite in place through the direct row API.
    Upsert(SqlValue, SqlValue, SqlValue),
    /// `UPDATE ... SET value, note WHERE entity = key`.
    Update(SqlValue, SqlValue, SqlValue),
    /// `UPDATE` of every row.
    UpdateAll(SqlValue),
    /// Measure a `SELECT *` and drop it: warms the stored rows' memos
    /// while leaving each `Rc` unshared, so the next `UPDATE` writes in
    /// place.
    MeasureAndDrop,
    /// Keep a `SELECT *` (measured now or only at the end) across the
    /// remaining operations.
    Hold { measure_now: bool },
    /// Keep a projection, whose rows are built per query.
    HoldProjection,
}

fn sql_op_strategy() -> impl Strategy<Value = SqlOp> {
    let (k, v) = (key_strategy, value_strategy);
    let text = || "[a-z ']{0,6}".prop_map(SqlValue::Text);
    prop_oneof![
        (k(), v(), text()).prop_map(|(a, b, c)| SqlOp::Insert(a, b, c)),
        (k(), v(), text()).prop_map(|(a, b, c)| SqlOp::Upsert(a, b, c)),
        (k(), v(), text()).prop_map(|(a, b, c)| SqlOp::Update(a, b, c)),
        text().prop_map(SqlOp::UpdateAll),
        Just(SqlOp::MeasureAndDrop),
        any::<bool>().prop_map(|measure_now| SqlOp::Hold { measure_now }),
        Just(SqlOp::HoldProjection),
    ]
}

/// REAL columns take numbers and NULL only.
fn as_real(v: &SqlValue) -> SqlValue {
    match v {
        SqlValue::Int(_) | SqlValue::Real(_) => v.clone(),
        _ => SqlValue::Null,
    }
}

fn fresh_row_size(row: &SharedRow) -> u64 {
    row.iter().map(|v| v.to_string().len() as u64).sum()
}

fn assert_sizes_fresh(r: &QueryResult) {
    for row in &r.rows {
        assert_eq!(row.wire_size(), fresh_row_size(row), "row {row:?}");
        // The second read is the memo.
        assert_eq!(row.wire_size(), fresh_row_size(row), "row {row:?} (memo)");
    }
}

/// A result set kept across later writes, with what it rendered to when
/// it was taken.
struct Held {
    result: QueryResult,
    cells: Vec<Vec<String>>,
    sizes: Vec<u64>,
}

fn hold(result: QueryResult, measure_now: bool) -> Held {
    let cells = result
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    let sizes = result.rows.iter().map(fresh_row_size).collect();
    if measure_now {
        assert_sizes_fresh(&result);
    }
    Held {
        result,
        cells,
        sizes,
    }
}

/// `==` is hand-written: check it from either side.
fn assert_equal_both_ways<T: PartialEq + std::fmt::Debug>(a: &T, b: &T, when: &str) {
    assert!(a == b, "{when}: {a:?} != {b:?}");
    assert!(b == a, "{when}: {b:?} != {a:?}");
}

proptest! {
    /// Every row a query hands out reports a fresh rendering's length,
    /// whatever was measured, updated in place, copied on write or
    /// re-inserted before; a result set taken before an `UPDATE` keeps
    /// its cells and its size.
    #[test]
    fn row_sizes_survive_every_store_mutation(
        ops in proptest::collection::vec(sql_op_strategy(), 1..40),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE m (entity TEXT PRIMARY KEY, value REAL, note TEXT)").unwrap();
        let mut held: Vec<Held> = Vec::new();
        for op in &ops {
            match op {
                SqlOp::Insert(k, v, n) => {
                    // A duplicate key is rejected; both outcomes are fine.
                    let _ = db.insert_row("m".into(), vec![k.clone(), as_real(v), n.clone()]);
                }
                SqlOp::Upsert(k, v, n) => {
                    db.upsert_row("m".into(), vec![k.clone(), as_real(v), n.clone()]).unwrap();
                }
                SqlOp::Update(k, v, n) => {
                    // NaN has no SQL literal.
                    let v = match as_real(v) {
                        SqlValue::Real(r) if r.is_nan() => SqlValue::Null,
                        v => v,
                    };
                    db.execute(&format!(
                        "UPDATE m SET value = {v}, note = {n} WHERE entity = {k}"
                    )).unwrap();
                }
                SqlOp::UpdateAll(n) => {
                    db.execute(&format!("UPDATE m SET note = {n}")).unwrap();
                }
                SqlOp::MeasureAndDrop => {
                    assert_sizes_fresh(&db.execute("SELECT * FROM m").unwrap());
                }
                SqlOp::Hold { measure_now } => {
                    held.push(hold(db.execute("SELECT * FROM m").unwrap(), *measure_now));
                }
                SqlOp::HoldProjection => {
                    held.push(hold(db.execute("SELECT note, entity FROM m").unwrap(), true));
                }
            }
            assert_sizes_fresh(&db.execute("SELECT * FROM m").unwrap());
            assert_sizes_fresh(&db.execute("SELECT value, note FROM m").unwrap());
            assert_sizes_fresh(&db.execute("SELECT COUNT(*) FROM m").unwrap());
        }
        for h in &held {
            for ((row, cells), size) in h.result.rows.iter().zip(&h.cells).zip(&h.sizes) {
                let now: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                prop_assert_eq!(&now, cells, "held row changed under a later write");
                prop_assert_eq!(row.wire_size(), *size, "held row lost its size");
            }
            assert_sizes_fresh(&h.result);
        }
    }

    /// The one case the copy-on-write path cannot cover: a measured row
    /// nobody else holds is updated in place and must be measured again.
    #[test]
    fn in_place_update_forgets_the_size(note in "[a-z ']{0,12}", load in -500i64..500) {
        let mut db = Database::new();
        db.execute("CREATE TABLE m (entity TEXT PRIMARY KEY, value REAL, note TEXT)").unwrap();
        db.execute("INSERT INTO m VALUES ('a', 1.5, 'short')").unwrap();
        let before = db.execute("SELECT * FROM m").unwrap();
        before.rows[0].wire_size();
        drop(before);
        let note = SqlValue::Text(note);
        let load = load as f64 / 10.0;
        db.execute(&format!("UPDATE m SET value = {load}, note = {note}")).unwrap();
        let after = db.execute("SELECT * FROM m").unwrap();
        assert_sizes_fresh(&after);
        // And a set taken across the write keeps the pre-update size.
        let kept = db.execute("SELECT * FROM m").unwrap();
        let kept_size = kept.rows[0].wire_size();
        db.execute("UPDATE m SET note = 'a considerably longer note than before'").unwrap();
        prop_assert_eq!(kept.rows[0].wire_size(), kept_size);
        prop_assert_eq!(kept.rows[0].wire_size(), fresh_row_size(&kept.rows[0]));
        let last = db.execute("SELECT * FROM m").unwrap();
        assert_sizes_fresh(&last);
    }

    /// Row equality looks at the cells only.
    #[test]
    fn row_equality_ignores_the_memo(
        cells in proptest::collection::vec(value_strategy(), 0..5),
    ) {
        // NaN cells are unequal to themselves with or without a memo.
        let cells: Vec<SqlValue> = cells
            .into_iter()
            .filter(|v| !matches!(v, SqlValue::Real(r) if r.is_nan()))
            .collect();
        let a = relsql::StoredRow::new(cells.clone());
        let b = relsql::StoredRow::new(cells);
        a.wire_size();
        assert_equal_both_ways(&a, &b, "one side measured");
        b.wire_size();
        assert_equal_both_ways(&a, &b, "both measured");
        assert_equal_both_ways(&a.clone(), &b, "clone of a measured row");
    }
}
