//! Property test: the SQL LIKE implementation agrees with a simple
//! reference matcher over random patterns and inputs.

use proptest::prelude::*;
use relsql::Database;

/// Reference LIKE matcher: the recursive backtracking matcher the engine
/// used before its linear one (exponential in the number of `%`s, so
/// only fit for short inputs).  Per `char`, ASCII case-insensitive.
fn reference_like(pattern: &str, value: &str) -> bool {
    fn rec(p: &[char], v: &[char]) -> bool {
        match p.split_first() {
            None => v.is_empty(),
            Some(('%', rest)) => (0..=v.len()).any(|i| rec(rest, &v[i..])),
            Some(('_', rest)) => !v.is_empty() && rec(rest, &v[1..]),
            Some((c, rest)) => {
                v.first().is_some_and(|x| x.eq_ignore_ascii_case(c)) && rec(rest, &v[1..])
            }
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let v: Vec<char> = value.chars().collect();
    rec(&p, &v)
}

proptest! {
    #[test]
    fn like_matches_reference(
        values in proptest::collection::vec("[a-cAé%_]{0,8}", 1..12),
        pattern in "[a-cAé%_]{0,6}",
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, s TEXT)").unwrap();
        for (i, v) in values.iter().enumerate() {
            db.execute(&format!("INSERT INTO t VALUES ({i}, '{v}')")).unwrap();
        }
        let r = db
            .execute(&format!("SELECT id FROM t WHERE s LIKE '{pattern}'"))
            .unwrap();
        let got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row[0].as_number().unwrap() as i64)
            .collect();
        let expected: Vec<i64> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| reference_like(&pattern, v))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(&got, &expected);
        // NOT LIKE is the exact complement.
        let r = db
            .execute(&format!("SELECT COUNT(*) FROM t WHERE s NOT LIKE '{pattern}'"))
            .unwrap();
        let n_not = r.rows[0][0].as_number().unwrap() as usize;
        prop_assert_eq!(n_not, values.len() - expected.len());
    }
}
