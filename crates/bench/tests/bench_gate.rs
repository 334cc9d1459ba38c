//! End-to-end tests of the `gridmon-bench` exact gate: the binary exits
//! 1 when a deterministic column or the entry set differs from the
//! baseline in either direction, 0 when only information columns moved,
//! 2 on documents it cannot read — and the committed `BENCH_0.json`
//! still describes this tree.

use gbench::suite::{run_matrix, BenchEntry, BenchReport, BENCH_SCHEMA, BENCH_SETS, REGENERATE};
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_gridmon-bench");
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0.json");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridmon-bench-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synthetic() -> BenchReport {
    let entry = |id: &str, events: u64, allocs: u64| BenchEntry {
        id: id.into(),
        points: 2,
        events,
        sim_s: 120.0,
        allocs,
        peak_bytes: 1 << 20,
        wall_s: 0.01,
        events_per_sec: events as f64 / 0.01,
        allocs_per_event: allocs as f64 / events as f64,
    };
    BenchReport {
        label: "base".into(),
        seed: 1,
        entries: vec![entry("set1", 5_000, 15_000), entry("set4", 9_000, 140_000)],
    }
}

/// `gridmon-bench --compare CUR --baseline BASE` over two documents.
fn gate(tag: &str, current: &str, baseline: &str) -> Output {
    let dir = scratch(tag);
    let (cur, base) = (dir.join("cur.json"), dir.join("base.json"));
    std::fs::write(&cur, current).unwrap();
    std::fs::write(&base, baseline).unwrap();
    let out = Command::new(BIN)
        .arg("--compare")
        .arg(&cur)
        .arg("--baseline")
        .arg(&base)
        .output()
        .expect("run gridmon-bench");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn one_allocation_either_way_fails_and_says_how_to_regenerate() {
    let base = synthetic();
    for (tag, allocs) in [("more", 140_001), ("fewer", 139_999)] {
        let mut cur = base.clone();
        cur.entries[1].allocs = allocs;
        let out = gate(tag, &cur.to_json(), &base.to_json());
        assert_eq!(
            out.status.code(),
            Some(1),
            "{tag}: exact in both directions"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in ["set4", "allocs", "140000", &allocs.to_string(), REGENERATE] {
            assert!(
                stdout.contains(needle),
                "{tag}: no {needle:?} in:\n{stdout}"
            );
        }
    }
}

#[test]
fn wall_clock_columns_never_fail_the_gate() {
    let base = synthetic();
    let mut cur = base.clone();
    cur.label = "cur".into();
    for e in &mut cur.entries {
        e.wall_s *= 10.0;
        e.events_per_sec /= 10.0;
    }
    let out = gate("wall", &cur.to_json(), &base.to_json());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("bench gate: OK"), "{stdout}");
}

#[test]
fn an_entry_missing_from_either_side_fails() {
    let both = synthetic();
    let mut one = both.clone();
    one.entries.pop();
    for (tag, cur, base) in [("shrunk", &one, &both), ("grown", &both, &one)] {
        let out = gate(tag, &cur.to_json(), &base.to_json());
        assert_eq!(out.status.code(), Some(1), "{tag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("set4") && stdout.contains("absent"),
            "{stdout}"
        );
    }
}

#[test]
fn unreadable_documents_exit_2_with_a_message() {
    let good = synthetic().to_json();
    let v2 = r#"{"schema": "gridmon-bench-v2", "label": "0", "seed": 20030622, "jobs": 1,
        "entries": [{"id": "set1/cold", "warm": false, "points": 2, "wall_s": 0.002,
        "events": 5635, "sim_s": 120, "events_per_sec": 2778047.5, "allocs": 18812,
        "peak_bytes": 114677, "allocs_per_event": 3.33}]}"#;
    let deep = "[".repeat(200_000);
    for (tag, doc, needle) in [
        ("v2", v2, "regenerate"),
        ("foreign", r#"{"schema": "wrong"}"#, "schema"),
        // Used to overflow the stack (SIGABRT) instead of returning.
        ("deep", deep.as_str(), "nesting"),
        ("surrogate", r#""\ud83d\u0041""#, "surrogate"),
    ] {
        for out in [gate(tag, doc, &good), gate(tag, &good, doc)] {
            assert_eq!(out.status.code(), Some(2), "{tag}: usage-level failure");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(needle),
                "{tag}: no {needle:?} in:\n{stderr}"
            );
        }
    }
}

#[test]
fn matrix_run_emits_a_report_that_passes_its_own_gate() {
    let dir = scratch("matrix");
    let out_path = dir.join("BENCH_test.json");
    // One set keeps the smoke fast.
    let out = Command::new(BIN)
        .args(["--sets", "1", "--label", "test", "--quiet", "--out"])
        .arg(&out_path)
        .output()
        .expect("run gridmon-bench");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&out_path).expect("report written");
    assert!(doc.contains(BENCH_SCHEMA));
    let report = BenchReport::from_json(&doc).expect("valid schema-versioned report");
    assert_eq!(report.label, "test");
    assert_eq!(report.entries.len(), 1);
    let e = &report.entries[0];
    assert_eq!(e.id, "set1");
    assert_eq!(e.points, 2);
    assert!(e.events > 0 && e.sim_s > 0.0 && e.events_per_sec > 0.0);
    let gate = Command::new(BIN)
        .arg("--compare")
        .arg(&out_path)
        .arg("--baseline")
        .arg(&out_path)
        .output()
        .expect("run gridmon-bench gate");
    assert!(gate.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The gate as a workspace test: the matrix, run in-process, must still
/// produce the committed baseline's event trajectory.  (The allocation
/// columns need the `alloc-profile` allocator and stay with the
/// perf-smoke job; these three need nothing.)
#[test]
fn committed_baseline_matches_this_tree() {
    let doc = std::fs::read_to_string(COMMITTED).expect("BENCH_0.json is committed");
    let baseline = BenchReport::from_json(&doc).expect("BENCH_0.json parses");
    let current = run_matrix(&BENCH_SETS, baseline.seed, true).expect("matrix runs");
    let pinned = |entries: &[BenchEntry]| -> Vec<(String, u64, u64, u64)> {
        entries
            .iter()
            .map(|e| (e.id.clone(), e.points, e.events, e.sim_s.to_bits()))
            .collect()
    };
    assert_eq!(
        pinned(&current),
        pinned(&baseline.entries),
        "BENCH_0.json is stale; regenerate and commit it: {REGENERATE}"
    );
}
