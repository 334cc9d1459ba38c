//! gridmon-bench — the pinned benchmark matrix and its exact gate.
//!
//! ```text
//! gridmon-bench [--label L] [--seed N] [--sets LIST] [--out PATH]
//!               [--compare PATH] [--baseline PATH] [--quiet]
//!
//! --label L      report label; the default output file is
//!                BENCH_<L>.json (default label: 0).
//! --seed N       base seed for the pinned matrix (default 20030622).
//! --sets LIST    comma-separated experiment sets (default
//!                1,2,3,4,5,6).
//! --out PATH     where to write the report (default BENCH_<L>.json).
//! --compare PATH gate an existing report instead of running the
//!                matrix (PATH is the "current" side; nothing is run
//!                or written).
//! --baseline P   compare against baseline report P after the run; the
//!                process exits 1 unless both reports hold the same
//!                entries with equal deterministic columns.
//! --quiet        suppress the per-entry progress lines.
//! ```
//!
//! The gate is exact: `points`, `events`, `sim_s`, `allocs` and
//! `peak_bytes` depend only on the source tree, the seed and the
//! toolchain, so they must *equal* the baseline — one allocation more
//! or fewer fails.  `wall_s`, `events_per_sec` and `allocs_per_event`
//! are printed for the reader and never compared; wall-clock claims
//! belong to `benchmark/driver`.  Build with `--features alloc-profile`
//! for the allocation columns; without it they read 0 and the gate
//! says so instead of passing.

#![forbid(unsafe_code)]

use gbench::suite::{compare, render_mismatches, run_matrix, BenchReport, BENCH_SETS};
use gridmon_core::figures::figures_of_set;
use std::path::PathBuf;

fn main() {
    let mut label = "0".to_string();
    let mut seed = 20030622u64;
    let mut sets: Vec<u32> = BENCH_SETS.to_vec();
    let mut out: Option<PathBuf> = None;
    let mut compare_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = args.next().unwrap_or_else(|| die("--label needs a value")),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--sets" => {
                let list = args.next().unwrap_or_else(|| die("--sets needs a list"));
                sets = list
                    .split(',')
                    .map(|s| {
                        let n = s
                            .trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("bad set {s:?}")));
                        match figures_of_set(n) {
                            Ok(_) => n,
                            Err(e) => die(&e.to_string()),
                        }
                    })
                    .collect();
            }
            "--out" => {
                out = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a path")),
                ))
            }
            "--compare" => {
                compare_path = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--compare needs a path")),
                ));
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--baseline needs a path")),
                ));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: gridmon-bench [--label L] [--seed N] [--sets LIST] [--out PATH] \
                     [--compare PATH] [--baseline PATH] [--quiet]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let current = match &compare_path {
        Some(path) => read_report(path),
        None => {
            eprintln!("== benchmark matrix: sets {sets:?}, seed {seed} ==");
            let entries = run_matrix(&sets, seed, quiet).unwrap_or_else(|e| die(&e.to_string()));
            let report = BenchReport {
                label: label.clone(),
                seed,
                entries,
            };
            let path = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{label}.json")));
            std::fs::write(&path, report.to_json())
                .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
            report
        }
    };
    print!("{}", current.render());

    if let Some(path) = baseline_path {
        let mismatches = compare(&current, &read_report(&path));
        print!("{}", render_mismatches(&mismatches));
        if !mismatches.is_empty() {
            std::process::exit(1);
        }
    }
}

fn read_report(path: &std::path::Path) -> BenchReport {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("read {}: {e}", path.display())));
    BenchReport::from_json(&doc).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())))
}

fn die(msg: &str) -> ! {
    eprintln!("gridmon-bench: {msg}");
    std::process::exit(2);
}
