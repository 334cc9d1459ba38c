//! gridmon-bench — the continuous benchmark suite and perf gate.
//!
//! ```text
//! gridmon-bench [--label L] [--seed N] [--jobs N] [--sets LIST]
//!               [--out PATH] [--compare PATH]
//!               [--baseline PATH] [--tolerance PCT] [--quiet]
//!
//! --label L      report label; the default output file is
//!                BENCH_<L>.json (default label: 0).
//! --seed N       base seed for the pinned matrix (default 20030622).
//! --jobs N       worker threads; 0 = one per available hardware
//!                thread, the default — the suite benchmarks the
//!                machine as the sweeps would actually use it.
//! --sets LIST    comma-separated experiment sets (default
//!                1,2,3,4,5,6).
//! --out PATH     where to write the report (default BENCH_<L>.json).
//! --compare PATH gate an existing report instead of running the
//!                matrix (PATH is the "current" side; nothing is run
//!                or written).
//! --baseline P   compare against baseline report P after the run; the
//!                process exits 1 if any entry regresses beyond the
//!                tolerance.
//! --tolerance T  gate tolerance in percent (default 25).
//! --quiet        suppress per-point progress lines.
//! ```
//!
//! Cold entries pin simulator throughput (sim-events per wall second);
//! warm entries pin the result-cache path's wall time.  Event counts
//! are deterministic; wall numbers are machine-dependent, so gate
//! against baselines from the same hardware class and keep the
//! tolerance loose.
//!
//! Built with `--features alloc-profile`, every entry additionally
//! carries `allocs` / `peak_bytes` / `allocs_per_event` from the
//! counting global allocator, and the gate also fails cold entries
//! whose allocations per event grow beyond the tolerance.

#![forbid(unsafe_code)]

use gbench::suite::{compare, render_regressions, run_matrix, BenchReport, BENCH_SETS};
use std::path::PathBuf;

fn main() {
    let mut label = "0".to_string();
    let mut seed = 20030622u64;
    let mut jobs = 0usize;
    let mut sets: Vec<u32> = BENCH_SETS.to_vec();
    let mut out: Option<PathBuf> = None;
    let mut compare_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut tolerance = 25.0f64;
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
            "--jobs" | "-j" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer (0 = all cores)"));
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
                        if !(1..=6).contains(&n) {
                            die(&format!("no experiment set {n}"));
                        }
                        n
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
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a percentage"));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: gridmon-bench [--label L] [--seed N] [--jobs N] [--sets LIST] \
                     [--out PATH] [--compare PATH] [--baseline PATH] [--tolerance PCT] [--quiet]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let current = match &compare_path {
        Some(path) => read_report(path),
        None => {
            let resolved = gridmon_runner::pool::resolve_workers(jobs);
            eprintln!("== benchmark matrix: sets {sets:?}, seed {seed}, {resolved} worker(s) ==",);
            let scratch = std::env::temp_dir().join(format!(
                "gridmon-bench-{}-{}",
                std::process::id(),
                label
            ));
            let _ = std::fs::remove_dir_all(&scratch);
            let entries = run_matrix(&sets, seed, jobs, &scratch, quiet)
                .unwrap_or_else(|e| die(&e.to_string()));
            let _ = std::fs::remove_dir_all(&scratch);
            let report = BenchReport {
                label: label.clone(),
                seed,
                jobs: resolved,
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
        let baseline = read_report(&path);
        let regs = compare(&current, &baseline, tolerance);
        print!("{}", render_regressions(&regs, tolerance));
        if !regs.is_empty() {
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
