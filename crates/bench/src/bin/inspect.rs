//! gridmon-inspect — summarize a gridmon Chrome-trace JSON file.
//!
//! ```text
//! gridmon-inspect [--self-check] [--profile RUN_DIR] [FILE]
//! ```
//!
//! FILE is a `<point>.trace.json` written by `figures --trace` (it
//! defaults to the committed golden fixture in
//! `crates/bench/fixtures/`).  The summary shows, for the measurement
//! window the trace covers: the per-phase latency breakdown of the
//! completed query spans, the top queues by time-weighted depth, and
//! every drop/refusal cause with counts.
//!
//! `--profile RUN_DIR` instead renders the harness self-profile a
//! `figures --perf` run wrote to `RUN_DIR/perf.json`: the run's phase
//! breakdown together with the per-point perf records (wall vs
//! simulated time, engine events, sim-events/s, worker and cache
//! attribution), cache traffic and pool utilization.  RUN_DIR may also
//! be the path of a perf.json itself.
//!
//! `--self-check` additionally validates the trace's internal
//! accounting: the per-phase means must sum to the span-level mean
//! response time within 1 %, and that span-level mean must agree with
//! the response time the figure pipeline reported for the same point
//! (carried in the trace metadata) within 1 %.  The process exits
//! non-zero on any violation, which makes it usable as a CI gate on
//! the golden fixture.

#![forbid(unsafe_code)]

use gtrace::inspect::{render, self_check, summarize};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/golden_trace.json");

fn main() {
    let mut check = false;
    let mut file: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--self-check" => check = true,
            "--profile" => {
                profile_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--profile needs a RUN_DIR or perf.json path")),
                );
            }
            "--help" | "-h" => {
                eprintln!("usage: gridmon-inspect [--self-check] [--profile RUN_DIR] [FILE]");
                return;
            }
            f if !f.starts_with('-') => {
                if file.replace(f.to_string()).is_some() {
                    die("expected at most one FILE");
                }
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if let Some(dir) = profile_dir {
        let mut path = std::path::PathBuf::from(&dir);
        if path.is_dir() {
            path = path.join("perf.json");
        }
        let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            die(&format!(
                "read {}: {e} (run figures --perf?)",
                path.display()
            ))
        });
        let text = gbench::profile::render_perf(&doc).unwrap_or_else(|e| die(&e));
        print!("{text}");
        return;
    }
    let path = file.unwrap_or_else(|| GOLDEN.to_string());
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let summary = summarize(&doc).unwrap_or_else(|e| die(&e));
    print!("{}", render(&summary));
    if check {
        match self_check(&summary) {
            Ok(()) => println!("\nself-check: OK (phase sum and reported mean agree within 1%)"),
            Err(e) => die(&format!("self-check FAILED: {e}")),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("gridmon-inspect: {msg}");
    std::process::exit(2);
}
