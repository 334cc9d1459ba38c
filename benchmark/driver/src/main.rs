//! The repo benchmark's driver.
//!
//! ```text
//! gridmon-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                       [--trace 0|1] [--record FILE]
//! gridmon-benchmark compare BASE.jsonl NEW.jsonl
//! gridmon-benchmark self-test
//! ```
//!
//! `run` drives one workload (default: all four, one after the other)
//! through the `figures` CLI only, checks every CSV it writes, and
//! prints a report followed by one JSON line per workload: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  It exits 1 when
//! any row failed the output check and 2 when a pass could not be run
//! at all.  `--record FILE` appends the same line, with workload, seed
//! and trace flag added, to FILE; two such files are what `compare`
//! reads.
//!
//! `benchmark/README.md` explains every name.

mod bins;
mod check;
mod compare;
mod json;
mod metrics;
mod refkernel;
mod run;
mod selftest;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("self-test") if args.len() == 1 => selftest::self_test(),
        _ => Err(
            "usage: gridmon-benchmark run [--workload NAME|all] [--seed N] [--seconds S] \
             [--trace 0|1] [--record FILE] | compare BASE.jsonl NEW.jsonl | self-test"
                .to_string(),
        ),
    }
    .unwrap_or_else(|e| {
        eprintln!("gridmon-benchmark: {e}");
        2
    });
    std::process::exit(code);
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let mut workload = "all".to_string();
    let mut opts = run::Options {
        seed: workloads::DEFAULT_SEED,
        seconds: 24.0,
        trace: false,
    };
    let mut record: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let selected: Vec<&workloads::Workload> = if workload == "all" {
        workloads::WORKLOADS.iter().collect()
    } else {
        vec![workloads::find(&workload).ok_or(format!("no workload {workload:?}"))?]
    };

    let paths = bins::Paths::discover()?;
    if let Some(r) = &record {
        // `results/` holds the committed figures; nothing of the
        // benchmark's may land there.
        let abs = std::env::current_dir().map_err(|e| e.to_string())?.join(r);
        if abs.starts_with(paths.root.join("results")) {
            return Err("refusing to write inside results/".into());
        }
    }
    let kernel = refkernel::RefKernel::new();
    let mut code = 0;
    for w in selected {
        let mut tr = spans::Tracer::new(opts.trace, w.name);
        let (mut out, timed) = run::run_workload(&paths, w, &opts, &kernel, &mut tr)?;
        let table: &[(&str, &str)] = if opts.trace {
            traced::traced_passes(&paths, w, &opts, &timed, &mut out, &mut tr)?;
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        for (name, unit) in table {
            let v = out.values.get(*name).copied().unwrap_or(0.0);
            println!("  {name:<28} {v:>16.6} {unit}");
        }
        println!(
            "  output check: {} rows attempted, {} failed; unvalidated against the paper's \
             absolute numbers (the model is checked for figure shapes only)",
            out.tally.attempted, out.tally.failed
        );
        for note in &out.notes {
            println!("  note: {note}");
        }
        let body = format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            out.tally.failed == 0,
            out.tally.attempted,
            out.tally.failed,
            metrics::metrics_json(table, &out.values)
        );
        if let Some(path) = &record {
            let line = format!(
                "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {body}}}\n",
                json::quote(w.name),
                opts.seed,
                u8::from(opts.trace)
            );
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(line.as_bytes()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{{{body}}}");
        code = code.max(out.tally.exit_code());
    }
    Ok(code)
}
