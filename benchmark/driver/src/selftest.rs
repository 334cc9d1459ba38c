//! `self-test`: proof that the output check bites, on a seconds-long
//! workload, through the same functions `run` uses.

use crate::bins::{ensure_built, fresh_dir, Paths};
use crate::check::{compare_dirs, figure_csvs};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{golden_check, pass, timed_rep};
use crate::spans::Tracer;
use crate::workloads::{Workload, DEFAULT_SEED, WORKLOADS};
use std::path::Path;

const TINY: Workload = Workload {
    name: "self-test",
    profile: "bench",
    no_cache: true,
    targets: &["set5"],
    golden: true,
    observed: &[],
    pinned_points: 0,
    pinned_events: 0,
};
/// Not the default seed, so the golden comparison must be skipped.
const SEED: u64 = 7;

/// `BENCHMARK.json` must list the driver's metrics and workloads, in
/// order, with the same units.
fn manifest_agrees(paths: &Paths) -> Result<bool, String> {
    let path = paths.root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed = |section: &str, field: &str| -> Vec<(String, String)> {
        doc.get(section)
            .map_or(&[][..], Json::arr)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or("").to_string();
                (s("name"), s(field))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let names: Vec<String> = listed("workloads", "name")
        .into_iter()
        .map(|p| p.0)
        .collect();
    Ok(listed("end_to_end", "unit") == table(&END_TO_END)
        && listed("per_layer", "unit") == table(&PER_LAYER)
        && names == WORKLOADS.map(|w| w.name))
}

/// Copy `from`'s figure CSVs into an emptied `to` and flip one byte of
/// the first.
fn flipped_copy(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let io = |e: std::io::Error| e.to_string();
    for (i, name) in figure_csvs(from).iter().enumerate() {
        let mut bytes = std::fs::read(from.join(name)).map_err(io)?;
        if i == 0 {
            let last = bytes.len() - 2; // a digit of the last row
            bytes[last] ^= 1;
        }
        std::fs::write(to.join(name), bytes).map_err(io)?;
    }
    Ok(())
}

pub fn self_test() -> Result<i32, String> {
    let paths = Paths::discover()?;
    let bins = ensure_built(&paths)?;
    let scratch = paths.fresh_scratch(TINY.name)?;
    let mut tr = Tracer::new(false, TINY.name);
    let mut failures = 0;
    let mut expect = |what: &str, ok: bool| {
        println!("{} {what}", if ok { "ok    " } else { "FAILED" });
        failures += u32::from(!ok);
    };

    expect(
        "BENCHMARK.json lists the driver's workloads and metrics",
        manifest_agrees(&paths)?,
    );

    let reference = scratch.join("reference");
    fresh_dir(&reference)?;
    let exit = pass(&bins.figures, &TINY, SEED, 1, &reference, &[])?;
    let names = figure_csvs(&reference);
    expect(
        "reference pass writes figure CSVs",
        exit.ok && !names.is_empty(),
    );

    let rep = scratch.join("rep");
    let (exit, tally) = timed_rep(&bins.figures, &TINY, SEED, &rep, &reference, &mut tr)?;
    expect(
        "a repetition identical to round 0 passes, at a non-default seed too",
        exit.ok && tally.attempted > 0 && tally.failed == 0 && tally.exit_code() == 0,
    );

    let flipped = scratch.join("flipped");
    flipped_copy(&rep, &flipped)?;
    let tally = compare_dirs(&flipped, &reference, &names);
    expect(
        "one flipped byte in a CSV fails a row and the run",
        tally.failed == 1 && tally.exit_code() != 0,
    );

    let (exit, tally) = timed_rep(Path::new("false"), &TINY, SEED, &rep, &reference, &mut tr)?;
    expect(
        "a figures command that exits 1 fails every row of its repetition",
        !exit.ok && tally.attempted > 0 && tally.failed == tally.attempted,
    );

    expect(
        "golden comparison is skipped at a non-default seed",
        golden_check(&paths, &TINY, SEED, &reference).is_none(),
    );
    // At the default seed it runs, and output that is not the committed
    // results (bench profile here, paper profile there) fails it.
    let golden = golden_check(&paths, &TINY, DEFAULT_SEED, &reference);
    expect(
        "golden comparison runs at the default seed and rejects other output",
        golden.is_some_and(|t| t.failed > 0),
    );

    Ok(i32::from(failures > 0))
}
