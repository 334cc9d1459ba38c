//! The paper's proposed fix for aggregate-server scalability, live:
//! "a multi-layer architecture in which each middle-level aggregate
//! information server manages a subset of information servers should be
//! examined."
//!
//! This example builds both architectures over the same 60 GRISes —
//! flat (everything registered to one GIIS) and two-level (five branch
//! GIISes under a top GIIS), the catalogue's `ext/hier-flat` and
//! `ext/hier-tree` rows — runs the paper's Experiment-4 workload on
//! each, and prints the comparison.
//!
//! ```text
//! cargo run --release --example hierarchical_giis
//! ```

use gridmon::core::runcfg::{Measurement, RunConfig};
use gridmon::core::scenario::{catalogue, compile};
use gridmon::simcore::SimDuration;

/// The extension row `id` with `n_gris` GRISes.
fn row(id: &str, n_gris: u32, cfg: &RunConfig) -> Measurement {
    let series = catalogue::find(id).expect("a catalogue row");
    compile(&(series.spec)(), n_gris, cfg).run_and_measure(f64::from(n_gris))
}

fn main() {
    let mut cfg = RunConfig::quick(2003);
    cfg.warmup = SimDuration::from_secs(40);
    cfg.window = SimDuration::from_secs(120);

    let n_gris = 60;
    let branches = 5;
    println!(
        "Aggregating {n_gris} GRISes, 10 users querying everything\n\
         (warmup {:.0}s, measurement window {:.0}s)\n",
        cfg.warmup.as_secs_f64(),
        cfg.window.as_secs_f64()
    );

    let flat = row("ext/hier-flat", n_gris, &cfg);
    let hier = row("ext/hier-tree", n_gris, &cfg);

    println!(
        "{:<28} {:>12} {:>14} {:>8} {:>8}",
        "architecture", "throughput", "response (s)", "load1", "cpu %"
    );
    for (label, m) in [
        ("flat (one GIIS)", flat),
        (&format!("two-level ({branches} branches)"), hier),
    ] {
        println!(
            "{:<28} {:>12.2} {:>14.3} {:>8.2} {:>8.1}",
            label, m.throughput, m.response_time, m.load1, m.cpu_load
        );
    }

    let per_answer = |m: &Measurement| m.cpu_load / m.throughput.max(1e-9);
    println!(
        "\nthe hierarchy answers {:.1}x faster at {:.1}x the throughput:\n\
         the top GIIS keeps {branches} sources fresh instead of {n_gris},\n\
         but merges and searches every entry of the fleet\n\
         ({:.1} CPU-% per answered query, flat {:.1}).",
        flat.response_time / hier.response_time.max(1e-9),
        hier.throughput / flat.throughput.max(1e-9),
        per_answer(&hier),
        per_answer(&flat),
    );
    assert!(hier.throughput > flat.throughput);
}
