//! `compare BASE NEW`: two files of recorded runs (`run --record`), one
//! row per workload × end-to-end metric with the verdict the benchmark's
//! own bounds give, and the per-layer deltas beneath.

use crate::bins::Paths;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// (workload, traced?, metric) -> one value per recorded run.
type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let traced = rec.num_at(&["trace"]) != 0.0;
        for (name, m) in rec.get("metrics").map_or(&[][..], Json::obj) {
            samples
                .entry((workload.to_string(), traced, name.clone()))
                .or_default()
                .push(m.num_at(&["value"]));
        }
    }
    Ok(samples)
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(paths: &Paths) -> Result<BTreeMap<String, f64>, String> {
    let path = paths.root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("end_to_end")
        .map_or(&[][..], Json::arr)
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.num_at(&["bound"]))))
        .collect())
}

/// All end-to-end metrics are lower-is-better.  `ok`: the new median is
/// not worse than the base by more than the bound.  When either side's
/// run-to-run spread is wider than the bound the medians cannot carry
/// that, so the verdict is `unresolved` unless every new run is better
/// than every base run.
pub fn verdict(base: &[f64], new: &[f64], bound: f64) -> &'static str {
    let spread = stats::spread(base).max(stats::spread(new));
    if spread > bound {
        return if stats::max(new) < stats::min(base) {
            "ok"
        } else {
            "unresolved"
        };
    }
    if stats::median(new) > stats::median(base) * (1.0 + bound) {
        "regressed"
    } else {
        "ok"
    }
}

pub fn compare(base_path: &str, new_path: &str) -> Result<i32, String> {
    let bounds = bounds(&Paths::discover()?)?;
    let (base, new) = (load(base_path)?, load(new_path)?);
    let delta = |b: f64, n: f64| {
        if b == 0.0 {
            0.0
        } else {
            (n - b) / b * 100.0
        }
    };
    let mut regressed = false;

    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7} {:>3}/{:<3} verdict",
        "workload", "metric", "base", "new", "delta%", "spread%", "bound%", "n", "n"
    );
    for w in &WORKLOADS {
        for (metric, _) in END_TO_END {
            let key = (w.name.to_string(), false, metric.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let v = verdict(b, n, bound);
            regressed |= v == "regressed";
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>+8.2} {:>8.2} {:>7.1} {:>3}/{:<3} {v}",
                w.name,
                metric,
                stats::median(b),
                stats::median(n),
                delta(stats::median(b), stats::median(n)),
                stats::spread(b).max(stats::spread(n)) * 100.0,
                bound * 100.0,
                b.len(),
                n.len()
            );
        }
    }

    println!(
        "\n{:<14} {:<30} {:>16} {:>16} {:>8}",
        "workload", "per-layer metric", "base", "new", "delta%"
    );
    for w in &WORKLOADS {
        for (metric, _) in PER_LAYER {
            let key = (w.name.to_string(), true, metric.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (b, n) = (stats::median(b), stats::median(n));
            println!(
                "{:<14} {:<30} {:>16.6} {:>16.6} {:>+8.2}",
                w.name,
                metric,
                b,
                n,
                delta(b, n)
            );
        }
    }
    Ok(i32::from(regressed))
}
