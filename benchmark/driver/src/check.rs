//! The output check: every `figNN.csv` a pass writes is compared row by
//! row with a reference — the round-0 CSVs of the same run (at any
//! seed), and the committed `results/` (at the default seed only).

use std::collections::BTreeSet;
use std::path::Path;

/// Rows attempted and rows failed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The process exit code this tally calls for: any failed row is a
    /// failed run.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

/// The `figNN.csv` files in `dir`, by name.
pub fn figure_csvs(dir: &Path) -> BTreeSet<String> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return BTreeSet::new();
    };
    rd.filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("fig") && n.ends_with(".csv"))
        .collect()
}

fn rows(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

/// Compare the figure CSVs named `names` in `got` with those in `want`.
/// A row counts as failed when it differs, is missing, or is extra; a
/// file absent from `got` fails all its rows.
pub fn compare_dirs(got: &Path, want: &Path, names: &BTreeSet<String>) -> Tally {
    let mut tally = Tally::default();
    for name in names {
        let want_rows = rows(&want.join(name));
        let got_rows = rows(&got.join(name));
        let n = want_rows.len().max(got_rows.len());
        tally.attempted += n as u64;
        tally.failed += (0..n)
            .filter(|&i| want_rows.get(i) != got_rows.get(i))
            .count() as u64;
    }
    tally
}

/// A pass that exited non-zero fails every row it should have produced.
pub fn all_failed(reference: &Path, names: &BTreeSet<String>) -> Tally {
    let n: u64 = names
        .iter()
        .map(|name| rows(&reference.join(name)).len() as u64)
        .sum();
    Tally {
        attempted: n.max(1),
        failed: n.max(1),
    }
}
