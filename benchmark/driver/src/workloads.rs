//! The four workloads: each is one `figures` command line, run to
//! completion, one process at a time.  Why each exists is recorded in
//! `BENCHMARK.json` and, at length, in `benchmark/README.md`.

/// The seed `figures` defaults to; the committed `results/*.csv` were
/// produced with it, so the golden comparison runs only at this seed.
pub const DEFAULT_SEED: u64 = 20030622;

pub struct Workload {
    pub name: &'static str,
    /// `figures --profile`.
    pub profile: &'static str,
    /// `--no-cache`; the one workload without it starts every repetition
    /// in an empty `--out` directory and is followed by a warm pass.
    pub no_cache: bool,
    pub targets: &'static [&'static str],
    /// Compare the CSVs with the committed `results/` at the default seed.
    pub golden: bool,
    /// Point ids the traced run re-runs under `--trace KEY --metrics`.
    pub observed: &'static [&'static str],
    /// Size at [`DEFAULT_SEED`], measured at the commit that added the
    /// benchmark.  A run whose counts differ says so, so a change in the
    /// amount of simulated work is not mistaken for a change in speed.
    pub pinned_points: u64,
    pub pinned_events: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kernel_sweep",
        profile: "paper",
        no_cache: true,
        targets: &["set1"],
        golden: true,
        observed: &["set1/MDS GRIS (cache)/x=600"],
        pinned_points: 40,
        pinned_events: 13_223_951,
    },
    Workload {
        name: "backend_scale",
        profile: "paper",
        no_cache: true,
        targets: &["set4"],
        golden: true,
        observed: &[
            "set4/MDS GIIS (query part)/x=500",
            "set4/Hawkeye Manager/x=1000",
        ],
        pinned_points: 20,
        pinned_events: 1_401_157,
    },
    Workload {
        name: "churn_mixed",
        profile: "paper",
        no_cache: true,
        targets: &["set3", "set5"],
        golden: true,
        observed: &[
            "set3/R-GMA ProducerServlet/x=90",
            "set5/R-GMA (producer churn)/x=5",
        ],
        pinned_points: 54,
        pinned_events: 3_357_054,
    },
    Workload {
        name: "regen_quick",
        profile: "quick",
        no_cache: false,
        targets: &["all"],
        golden: false,
        observed: &[],
        pinned_points: 160,
        pinned_events: 7_319_461,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `figures` arguments of one pass over this workload.
    pub fn args(&self, seed: u64, jobs: u32, out: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut a: Vec<String> = vec!["--profile".into(), self.profile.into()];
        if self.no_cache {
            a.push("--no-cache".into());
        }
        a.extend(["--seed".into(), seed.to_string()]);
        a.extend(["--jobs".into(), jobs.to_string()]);
        a.extend(["--out".into(), out.display().to_string()]);
        a.extend(extra.iter().map(|s| s.to_string()));
        a.extend(self.targets.iter().map(|s| s.to_string()));
        a
    }
}
