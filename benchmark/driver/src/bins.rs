//! Building the programs under test and running them as child processes.
//!
//! Everything is built from source in the checkout the driver was built
//! in, offline, into `CARGO_TARGET_DIR` (or `benchmark/out/target` when
//! that is unset).  Calling [`ensure_built`] again is the freshness check
//! that is part of `setup_s`: cargo finds nothing to do.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Paths {
    /// The checkout: two levels above this package.
    pub root: PathBuf,
    /// `benchmark/out`: the only place the benchmark writes, apart from
    /// the cargo target directory.
    pub out: PathBuf,
    target: PathBuf,
}

pub struct Bins {
    /// Plain release build: the one every timed repetition runs.
    pub figures: PathBuf,
    /// `--features alloc-profile`: the counting allocator, for the
    /// counted pass only.
    pub figures_alloc: PathBuf,
    /// `None` when the probes package no longer builds against the leaf
    /// crates; the probe metrics then read 0 and the report says so.
    pub probes: Option<PathBuf>,
}

impl Paths {
    pub fn discover() -> Result<Paths, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .ok_or("driver package is not two levels below the repo root")?
            .to_path_buf();
        let out = root.join("benchmark").join("out");
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(t) => {
                let t = PathBuf::from(t);
                if t.is_absolute() {
                    t
                } else {
                    std::env::current_dir().map_err(|e| e.to_string())?.join(t)
                }
            }
            None => out.join("target"),
        };
        Ok(Paths { root, out, target })
    }

    /// The scratch directory of one workload, emptied.
    pub fn fresh_scratch(&self, workload: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(workload);
        fresh_dir(&dir)?;
        Ok(dir)
    }
}

pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// `manifest` is relative to the checkout and always given, so cargo never
/// goes looking for a workspace in the directories above the checkout.
fn cargo_build(paths: &Paths, target: &Path, manifest: &str, args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(paths.root.join(manifest))
        .args(args)
        .current_dir(&paths.root)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build of {manifest} failed ({status})"))
    }
}

pub fn ensure_built(paths: &Paths) -> Result<Bins, String> {
    let bench = ["-p", "gridmon-bench", "--bin", "figures"];
    cargo_build(paths, &paths.target, "Cargo.toml", &bench)?;
    let alloc_target = paths.target.join("alloc-profile");
    cargo_build(
        paths,
        &alloc_target,
        "Cargo.toml",
        &[&bench[..], &["--features", "alloc-profile"]].concat(),
    )?;
    let probes = match cargo_build(paths, &paths.target, "benchmark/probes/Cargo.toml", &[]) {
        Ok(()) => Some(paths.target.join("release/gridmon-benchmark-probes")),
        Err(e) => {
            eprintln!("note: {e}; probe metrics are unavailable in this run");
            None
        }
    };
    Ok(Bins {
        figures: paths.target.join("release/figures"),
        figures_alloc: alloc_target.join("release/figures"),
        probes,
    })
}

pub struct Exit {
    pub ok: bool,
    pub wall_s: f64,
}

/// Run one child to completion and time it.  Its stdout goes to
/// `stdout_to` (the figure tables are large and of no use here, so most
/// callers pass `None` = discard); its stderr goes to `log`, which is
/// what to read when a pass fails.
pub fn run_child(
    program: &Path,
    args: &[String],
    stdout_to: Option<&Path>,
    log: &Path,
) -> Result<Exit, String> {
    let create = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
    let stdout = match stdout_to {
        Some(p) => Stdio::from(create(p)?),
        None => Stdio::null(),
    };
    let t = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::from(create(log)?))
        .status()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    Ok(Exit {
        ok: status.success(),
        wall_s: t.elapsed().as_secs_f64(),
    })
}
