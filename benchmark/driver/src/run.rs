//! One run of one workload: set-up, the timed repetitions with the
//! reference kernel around each, the counted pass, and the output check.
//! The traced run adds the passes in `traced.rs`.

use crate::bins::{ensure_built, fresh_dir, run_child, Bins, Exit, Paths};
use crate::check::{all_failed, compare_dirs, figure_csvs, Tally};
use crate::json::Json;
use crate::metrics::Values;
use crate::refkernel::RefKernel;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated and its median reported, so one slow cargo start
/// does not decide `setup_s`.
const SETUPS: usize = 5;
/// The counted pass takes this much longer than a plain repetition
/// (counting allocator, `--perf`); used to predict whether another
/// repetition still fits in the window.
const COUNTED_FACTOR: f64 = 1.2;
/// `setup_s` is reported at this reference-kernel wall time: the machine's
/// speed drifts between two levels 1.6x apart for minutes at a time, which
/// a raw set-up time would follow, so it is scaled by NOMINAL_REF_S over
/// the reference wall measured around the set-up block.  0.35 s is the
/// kernel on the box the benchmark was defined on, at its faster level.
const NOMINAL_REF_S: f64 = 0.35;

pub struct Options {
    pub seed: u64,
    /// How long the measured window (timed repetitions + counted pass)
    /// may last.  There is always one repetition; another is started only
    /// if it and the counted pass are predicted to end inside the window.
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// What a reader must know to interpret the numbers (golden check
    /// skipped, event count differs from the pinned size, ...).
    pub notes: Vec<String>,
}

/// What the timed part of a run hands to the traced passes.
pub struct Timed {
    pub bins: Bins,
    pub scratch: PathBuf,
    /// Round 0's output directory.
    pub reference: PathBuf,
    pub build_s: f64,
    pub walls: Vec<f64>,
    pub refs: Vec<f64>,
    pub counted: Json,
}

/// One `figures` pass over `w` into `dir`; stderr lands in `<dir>.log`.
pub fn pass(
    program: &Path,
    w: &Workload,
    seed: u64,
    jobs: u32,
    dir: &Path,
    extra: &[&str],
) -> Result<Exit, String> {
    run_child(
        program,
        &w.args(seed, jobs, dir, extra),
        None,
        &dir.with_extension("log"),
    )
}

/// The error of a pass the run cannot go on without.
pub fn pass_failed(what: &str, dir: &Path) -> String {
    format!("{what} failed, see {}", dir.with_extension("log").display())
}

pub fn read_perf(dir: &Path) -> Result<Json, String> {
    let path = dir.join("perf.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The check of one pass's CSVs against the round-0 reference.
pub fn check_pass(exit: &Exit, dir: &Path, reference: &Path) -> Tally {
    let names = figure_csvs(reference);
    if exit.ok {
        compare_dirs(dir, reference, &names)
    } else {
        all_failed(reference, &names)
    }
}

/// One timed repetition of `w` with `figures` into an emptied `dir`,
/// checked against `reference` (round 0 passes its own directory).  A
/// workload that uses the result cache is followed by a warm pass over
/// the same directory, whose CSVs must come out the same.
pub fn timed_rep(
    figures: &Path,
    w: &Workload,
    seed: u64,
    dir: &Path,
    reference: &Path,
    tr: &mut Tracer,
) -> Result<(Exit, Tally), String> {
    fresh_dir(dir)?;
    let exit = tr.span("timed repetition", |_| pass(figures, w, seed, 1, dir, &[]))?;
    let mut tally = check_pass(&exit, dir, reference);
    if exit.ok && !w.no_cache {
        for name in figure_csvs(dir) {
            std::fs::remove_file(dir.join(&name)).map_err(|e| format!("remove {name}: {e}"))?;
        }
        let warm = tr.span("warm pass", |_| pass(figures, w, seed, 1, dir, &[]))?;
        tally.add(check_pass(&warm, dir, reference));
    }
    Ok((exit, tally))
}

/// The comparison with the committed `results/`, or `None` when the seed
/// is not the one they were produced with.
pub fn golden_check(paths: &Paths, w: &Workload, seed: u64, dir: &Path) -> Option<Tally> {
    (w.golden && seed == DEFAULT_SEED)
        .then(|| compare_dirs(dir, &paths.root.join("results"), &figure_csvs(dir)))
}

pub fn run_workload(
    paths: &Paths,
    w: &Workload,
    opts: &Options,
    kernel: &RefKernel,
    tr: &mut Tracer,
) -> Result<(Outcome, Timed), String> {
    let mut notes = Vec::new();

    let t = Instant::now();
    let bins = tr.span("build", |_| ensure_built(paths))?;
    let build_s = t.elapsed().as_secs_f64();

    // Set-up: what has to happen before the first measured pass.  The
    // warm-up is the same command at the seconds-long `bench` profile, so
    // the binary, its inputs and the scratch directory are hot and any
    // work a change moves into first use lands here.
    let warmup = Workload {
        profile: "bench",
        ..*w
    };
    let mut refs = vec![tr.span("reference kernel", |_| kernel.run())];
    let mut setups = Vec::new();
    let mut scratch = PathBuf::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        tr.span("setup", |_| -> Result<(), String> {
            ensure_built(paths)?;
            scratch = paths.fresh_scratch(w.name)?;
            let dir = scratch.join("warmup");
            if !pass(&bins.figures, &warmup, opts.seed, 1, &dir, &[])?.ok {
                return Err(pass_failed("warm-up pass", &dir));
            }
            Ok(())
        })?;
        setups.push(t.elapsed().as_secs_f64());
    }
    refs.push(tr.span("reference kernel", |_| kernel.run()));
    let setup_s = stats::median(&setups) * NOMINAL_REF_S / ((refs[0] + refs[1]) / 2.0);

    // Timed repetitions, the reference kernel before and after each.  The
    // first one is round 0: its CSVs are the reference every later pass
    // must reproduce.  The window also has to hold the counted pass, which
    // takes a little longer than a repetition.
    let window = Instant::now();
    let reference = scratch.join("round0");
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    loop {
        let dir = if walls.is_empty() {
            reference.clone()
        } else {
            scratch.join("rep")
        };
        let (exit, t) = timed_rep(&bins.figures, w, opts.seed, &dir, &reference, tr)?;
        if walls.is_empty() && (!exit.ok || figure_csvs(&reference).is_empty()) {
            return Err(pass_failed("first repetition", &reference));
        }
        tally.add(t);
        walls.push(exit.wall_s);
        refs.push(tr.span("reference kernel", |_| kernel.run()));
        let next = exit.wall_s * (1.0 + COUNTED_FACTOR) + refs[refs.len() - 1];
        // The traced run needs one timed sample only, as the base of its
        // overhead ratios.
        if opts.trace || window.elapsed().as_secs_f64() + next > opts.seconds {
            break;
        }
    }
    // refs[0] preceded the set-up; repetition i ran between refs[i + 1]
    // and refs[i + 2].
    let costs: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, wall)| wall / ((refs[i + 1] + refs[i + 2]) / 2.0))
        .collect();

    match golden_check(paths, w, opts.seed, &reference) {
        Some(t) => {
            notes.push(format!(
                "golden comparison with results/: {} rows, {} failed",
                t.attempted, t.failed
            ));
            tally.add(t);
        }
        None if w.golden => notes.push(format!(
            "golden comparison with results/ skipped: seed {} is not {DEFAULT_SEED}",
            opts.seed
        )),
        None => {}
    }

    // The counted pass: allocation counts are exact at --jobs 1.
    let dir = scratch.join("counted");
    fresh_dir(&dir)?;
    let exit = tr.span("counted pass", |_| {
        pass(&bins.figures_alloc, w, opts.seed, 1, &dir, &["--perf"])
    })?;
    if !exit.ok {
        return Err(pass_failed("counted pass", &dir));
    }
    tally.add(check_pass(&exit, &dir, &reference));
    let counted = read_perf(&dir)?;
    let events = counted.num_at(&["totals", "events"]);
    let points = counted.num_at(&["totals", "executed"]);
    let pinned = (w.pinned_points as f64, w.pinned_events as f64);
    if opts.seed == DEFAULT_SEED && (points, events) != pinned {
        notes.push(format!(
            "{points} points and {events} events, pinned size is {} and {}: the simulated \
             work changed, so wall_ref is not comparable with runs of the pinned size",
            w.pinned_points, w.pinned_events
        ));
    }

    let mut values = Values::new();
    values.insert("setup_s".into(), setup_s);
    values.insert("wall_ref".into(), stats::median(&costs));
    values.insert("allocs".into(), counted.num_at(&["alloc", "allocs"]));
    values.insert(
        "peak_heap_mb".into(),
        counted.num_at(&["alloc", "peak"]) / 1e6,
    );

    let (q1, q3) = stats::quartiles(&walls);
    println!(
        "{}: seed {}, {} timed repetitions, {points} points, {events} events",
        w.name,
        opts.seed,
        walls.len(),
    );
    println!(
        "  wall_s      median {:.4}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n {}",
        stats::median(&walls),
        q1,
        q3,
        stats::min(&walls),
        stats::max(&walls),
        walls.len()
    );
    println!(
        "  ref_s       median {:.4}  min {:.4}  max {:.4}  n {}",
        stats::median(&refs),
        stats::min(&refs),
        stats::max(&refs),
        refs.len()
    );
    let list = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  wall samples  {}", list(&walls));
    println!("  ref samples   {}", list(&refs));
    println!("  cost samples  {}", list(&costs));
    println!("  setup samples {} (raw seconds)", list(&setups));

    Ok((
        Outcome {
            tally,
            values,
            notes,
        },
        Timed {
            bins,
            scratch,
            reference,
            build_s,
            walls,
            refs,
            counted,
        },
    ))
}
