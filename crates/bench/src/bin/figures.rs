//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--profile paper|quick|bench] [--seed N] [--out DIR]
//!         [--jobs N] [--no-cache] [--only figN] [--faults PLAN]
//!         [--scenario FILE] [--trace SUBSTR] [--metrics] [--perf]
//!         [--list] [TARGET...]
//!
//! TARGET:  table1 | set1..set6 | fig5..fig28 | ext | all   (default: all)
//!
//! --jobs N    run sweep points on N worker threads (0 = all cores;
//!             default 0).  Output is byte-identical for every N.
//! --no-cache  ignore and do not write the result cache
//!             (DIR/.cache/); by default unchanged points are reused.
//! --only figN print/write only figure N of the sets that run (may be
//!             given several times; `figN` as a TARGET implies it).
//! --faults P  fault plan for the Set-5 resilience sweep:
//!             `SCENARIO[@START:HEAL]` with SCENARIO one of
//!             none|auto|churn|partition|freeze|connburst and
//!             START/HEAL fractions of the measurement window (default
//!             `auto@0.25:0.6`; `auto` picks each series' canonical
//!             scenario).  The number of faulted components is the
//!             sweep's x value.  Only set 5 injects faults; other sets
//!             ignore the flag.
//! --scenario F run a user-authored scenario spec (the declarative
//!             text format of `gridmon-scenario`, see
//!             examples/scenarios/) through the same runner, cache and
//!             pool as the built-in sets, and write
//!             `DIR/scenario-<name>.csv` with all four metrics per
//!             sweep point.  Repeatable; output is byte-identical for
//!             every --jobs value.  If the spec declares a `[faults]`
//!             section it runs under the --faults plan (default
//!             `auto@0.25:0.6`, where `auto` means the kind the spec
//!             declares); specs without one always run pristine.
//! --trace S   after the sweep, re-run every selected point whose id
//!             (`setN/<series>/x=<x>`, `ext/<study>/x=<x>`,
//!             `scenario/<name>/x=<x>`) contains the substring S with
//!             event tracing on, and write per-point Chrome-trace
//!             JSON (`DIR/trace/<point>.trace.json`, loadable in
//!             Perfetto / chrome://tracing and readable by
//!             `gridmon-inspect`).  Repeatable.
//! --metrics   also snapshot the metrics registry per point and write
//!             `DIR/trace/<point>.metrics.csv`.  Without --trace this
//!             covers every selected point.
//! --perf      write what the run cost as `DIR/perf.json` (schema
//!             gridmon-perf-v1): phase breakdown, per-point
//!             wall/sim/event records, cache traffic and pool
//!             utilization.  Render it with
//!             `gridmon-inspect --profile DIR`.  The records are kept
//!             either way; the flag only decides whether the file is
//!             written.
//! --list      print the catalogue — every figure with its title and
//!             every point key (`setN/<series>/x=<x>`,
//!             `ext/<study>/x=<x>`) the selected targets would run —
//!             and exit without running anything.
//!
//! Everything one invocation selects — sets, scenarios, `ext` — is
//! submitted to the runner as one job list, so idle workers backfill
//! across sets.
//!
//! `ext` runs the future-work extension studies (WAN sweep, hierarchy
//! vs flat aggregation, aggregate-vs-direct, open-loop arrivals,
//! composite producer) — catalogue rows like any figure series, at
//! their own fixed sizes whatever the profile — and writes
//! `DIR/extensions.txt`.
//! ```
//!
//! For every requested figure this prints the aligned data table and an
//! ASCII chart, and writes `DIR/figNN.csv` (default `results/`).
//! Observability never changes the figures: the traced re-run uses the
//! same seeds and produces bit-identical measurements (pinned by
//! `tests/parallel_figures.rs`), so the CSVs stand whatever is traced.

#![forbid(unsafe_code)]

use gbench::{figures_of_set, Profile};
use gfaults::{FaultSpec, Scenario};
use gridmon_core::figures::{
    self, assemble_set, enumerate_extensions, enumerate_set, set_of_figure, PointSpec,
};
use gridmon_core::mapping::render_table1;
use gridmon_core::report::{ascii_chart, csv, text_table};
use gridmon_core::runcfg::{Measurement, RunConfig};
use gridmon_core::scenario::{catalogue, point_seed, DEFAULT_FAULTS};
use gridmon_core::ObsMode;
use gridmon_runner::{Job, RunnerConfig};
use gtrace::{chrome_trace, metrics_csv, TraceMeta};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let mut profile = Profile::Paper;
    let mut seed = 20030622u64; // HPDC'03, Seattle
    let mut out_dir = PathBuf::from("results");
    let mut jobs = 0usize;
    let mut use_cache = true;
    let mut targets: Vec<String> = Vec::new();
    let mut only_figs: BTreeSet<u32> = BTreeSet::new();
    let mut trace_substrs: Vec<String> = Vec::new();
    let mut want_metrics = false;
    let mut want_perf = false;
    let mut want_list = false;
    let mut faults: Option<FaultSpec> = None;
    let mut scenario_files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--profile" => {
                profile = match args.next().as_deref() {
                    Some("paper") => Profile::Paper,
                    Some("quick") => Profile::Quick,
                    Some("bench") => Profile::Bench,
                    other => die(&format!("unknown profile {other:?}")),
                };
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a dir")));
            }
            "--jobs" | "-j" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer (0 = all cores)"));
            }
            "--no-cache" => use_cache = false,
            "--trace" => {
                trace_substrs.push(
                    args.next()
                        .unwrap_or_else(|| die("--trace needs a substring")),
                );
            }
            "--metrics" => want_metrics = true,
            "--perf" => want_perf = true,
            "--list" => want_list = true,
            "--faults" => {
                let plan = args.next().unwrap_or_else(|| die("--faults needs a plan"));
                faults = Some(parse_faults(&plan));
            }
            "--scenario" => {
                scenario_files.push(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--scenario needs a file")),
                ));
            }
            "--only" => {
                let f = args.next().unwrap_or_else(|| die("--only needs figN"));
                only_figs.insert(parse_fig(&f));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--profile paper|quick|bench] [--seed N] [--out DIR] \
                     [--jobs N] [--no-cache] [--only figN] [--faults PLAN] [--scenario FILE] \
                     [--trace SUBSTR] [--metrics] [--perf] [--list] \
                     [table1|setN|figN|ext|all]..."
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    // `figures --scenario FILE` alone runs just the scenario(s); the
    // built-in suite only defaults in when nothing at all was selected.
    if targets.is_empty() && scenario_files.is_empty() {
        targets.push("all".into());
    }

    // Resolve targets into: table1? + ext? + the sets to run.
    let mut want_ext = false;
    let mut want_table1 = false;
    let mut sets: BTreeSet<u32> = BTreeSet::new();
    for t in &targets {
        match t.as_str() {
            "all" => {
                want_table1 = true;
                sets.extend(catalogue::sets());
            }
            "table1" => want_table1 = true,
            "ext" => want_ext = true,
            s if s.starts_with("set") => {
                let n: u32 = s[3..]
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad target {s}")));
                if let Err(e) = figures::figures_of_set(n) {
                    die(&e.to_string());
                }
                sets.insert(n);
            }
            f if f.starts_with("fig") => {
                let n = parse_fig(f);
                sets.insert(set_of_figure(n).expect("parse_fig validated the range"));
                only_figs.insert(n);
            }
            other => die(&format!("unknown target {other:?}")),
        }
    }
    // `--only fig9` with no explicit set target also selects set 2.
    for &n in &only_figs {
        sets.insert(set_of_figure(n).expect("parse_fig validated the range"));
    }

    // One configuration for the whole invocation.  The requested (or
    // canonical) fault plan reaches only the points whose spec declares
    // `[faults]` — the Set-5 resilience sweep and authored scenarios that
    // opt in; every other point runs pristine whatever the flag says, so
    // fig05-fig20 stay byte-identical.
    let mut cfg = profile.run_config(seed);
    cfg.faults = faults.unwrap_or(DEFAULT_FAULTS);

    // Parse user-authored scenarios up front so a typo in the file dies
    // before any sweep has burned CPU (and so `--list` can show them).
    let scenarios: Vec<(String, gscenario::ScenarioSpec)> = scenario_files
        .iter()
        .map(|path| {
            let origin = path.display().to_string();
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{origin}: {e}")));
            let spec = gscenario::parse(&text).unwrap_or_else(|e| die(&format!("{origin}: {e}")));
            (origin, spec)
        })
        .collect();

    if want_list {
        list_catalogue(&sets, &only_figs, want_table1, want_ext, profile);
        for (_, spec) in &scenarios {
            for &x in &spec.x_values {
                println!("  scenario/{}/x={x}", spec.name);
            }
        }
        return;
    }

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let rc = RunnerConfig {
        jobs,
        cache_dir: use_cache.then(|| out_dir.join(".cache")),
        quiet: false,
    };

    if want_table1 {
        println!("Table 1: Component Mapping\n");
        println!("{}", render_table1());
        std::fs::write(out_dir.join("table1.txt"), render_table1()).expect("write table1");
    }

    // What every point of this invocation cost, across all its sweeps;
    // `--perf` writes it out as one perf.json at the end.
    let mut perf_sink = gperf::PerfSink::default();

    // Everything selected — sets, scenarios, extension studies — is one
    // job list, so idle workers backfill across sets while another set's
    // expensive tail points finish.
    let t_enumerate = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut set_specs: Vec<(u32, Vec<PointSpec>)> = Vec::new();
    for &set in &sets {
        let specs = enumerate_set(set, profile.scale()).unwrap_or_else(|e| die(&e.to_string()));
        jobs.extend(Job::points(&specs));
        set_specs.push((set, specs));
    }
    for (origin, spec) in &scenarios {
        jobs.extend(Job::scenario_sweep(spec).unwrap_or_else(|e| die(&format!("{origin}: {e}"))));
    }
    let ext_points = if want_ext {
        enumerate_extensions()
    } else {
        Vec::new()
    };
    jobs.extend(Job::points(&ext_points));
    perf_sink.phases.add("enumerate", t_enumerate.elapsed());

    if !jobs.is_empty() {
        eprintln!(
            "== running {} points ({profile:?}, jobs={}) ==",
            jobs.len(),
            if rc.jobs == 0 {
                "auto".to_string()
            } else {
                rc.jobs.to_string()
            }
        );
        let t_run = Instant::now();
        let outputs = gridmon_runner::run(&jobs, &cfg, &rc, &mut perf_sink);
        let tally = perf_sink.totals();
        eprintln!(
            "== done in {:.1?} ({} points: {} executed, {} cached) ==",
            t_run.elapsed(),
            jobs.len(),
            tally.executed,
            tally.cached
        );

        // Outputs come back in job order: hand each section its slice.
        let mut cursor = outputs.iter();
        let mut measurements =
            |n: usize| -> Vec<Measurement> { cursor.by_ref().take(n).map(|o| o.m).collect() };
        for (set, specs) in &set_specs {
            let results = measurements(specs.len());
            let t_assemble = Instant::now();
            let data = assemble_set(*set, specs, &results);
            perf_sink.phases.add("assemble", t_assemble.elapsed());
            for fig in figures_of_set(&data).unwrap_or_else(|e| die(&e.to_string())) {
                let n = fig.number;
                if !only_figs.is_empty() && !only_figs.contains(&n) {
                    continue;
                }
                println!("{}", text_table(&fig));
                println!("{}", ascii_chart(&fig, 64, 16));
                let path = out_dir.join(format!("fig{n:02}.csv"));
                std::fs::write(&path, csv(&fig)).expect("write csv");
                eprintln!("wrote {}", path.display());
            }
        }
        for (_, spec) in &scenarios {
            write_scenario(spec, &measurements(spec.x_values.len()), &out_dir);
        }
        if want_ext {
            let results = measurements(ext_points.len());
            write_extensions(&ext_points, &results, &cfg, &out_dir);
        }
    }

    if !trace_substrs.is_empty() || want_metrics {
        let mut observed = jobs;
        if observed.is_empty() {
            die("--trace/--metrics need at least one set, figure, ext or scenario target");
        }
        if !trace_substrs.is_empty() {
            observed.retain(|j| trace_substrs.iter().any(|t| j.key().contains(t.as_str())));
            if observed.is_empty() {
                die("--trace matched no point id; ids look like \"set1/MDS GRIS (cache)/x=10\"");
            }
        }
        cfg.obs = ObsMode {
            trace: !trace_substrs.is_empty(),
            metrics: want_metrics,
        };
        run_observability(&observed, &cfg, &rc, &out_dir, &mut perf_sink);
    }

    if want_perf {
        let path = out_dir.join("perf.json");
        std::fs::write(&path, gperf::report::perf_json(&perf_sink)).expect("write perf.json");
        eprintln!("wrote {}", path.display());
    }
}

/// `--list`: the catalogue of what the selected targets cover — figure
/// numbers with their titles, then every point key the sweep would run
/// (`setN/<series>/x=<x>`, `ext/<study>/x=<x>`: the ids `--trace`
/// matches against).
fn list_catalogue(
    sets: &BTreeSet<u32>,
    only_figs: &BTreeSet<u32>,
    want_table1: bool,
    want_ext: bool,
    profile: Profile,
) {
    // Writes go through one handle with errors ignored: `--list | head`
    // must not die of a broken pipe.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if want_table1 {
        let _ = writeln!(out, "table1  Component Mapping");
    }
    if want_ext {
        let _ = writeln!(out, "ext     Future-work extension studies");
        for point in enumerate_extensions() {
            let _ = writeln!(out, "  {}", point.key());
        }
    }
    for &set in sets {
        for fig in figures::figures_of_set(set).unwrap_or_else(|e| die(&e.to_string())) {
            if !only_figs.is_empty() && !only_figs.contains(&fig) {
                continue;
            }
            let title = figures::figure_title(fig).expect("figures_of_set yields known figures");
            let _ = writeln!(out, "fig{fig:02}   {title}");
        }
        for spec in enumerate_set(set, profile.scale()).unwrap_or_else(|e| die(&e.to_string())) {
            let _ = writeln!(out, "  {}", spec.key());
        }
    }
}

/// Print one user-authored scenario's sweep and write
/// `DIR/scenario-<name>.csv` with all the measured metrics per point.
/// Points are in `x_values` order whatever `--jobs` is, so the CSV is
/// byte-identical for every worker count.
fn write_scenario(spec: &gscenario::ScenarioSpec, data: &[Measurement], out_dir: &Path) {
    let mut table = format!(
        "Scenario: {} (fingerprint {})\n",
        spec.name,
        spec.fingerprint()
    );
    table.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>8} {:>8} {:>8} {:>12} {:>12}\n",
        "x", "throughput", "resp (s)", "load1", "cpu %", "avail", "stale (s)", "recov (s)"
    ));
    let mut csv = String::from(
        "x,throughput,response_s,load1,cpu_pct,availability,staleness_s,recovery_s,\
         completions,refused\n",
    );
    for m in data {
        table.push_str(&format!(
            "{:>8.0} {:>12.2} {:>12.3} {:>8.2} {:>8.1} {:>8.3} {:>12.3} {:>12.3}\n",
            m.x,
            m.throughput,
            m.response_time,
            m.load1,
            m.cpu_load,
            m.availability,
            m.staleness_s,
            m.recovery_s
        ));
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            m.x,
            m.throughput,
            m.response_time,
            m.load1,
            m.cpu_load,
            m.availability,
            m.staleness_s,
            m.recovery_s,
            m.completions,
            m.refused
        ));
    }
    println!("{table}");
    let path = out_dir.join(format!("scenario-{}.csv", slug(&spec.name)));
    std::fs::write(&path, csv).expect("write scenario csv");
    eprintln!("wrote {}", path.display());
}

/// Parse the `--faults` plan: `SCENARIO[@START:HEAL]`, fractions of the
/// measurement window.  The faulted-component count is not part of the
/// plan — the Set-5 sweep faults each point's x components.
fn parse_faults(plan: &str) -> FaultSpec {
    let (name, fracs) = match plan.split_once('@') {
        Some((n, f)) => (n, Some(f)),
        None => (plan, None),
    };
    let scenario = Scenario::parse(name).unwrap_or_else(|| {
        die(&format!(
            "unknown fault scenario {name:?} (none|auto|churn|partition|freeze|connburst)"
        ))
    });
    if scenario == Scenario::None {
        return FaultSpec::NONE;
    }
    let mut spec = DEFAULT_FAULTS;
    spec.scenario = scenario;
    if let Some(fracs) = fracs {
        let (s, h) = fracs
            .split_once(':')
            .unwrap_or_else(|| die("--faults fractions look like START:HEAL, e.g. 0.25:0.6"));
        spec.start_frac = parse_frac(s);
        spec.heal_frac = parse_frac(h);
        if spec.heal_frac <= spec.start_frac {
            die("--faults HEAL must come after START");
        }
    }
    spec
}

fn parse_frac(s: &str) -> f64 {
    let v: f64 = s
        .parse()
        .unwrap_or_else(|_| die(&format!("bad window fraction {s:?}")));
    if !(0.0..=1.0).contains(&v) {
        die(&format!("window fraction {v} outside 0..=1"));
    }
    v
}

/// The observability pass: re-run `jobs` under `cfg.obs` and export the
/// artifacts under `DIR/trace/`.  Points are re-executed (never served
/// from the result cache) because events and metric streams are not part
/// of the cached measurement; the measurements themselves still come out
/// bit-identical.
fn run_observability(
    jobs: &[Job],
    cfg: &RunConfig,
    rc: &RunnerConfig,
    out_dir: &Path,
    perf_sink: &mut gperf::PerfSink,
) {
    let obs_dir = out_dir.join("trace");
    std::fs::create_dir_all(&obs_dir).expect("create trace dir");
    eprintln!(
        "== observability pass: {} point(s), {} ==",
        jobs.len(),
        cfg.obs.fingerprint()
    );
    let outputs = gridmon_runner::run(jobs, cfg, rc, perf_sink);

    for (job, out) in jobs.iter().zip(&outputs) {
        let obs = out
            .obs
            .as_deref()
            .expect("cfg.obs is on: every output carries its harvest");
        let key = job.key().to_string();
        let slug = slug(&key);
        if cfg.obs.trace {
            let meta = TraceMeta {
                seed: point_seed(cfg.seed, &key),
                key,
                x: out.m.x,
                window_start: cfg.window_start(),
                window_end: cfg.window_end(),
                mean_response_time_us: out.m.response_time * 1e6,
                completions: out.m.completions,
                refused: out.m.refused,
                services: obs.services.clone(),
                nodes: obs.nodes.clone(),
            };
            let path = obs_dir.join(format!("{slug}.trace.json"));
            std::fs::write(
                &path,
                chrome_trace(&meta, &obs.report.events, obs.report.dropped),
            )
            .expect("write chrome trace");
            eprintln!("wrote {}", path.display());
        }
        if cfg.obs.metrics {
            let path = obs_dir.join(format!("{slug}.metrics.csv"));
            std::fs::write(&path, metrics_csv(&obs.report.metrics)).expect("write metrics csv");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Filesystem-safe name for a point id: runs of non-`[a-z0-9.=]`
/// characters collapse to one `-`.
fn slug(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    let mut dash = false;
    for c in key.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '=' {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

fn parse_fig(arg: &str) -> u32 {
    let n: u32 = arg
        .trim_start_matches("fig")
        .parse()
        .unwrap_or_else(|_| die(&format!("bad figure {arg:?} (expected figN)")));
    if set_of_figure(n).is_none() {
        die(&figures::FigureError::UnknownFigure(n).to_string());
    }
    n
}

/// Render the extension studies' results (parallel to `points`, in
/// catalogue order) as `DIR/extensions.txt`, one table per study.
fn write_extensions(
    points: &[PointSpec],
    results: &[Measurement],
    cfg: &RunConfig,
    out_dir: &Path,
) {
    // The rows of one study: those whose label starts with `prefix`.
    let study = |prefix: &'static str| {
        points
            .iter()
            .zip(results)
            .filter(move |(p, _)| p.series.label.starts_with(prefix))
    };
    let mut out = String::new();

    out.push_str("Extension 1: directory server (GIIS, 100 users) across WAN qualities\n");
    out.push_str(&format!(
        "{:<30} {:>10} {:>12} {:>12} {:>8} {:>8}\n",
        "link", "mbps", "throughput", "resp (s)", "load1", "cpu %"
    ));
    for (p, m) in study("wan/") {
        let wan = (p.series.spec)().wan.expect("WAN rows override the link");
        out.push_str(&format!(
            "{:<30} {:>10} {:>12.2} {:>12.3} {:>8.2} {:>8.1}\n",
            &p.series.label["wan/".len()..],
            wan.mbps,
            m.throughput,
            m.response_time,
            m.load1,
            m.cpu_load
        ));
    }

    out.push_str("\nExtension 2: flat vs hierarchical GIIS aggregation (120 GRIS, 10 users)\n");
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>8} {:>8}\n",
        "architecture", "throughput", "resp (s)", "load1", "cpu %"
    ));
    for ((_, m), label) in study("hier-").zip(["flat (1 GIIS)", "2-level (5 branches)"]) {
        out.push_str(&format!(
            "{:<24} {:>12.2} {:>12.3} {:>8.2} {:>8.1}\n",
            label, m.throughput, m.response_time, m.load1, m.cpu_load
        ));
    }

    out.push_str("\nExtension 3: same information, direct GRIS vs via the GIIS (50 users)\n");
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>14}\n",
        "path", "throughput", "resp (s)", "cpu%/query"
    ));
    for ((_, m), label) in study("agg-").zip(["direct (GRIS, GSI)", "aggregate (GIIS)"]) {
        out.push_str(&format!(
            "{:<24} {:>12.2} {:>12.3} {:>14.3}\n",
            label,
            m.throughput,
            m.response_time,
            m.cpu_load / m.throughput.max(1e-9)
        ));
    }

    out.push_str("\nExtension 4: Poisson open-loop arrivals at the ProducerServlet\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12}\n",
        "offered/s", "completed/s", "lost/s", "resp (s)"
    ));
    // An open-loop source never retries: every refused arrival is lost.
    let window_s = cfg.window.as_secs_f64();
    for (_, m) in study("open-loop") {
        out.push_str(&format!(
            "{:<12.1} {:>12.2} {:>12.2} {:>12.3}\n",
            m.x,
            m.throughput,
            m.refused as f64 / window_s,
            m.response_time
        ));
    }

    out.push_str("\nExtension 5: R-GMA composite Consumer/Producer (10 users, *ALL* query)\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>8} {:>8}\n",
        "sources", "throughput", "resp (s)", "load1", "cpu %"
    ));
    for (p, m) in study("composite") {
        out.push_str(&format!(
            "{:<12} {:>12.2} {:>12.3} {:>8.2} {:>8.1}\n",
            p.x, m.throughput, m.response_time, m.load1, m.cpu_load
        ));
    }

    println!("{out}");
    std::fs::write(out_dir.join("extensions.txt"), out).expect("write extensions");
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}
