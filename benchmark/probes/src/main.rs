//! Layer probes: time calls into the leaf crates' public functions on
//! data shaped like the benchmark workloads (500 GRIS subtrees of 10
//! providers, 1000 machine ads, 600 flows on one link).
//!
//! ```text
//! gridmon-benchmark-probes --seed N --min-ms M
//! ```
//!
//! Every probe is sampled five times, each sample at least M ms of
//! iterations, and reports the median.  One line per probe on stdout:
//! `name value unit offset_us dur_us`, the last two placing the probe on
//! the driver's trace.  The seed feeds the data generators only; inputs
//! reach the crates as text (LDIF, LDAP filters, SQL, ClassAds, scenario
//! TOML) wherever the crate has a text entry point, so a change of an
//! internal type does not break a probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

struct Probes {
    epoch: Instant,
    min: Duration,
    seed: u64,
}

impl Probes {
    /// Call `batch` (which returns how many operations it performed and
    /// how long they took) until `min` of timed work has passed, five
    /// times; print the median time per operation in `unit` (`ns` or
    /// `us`).
    fn probe_timed(&self, name: &str, unit: &str, mut batch: impl FnMut() -> (u64, Duration)) {
        let offset = self.epoch.elapsed();
        let mut per_op: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let (mut ops, mut spent) = (0u64, Duration::ZERO);
                while spent < self.min {
                    let (n, d) = batch();
                    ops += n;
                    spent += d;
                }
                spent.as_secs_f64() * 1e9 / ops.max(1) as f64
            })
            .collect();
        per_op.sort_by(f64::total_cmp);
        let ns = per_op[SAMPLES / 2];
        let value = if unit == "us" { ns / 1e3 } else { ns };
        println!(
            "{name} {value} {unit} {} {}",
            offset.as_micros(),
            (self.epoch.elapsed() - offset).as_micros()
        );
    }

    /// [`Probes::probe_timed`] for a batch that is timed as a whole.
    fn probe(&self, name: &str, unit: &str, mut batch: impl FnMut() -> u64) {
        self.probe_timed(name, unit, || {
            let t = Instant::now();
            let ops = batch();
            (ops, t.elapsed())
        });
    }

    fn rng(&self, salt: u64) -> Rng {
        Rng(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

fn main() {
    let mut seed = 20030622u64;
    let mut min_ms = 200u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{what} needs an integer")))
        };
        match a.as_str() {
            "--seed" => seed = value("--seed"),
            "--min-ms" => min_ms = value("--min-ms"),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let p = Probes {
        epoch: Instant::now(),
        min: Duration::from_millis(min_ms),
        seed,
    };
    simcore_probes(&p);
    simnet_probes(&p);
    ldapdir_probes(&p);
    relsql_probes(&p);
    classad_probes(&p);
    scenario_probe(&p);
    intern_probe(&p);
}

fn die(msg: &str) -> ! {
    eprintln!("gridmon-benchmark-probes: {msg}");
    std::process::exit(2);
}

/// `PsCpu` with `runnable` tasks in steady state: advance to the next
/// completion and submit a replacement for every task that finished.
/// Reported per task (one submit + its share of an advance).
fn simcore_probes(p: &Probes) {
    use simcore::{PsCpu, SimTime};
    for runnable in [4u64, 600] {
        let mut rng = p.rng(runnable);
        let mut cpu = PsCpu::new(2, 1.0);
        let mut now = SimTime(0);
        for token in 0..runnable {
            cpu.submit(now, rng.range(20_000, 80_000) as f64, token);
        }
        p.probe(&format!("simcore.pscpu_ns_r{runnable}"), "ns", || {
            let mut tasks = 0;
            for _ in 0..64 {
                now = cpu.next_completion(now).expect("tasks are runnable");
                for token in cpu.advance(now) {
                    cpu.submit(now, rng.range(20_000, 80_000) as f64, token);
                    tasks += 1;
                }
            }
            tasks
        });
        black_box(cpu.runnable());
    }
}

/// `FlowNet` with `flows` transfers sharing one link (set1 at x = 600 is
/// the 600-flow case): every start, abort and completion re-levels the
/// whole component.
fn simnet_probes(p: &Probes) {
    use simcore::{SimDuration, SimTime};
    use simnet::flow::FlowNet;
    use simnet::Topology;

    let mut topo = Topology::new();
    let a = topo.add_node("uc", 1, 1.0);
    let b = topo.add_node("lucky", 2, 1.0);
    let (link, _) = topo.connect(a, b, 100e6, SimDuration(100));
    let path = || vec![link];

    for flows in [10u64, 600] {
        let mut rng = p.rng(flows);
        let mut net = FlowNet::new();
        let now = SimTime(0);
        for token in 0..flows - 1 {
            net.start(&topo, now, path(), rng.range(2_000, 60_000), token);
        }
        // One more flow joins the others and leaves again: two re-levels.
        p.probe(&format!("simnet.flow_start_ns_f{flows}"), "ns", || {
            for _ in 0..16 {
                let key = net.start(&topo, now, path(), 30_000, flows);
                black_box(net.abort(&topo, key));
            }
            16
        });
    }

    let flows = 600u64;
    let mut rng = p.rng(601);
    let mut net = FlowNet::new();
    let mut now = SimTime(0);
    for token in 0..flows {
        net.start(&topo, now, path(), rng.range(2_000, 60_000), token);
    }
    // Advance to the next completion and restart whatever finished; per
    // completed flow.
    p.probe("simnet.flow_advance_ns_f600", "ns", || {
        let mut done = 0;
        for _ in 0..16 {
            now = net.next_completion(now).expect("flows are active");
            for token in net.advance(&topo, now) {
                net.start(&topo, now, path(), rng.range(2_000, 60_000), token);
                done += 1;
            }
        }
        done
    });
}

/// LDIF for the entries one GRIS with ten providers serves: a device
/// group per provider and two to four devices under each (what
/// `mds::provider::default_providers` generates, written as text).
fn gris_ldif(host: &str, rng: &mut Rng) -> String {
    const KINDS: [(&str, usize); 10] = [
        ("cpu", 3),
        ("memory", 2),
        ("filesystem", 4),
        ("os", 2),
        ("net", 3),
        ("platform", 2),
        ("queue", 3),
        ("software", 4),
        ("users", 2),
        ("bench", 2),
    ];
    let mut out = String::new();
    for (kind, devices) in KINDS {
        let group = format!("Mds-Device-Group-name={kind}, Mds-Host-hn={host}, o=grid");
        out.push_str(&format!(
            "dn: {group}\nobjectclass: MdsDeviceGroup\nMds-Device-Group-name: {kind}\n\n"
        ));
        for j in 0..devices {
            out.push_str(&format!(
                "dn: Mds-Device-name={kind}-dev{j}, {group}\nobjectclass: MdsDevice\n\
                 Mds-Device-name: {kind}-dev{j}\nMds-Host-hn: {host}\n\
                 Mds-validfrom: 2003-01-01 00:00:00\nMds-validto: 2003-01-01 00:00:30\n\
                 Mds-{kind}-metric: {}\nMds-keepto: 2003-01-01 00:00:30\n\n",
                rng.range(0, 1000)
            ));
        }
    }
    out
}

fn ldapdir_probes(p: &Probes) {
    use ldapdir::{parse_ldif, Dit, Dn, Filter, Scope};

    // The set4 "query part" filter: one device group out of every host.
    const FILTER: &str = "(mds-device-group-name=cpu)";
    let suffix = Dn::parse("o=grid").expect("literal DN");
    let mut rng = p.rng(7);
    let build = |hosts: usize, rng: &mut Rng| {
        let mut dit = Dit::new(suffix.clone());
        for h in 0..hosts {
            let ldif = gris_ldif(&format!("lucky{h}"), rng);
            for e in parse_ldif(&ldif).expect("generated LDIF parses") {
                dit.add_with_parents(e).expect("entry fits the suffix");
            }
        }
        dit
    };
    let filter = Filter::parse(FILTER).expect("literal filter");

    let dit50 = build(50, &mut rng);
    p.probe("ldapdir.search_us_n50", "us", || {
        assert_eq!(dit50.search(&suffix, Scope::Sub, &filter).len(), 50);
        1
    });
    let mut dit500 = build(500, &mut rng);
    p.probe("ldapdir.search_us_n500", "us", || {
        assert_eq!(dit500.search(&suffix, Scope::Sub, &filter).len(), 500);
        1
    });
    p.probe("ldapdir.filter_parse_ns", "ns", || {
        for _ in 0..64 {
            black_box(Filter::parse(black_box(FILTER)).expect("literal filter"));
        }
        64
    });
    // A GIIS refreshing one source: re-insert that GRIS's subtree into the
    // 500-host tree (bumps the DIT generation each time).  Per subtree.
    let refresh = parse_ldif(&gris_ldif("lucky250", &mut rng)).expect("generated LDIF parses");
    p.probe("ldapdir.upsert_us_n500", "us", || {
        for e in &refresh {
            dit500.upsert(e.clone()).expect("entry fits the suffix");
        }
        1
    });
    black_box(dit500.generation());
}

/// The R-GMA registry's table at 500 registered producers.
fn relsql_probes(p: &Probes) {
    use relsql::Database;

    let mut rng = p.rng(11);
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE producers (id INT PRIMARY KEY, servlet INT, tablename TEXT, predicate TEXT)",
    )
    .expect("schema");
    let insert = |db: &mut Database, id: u64, rng: &mut Rng| {
        db.execute(&format!(
            "INSERT INTO producers VALUES ({id}, {}, 'table{}', 'WHERE host = ''lucky{id}''')",
            rng.range(1, 50),
            id % 10
        ))
        .expect("insert");
    };
    for id in 0..500 {
        insert(&mut db, id, &mut rng);
    }

    p.probe("relsql.select_indexed_ns", "ns", || {
        for id in 0..64 {
            let sql = format!("SELECT servlet FROM producers WHERE id = {}", id * 7);
            assert_eq!(db.execute(&sql).expect("select").rows.len(), 1);
        }
        64
    });
    // The registry lookup: `tablename` has no index, so all 500 rows are
    // examined.
    p.probe("relsql.select_scan_us_r500", "us", || {
        let r = db
            .execute("SELECT id FROM producers WHERE tablename = 'table3'")
            .expect("select");
        assert_eq!(r.rows.len(), 50);
        1
    });
    // Producer churn: rows 500..628 come and go.  Each probe times one of
    // the two statements and undoes it untimed, so the table stays at 500
    // rows between batches.
    let delete = |db: &mut Database, id: u64| {
        db.execute(&format!("DELETE FROM producers WHERE id = {id}"))
            .expect("delete");
    };
    p.probe_timed("relsql.insert_ns", "ns", || {
        let t = Instant::now();
        for id in 500..628 {
            insert(&mut db, id, &mut rng);
        }
        let spent = t.elapsed();
        for id in 500..628 {
            delete(&mut db, id);
        }
        (128, spent)
    });
    p.probe_timed("relsql.delete_ns", "ns", || {
        for id in 500..628 {
            insert(&mut db, id, &mut rng);
        }
        let t = Instant::now();
        for id in 500..628 {
            delete(&mut db, id);
        }
        (128, t.elapsed())
    });
}

/// A Hawkeye Startd ad as text: four identity attributes and four per
/// module, eleven modules.
fn startd_ad(host: u64, rng: &mut Rng) -> String {
    const MODULES: [&str; 11] = [
        "cpu",
        "memory",
        "disk",
        "network",
        "processes",
        "users",
        "uptime",
        "swap",
        "filesystem",
        "condor",
        "os",
    ];
    let mut ad = format!(
        "Machine = \"lucky{host}.mcs.anl.gov\"\nOpSys = \"LINUX\"\nRequirements = TRUE\n\
         ModuleCount = {}\n",
        MODULES.len()
    );
    for (i, m) in MODULES.iter().enumerate() {
        ad.push_str(&format!(
            "Hawkeye_{m}_Name = \"{m}\"\nHawkeye_{m}_Metric = {}.5\n\
             Hawkeye_{m}_SampleSize = {}\nHawkeye_{m}_Host = \"lucky{host}\"\n",
            rng.range(0, 100),
            42 + i
        ));
    }
    ad
}

fn classad_probes(p: &Probes) {
    use classad::{matchmaker, parse_expr, ClassAd, CompiledExpr};

    let mut rng = p.rng(13);
    let text = startd_ad(7, &mut rng);
    p.probe("classad.parse_ns", "ns", || {
        black_box(ClassAd::parse(black_box(&text)).expect("generated ad parses"));
        1
    });

    let machine = ClassAd::parse(&text).expect("generated ad parses");
    let trigger = ClassAd::parse(
        "Requirements = TARGET.Hawkeye_cpu_Metric > 50 && TARGET.OpSys == \"LINUX\"\n",
    )
    .expect("literal ad");
    let machine_req = matchmaker::compile_requirements(&machine);
    let trigger_req = matchmaker::compile_requirements(&trigger);
    p.probe("classad.match_ns", "ns", || {
        for _ in 0..64 {
            black_box(matchmaker::symmetric_match_compiled(
                &trigger,
                trigger_req.as_ref(),
                &machine,
                machine_req.as_ref(),
            ));
        }
        64
    });

    // The Experiment-4 scan: one constraint no machine satisfies, over
    // the Manager's 1000 stored ads.
    let pool: Vec<ClassAd> = (0..1000)
        .map(|h| ClassAd::parse(&startd_ad(h, &mut rng)).expect("generated ad parses"))
        .collect();
    let constraint = CompiledExpr::compile(
        &parse_expr("Hawkeye_cpu_Metric > 1000 && OpSys == \"LINUX\"").expect("literal expr"),
    );
    p.probe("classad.scan_us_m1000", "us", || {
        let hits = pool
            .iter()
            .filter(|ad| matchmaker::matches_constraint_compiled(ad, &constraint))
            .count();
        assert_eq!(hits, 0);
        1
    });
}

fn scenario_probe(p: &Probes) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/federated_giis.toml"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    p.probe("scenario.parse_us", "us", || {
        let spec = gscenario::parse(black_box(&text)).expect("committed scenario parses");
        spec.validate().expect("committed scenario is valid");
        black_box(spec.fingerprint());
        1
    });
}

fn intern_probe(p: &Probes) {
    let names: Vec<String> = (0..64)
        .map(|i| format!("Mds-Device-Group-name-{i}"))
        .collect();
    for n in &names {
        gintern::intern(n);
    }
    p.probe("intern.hit_ns", "ns", || {
        for n in &names {
            black_box(gintern::intern(black_box(n)));
        }
        names.len() as u64
    });
}
