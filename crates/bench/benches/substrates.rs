//! Micro-benchmarks of the substrate crates: the hot paths of the
//! simulation (event calendar, CPU model, fair-share recomputation) and
//! of the protocol engines (ClassAd evaluation, LDAP search, SQL
//! execution).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_engine_event_churn(c: &mut Criterion) {
    use simcore::{Engine, SimDuration, SimTime, World};
    struct W {
        count: u64,
    }
    impl World for W {
        type Event = ();
        fn handle(&mut self, eng: &mut Engine<W>, (): ()) {
            self.count += 1;
            if self.count < 10_000 {
                eng.schedule_in(SimDuration(10), ());
            }
        }
    }
    c.bench_function("simcore/engine_10k_events", |b| {
        b.iter(|| {
            let mut eng: Engine<W> = Engine::new(1);
            let mut w = W { count: 0 };
            eng.schedule_at(SimTime(0), ());
            eng.run_to_completion(&mut w);
            criterion::black_box(w.count)
        })
    });
}

fn bench_ps_cpu(c: &mut Criterion) {
    use simcore::{PsCpu, SimTime};
    c.bench_function("simcore/ps_cpu_1k_tasks", |b| {
        b.iter(|| {
            let mut cpu = PsCpu::new(2, 1.0);
            let mut now = SimTime(0);
            let mut done = 0usize;
            for i in 0..1_000u64 {
                cpu.submit(now, 500.0, i);
                if let Some(next) = cpu.next_completion(now) {
                    now = next;
                    done += cpu.advance(now).len();
                }
            }
            while let Some(next) = cpu.next_completion(now) {
                now = next;
                done += cpu.advance(now).len();
            }
            criterion::black_box(done)
        })
    });
}

fn bench_classad(c: &mut Criterion) {
    use classad::{eval, matchmaker, parse_expr, ClassAd};
    let machine = ClassAd::parse(
        "Machine = \"lucky4\"\nOpSys = \"LINUX\"\nCpuLoad = 62.5\n\
         Memory = 512\nRequirements = TRUE\nRank = Memory / 64\n",
    )
    .unwrap();
    let expr = parse_expr("CpuLoad > 50 && OpSys == \"LINUX\" && Memory >= 256").unwrap();
    c.bench_function("classad/parse_expr", |b| {
        b.iter(|| parse_expr("TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"").unwrap())
    });
    c.bench_function("classad/eval_constraint", |b| {
        b.iter(|| criterion::black_box(eval(&expr, &machine, None)))
    });
    let trigger = ClassAd::parse("Requirements = TARGET.CpuLoad > 50\n").unwrap();
    c.bench_function("classad/symmetric_match", |b| {
        b.iter(|| criterion::black_box(matchmaker::symmetric_match(&trigger, &machine)))
    });
    // Wire accounting of the 48-attribute Startd ad (4 identity
    // attributes + 4 per module, 11 modules) every Hawkeye reply and
    // advertisement is charged for.  Warm reads the ad's memo; first
    // touch re-sets one attribute to the value it has, which forgets the
    // memo, so the ad is rendered again.
    let agent = hawkeye::Agent::new("lucky4", hawkeye::default_modules("lucky4", 11));
    let mut startd = ClassAd::clone(agent.startd_ad());
    c.bench_function("classad/startd_wire_size", |b| {
        b.iter(|| criterion::black_box(startd.wire_size()))
    });
    c.bench_function("classad/startd_wire_size_first_touch", |b| {
        b.iter(|| {
            startd.set_bool("Requirements", true);
            criterion::black_box(startd.wire_size())
        })
    });
}

fn bench_ldap(c: &mut Criterion) {
    use ldapdir::{Dit, Dn, Entry, Filter, Scope};
    let suffix = Dn::parse("o=grid").unwrap();
    let mut dit = Dit::new(suffix.clone());
    for i in 0..500 {
        let dn = suffix.child("host", &format!("h{i}"));
        let mut e = Entry::new(dn);
        e.add("objectclass", "MdsHost")
            .add("mds-cpu-total", format!("{}", i % 8))
            .add("mds-memory-mb", format!("{}", 128 * (i % 16)));
        dit.add(e).unwrap();
    }
    let filter = Filter::parse("(&(objectclass=mdshost)(mds-cpu-total>=4))").unwrap();
    c.bench_function("ldap/filter_parse", |b| {
        b.iter(|| Filter::parse("(&(objectclass=mdshost)(mds-cpu-total>=4))").unwrap())
    });
    c.bench_function("ldap/sub_search_500", |b| {
        b.iter(|| criterion::black_box(dit.search(&suffix, Scope::Sub, &filter).len()))
    });
}

fn bench_relsql(c: &mut Criterion) {
    use relsql::{Database, SqlValue};
    c.bench_function("relsql/insert_500", |b| {
        b.iter(|| {
            let mut db = Database::new();
            db.execute("CREATE TABLE m (id INT PRIMARY KEY, v REAL)")
                .unwrap();
            for i in 0..500 {
                db.execute(&format!("INSERT INTO m VALUES ({i}, {}.5)", i % 97))
                    .unwrap();
            }
            criterion::black_box(db)
        })
    });
    let mut db = Database::new();
    db.execute("CREATE TABLE m (id INT PRIMARY KEY, v REAL)")
        .unwrap();
    for i in 0..500 {
        db.execute(&format!("INSERT INTO m VALUES ({i}, {}.5)", i % 97))
            .unwrap();
    }
    c.bench_function("relsql/indexed_point_query", |b| {
        b.iter(|| criterion::black_box(db.execute("SELECT v FROM m WHERE id = 250").unwrap()))
    });
    c.bench_function("relsql/scan_with_order_by", |b| {
        b.iter(|| {
            criterion::black_box(
                db.execute("SELECT id FROM m WHERE v >= 50 ORDER BY v DESC LIMIT 10")
                    .unwrap(),
            )
        })
    });
    // Wire accounting of a 100-tuple R-GMA reply (entity, value, seq).
    // Warm sums the rows' memos, which is what every reply after a
    // row's first pays; first touch renders every cell, which is what
    // measuring a row nobody has measured pays.
    let mut db = Database::new();
    db.execute("CREATE TABLE cpuload (entity TEXT PRIMARY KEY, value REAL, seq INT)")
        .unwrap();
    for e in 0..100 {
        db.execute(&format!(
            "INSERT INTO cpuload VALUES ('e{e}', {}.{}, {})",
            e % 97,
            e % 10,
            1000 + e
        ))
        .unwrap();
    }
    let reply = db.execute("SELECT * FROM cpuload").unwrap();
    c.bench_function("relsql/result_wire_size_100rows", |b| {
        b.iter(|| criterion::black_box(reply.wire_size()))
    });
    c.bench_function("relsql/result_wire_size_100rows_first_touch", |b| {
        b.iter(|| {
            criterion::black_box(
                reply
                    .rows
                    .iter()
                    .flat_map(|r| r.iter())
                    .map(SqlValue::wire_size)
                    .sum::<u64>(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_engine_event_churn,
    bench_ps_cpu,
    bench_classad,
    bench_ldap,
    bench_relsql
);
criterion_main!(benches);
