//! Every kept answer against a fresh service given the same updates.
//!
//! Five services keep answers in a [`simnet::Kept`]: the GRIS (stamped
//! with its directory's generation), the Hawkeye Manager's constraint
//! scan (the pool generation), the R-GMA Registry (its registration
//! count), the ProducerServlet (cleared before each publish) and the
//! ConsumerServlet (a mediation depends on its text alone).  Each is
//! replayed through a seeded random interleaving of queries and the
//! updates that change its answers.  After every query the same query is
//! put to a fresh service given only the updates so far, and the two
//! must do the same: CPU steps, sends, reply bytes and payload content,
//! and the movement of the public counters and of every metric.
//!
//! Every payload the kept service sends is watched through a `Weak`.
//! Once the test has dropped its clones only the service holds them,
//! and the keys whose payloads are alive must never exceed [`KEPT_CAP`].
//! Before each publish the rows a ProducerServlet query sees are watched
//! too, and none the publish replaced may survive it.

use classad::ClassAd;
use hawkeye::proto::AdsReply;
use hawkeye::{HawkeyeMsg, Manager};
use ldapdir::{Dn, Filter, Scope};
use mds::{default_providers, Gris, MdsRequest, MdsSearchResult};
use proptest::prelude::*;
use rgma::producer::default_producers;
use rgma::{ConsumerServlet, ProducerList, ProducerServlet, Registry, RgmaMsg, SqlResultMsg};
use simcore::{SimDuration, SimRng, SimTime};
use simnet::service::Lent;
use simnet::{CallOutcome, Obs, ObsMode, Payload, Plan, Service, Step, SvcCx, SvcKey, KEPT_CAP};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

/// Steps per replay.
const STEPS: usize = 80;

/// Every payload a service sent, watched.
type Watch = Vec<Weak<dyn Any>>;

/// A service driven outside a `Net`: messages in, plans out.
struct Bare<S> {
    svc: S,
    rng: SimRng,
    obs: Obs,
    lent: Lent,
}

impl<S: Service> Bare<S> {
    fn new(svc: S) -> Bare<S> {
        Bare {
            svc,
            rng: SimRng::new(1),
            obs: Obs::from_mode(ObsMode {
                trace: false,
                metrics: true,
            }),
            lent: Lent::default(),
        }
    }

    fn with<T>(&mut self, f: impl FnOnce(&mut S, &mut SvcCx) -> T) -> T {
        let mut cx = SvcCx::for_tests(
            SimTime::ZERO,
            SvcKey::NULL,
            &mut self.rng,
            &mut self.obs,
            &mut self.lent,
        );
        f(&mut self.svc, &mut cx)
    }

    fn handle(&mut self, msg: Payload) -> Plan {
        self.with(|svc, cx| svc.handle(msg, cx))
    }

    /// The counters `public` reads and every metric's total.
    fn tally(&self, public: fn(&S) -> Vec<(&'static str, u64)>) -> BTreeMap<String, f64> {
        let mut tally: BTreeMap<String, f64> = public(&self.svc)
            .into_iter()
            .map(|(name, n)| (name.to_string(), n as f64))
            .collect();
        for row in self.obs.metrics.snapshot(SimTime::ZERO) {
            tally.insert(row.name, row.total);
        }
        tally
    }
}

/// One step of a replay.
enum Draw<U> {
    /// Ask the query of key `.0`; `.1` is its message.
    Ask(usize, Payload),
    Update(U),
}

/// A service that keeps answers, and how to drive it.
struct Subject<S, U> {
    fresh: fn() -> S,
    apply: fn(&mut Bare<S>, &U),
    counters: fn(&S) -> Vec<(&'static str, u64)>,
    /// Put a query to the service; everything it does about it, with
    /// every payload it sends watched.
    ask: fn(&mut Bare<S>, Payload, &mut Watch) -> Vec<String>,
}

fn replay<S: Service, U>(
    subject: &Subject<S, U>,
    seed: u64,
    mut draw: impl FnMut(&mut SimRng) -> Draw<U>,
) {
    let mut rng = SimRng::new(seed);
    let mut kept = Bare::new((subject.fresh)());
    let mut updates = Vec::new();
    let mut watched: Vec<(usize, Weak<dyn Any>)> = Vec::new();
    let ask = |b: &mut Bare<S>, query: Payload, sent: &mut Vec<_>| {
        let before = b.tally(subject.counters);
        let seen = (subject.ask)(b, query, sent);
        let moved: Vec<(String, f64)> = b
            .tally(subject.counters)
            .into_iter()
            .map(|(name, n)| {
                let was = before.get(&name).copied().unwrap_or(0.0);
                (name, n - was)
            })
            .collect();
        (seen, moved)
    };
    for step in 0..STEPS {
        match draw(&mut rng) {
            Draw::Update(u) => {
                (subject.apply)(&mut kept, &u);
                updates.push(u);
            }
            Draw::Ask(key, query) => {
                let mut sent = Vec::new();
                let got = ask(&mut kept, Rc::clone(&query), &mut sent);
                let mut fresh = Bare::new((subject.fresh)());
                for u in &updates {
                    (subject.apply)(&mut fresh, u);
                }
                let want = ask(&mut fresh, query, &mut Vec::new());
                assert_eq!(
                    got,
                    want,
                    "seed {seed}, step {step}: key {key} after {} updates",
                    updates.len()
                );
                watched.extend(sent.into_iter().map(|w| (key, w)));
            }
        }
        watched.retain(|(_, w)| w.strong_count() > 0);
        let alive: BTreeSet<usize> = watched.iter().map(|&(key, _)| key).collect();
        assert!(
            alive.len() <= KEPT_CAP,
            "seed {seed}, step {step}: answers to {} keys alive",
            alive.len()
        );
    }
}

/// A payload's whole content.
fn say(p: &Payload) -> String {
    if let Some(r) = p.downcast_ref::<MdsSearchResult>() {
        return format!("{} of {}: {:?}", r.entries.len(), r.total, r.entries);
    }
    if let Some(r) = p.downcast_ref::<AdsReply>() {
        let ads: Vec<String> = r.ads.iter().map(|ad| ad.to_string()).collect();
        return format!("ads {ads:?}");
    }
    if let Some(r) = p.downcast_ref::<ProducerList>() {
        return format!("producers {:?}", r.producers);
    }
    if let Some(r) = p.downcast_ref::<SqlResultMsg>() {
        return format!("columns {:?} rows {:?}", r.columns, r.rows);
    }
    match p.downcast_ref::<RgmaMsg>() {
        Some(RgmaMsg::RegistryLookup { table }) => format!("lookup {table}"),
        Some(RgmaMsg::ProducerQuery { sql }) => format!("query {sql}"),
        _ => panic!("unexpected payload"),
    }
}

/// What a plan does, a line per step, with every payload it sends
/// watched; and the continuation and the calls it waits for, if any.
fn render(plan: Plan, watch: &mut Watch) -> (Vec<String>, Option<(u64, Vec<Payload>)>) {
    let mut lines = Vec::new();
    let mut next = None;
    for step in plan.steps {
        match step {
            Step::CallAll { calls, cont } => {
                let mut waits = Vec::new();
                for call in calls {
                    let (to, bytes) = (call.to, call.req_bytes);
                    lines.push(format!("call {} to {to:?}, {bytes}B", say(&call.payload)));
                    watch.push(Rc::downgrade(&call.payload));
                    waits.push(call.payload);
                }
                next = Some((cont, waits));
            }
            Step::Reply { payload, bytes } => {
                lines.push(format!("reply {}, {bytes}B", say(&payload)));
                watch.push(Rc::downgrade(&payload));
            }
            Step::Send { .. } => panic!("no service here sends one-way on a query"),
            other => lines.push(format!("{other:?}")),
        }
    }
    (lines, next)
}

/// Put `query` to a service that answers in one plan.
fn ask_once<S: Service>(b: &mut Bare<S>, query: Payload, watch: &mut Watch) -> Vec<String> {
    let (lines, next) = render(b.handle(query), watch);
    assert!(next.is_none(), "a one-stage query waits for nothing");
    lines
}

/// `keys[k]` as the query of key `k`: half the time the `Rc` users
/// share, half the time an equal message built afresh.
fn pick<T: 'static, U>(rng: &mut SimRng, keys: &[Rc<T>], build: impl Fn(&T) -> T) -> Draw<U> {
    let k = rng.next_below(keys.len() as u64) as usize;
    let query: Payload = if rng.next_below(2) == 0 {
        Rc::clone(&keys[k]) as Payload
    } else {
        Rc::new(build(&keys[k]))
    };
    Draw::Ask(k, query)
}

fn gris_suffix() -> Dn {
    Dn::parse("mds-vo-name=local, o=grid").unwrap()
}

/// The GRIS: providers that re-run on every query ("data never in
/// cache"), whose entries the updates change; the directory generation
/// moves only when a re-run changed what it upserts.
fn gris(seed: u64) {
    let subject = Subject {
        fresh: || {
            let providers =
                default_providers(&gris_suffix(), "lucky7", 10, Some(SimDuration::ZERO));
            Gris::new(gris_suffix(), providers)
        },
        // (provider, entry, load): what that entry reports from the next
        // run on.
        apply: |b, &(i, j, load): &(usize, usize, u64)| {
            let entries = &mut b.svc.provider_mut(i).entries;
            let n = entries.len();
            entries[j % n].put("Mds-Device-load", load.to_string());
        },
        counters: |g| vec![("queries", g.queries), ("provider_runs", g.provider_runs)],
        ask: ask_once,
    };
    let search = |filter: &str, scope, attrs: Option<&[&str]>| {
        Rc::new(MdsRequest::Search {
            base: gris_suffix(),
            scope,
            filter: Filter::parse(filter).unwrap(),
            attrs: attrs.map(|a| a.iter().map(|s| s.to_string()).collect()),
        })
    };
    let kinds = [
        "cpu",
        "memory",
        "filesystem",
        "os",
        "net",
        "platform",
        "queue",
        "software",
    ];
    let mut keys = vec![Rc::new(MdsRequest::search_all(gris_suffix()))];
    keys.extend(kinds.map(|k| search(&format!("(Mds-{k}-metric=*)"), Scope::Sub, None)));
    keys.extend((0..3).map(|n| search(&format!("(Mds-Device-load={n})"), Scope::Sub, None)));
    keys.extend([
        search(
            "(Mds-Device-load=*)",
            Scope::Sub,
            Some(&["Mds-Device-load"]),
        ),
        search(
            "(objectclass=MdsDevice)",
            Scope::Sub,
            Some(&["Mds-Device-name"]),
        ),
        search("(!(Mds-Device-load=1))", Scope::Sub, None),
        search("(|(Mds-cpu-metric=*)(Mds-Device-load=2))", Scope::Sub, None),
        search(
            "(&(objectclass=MdsDevice)(Mds-Host-hn=lucky7))",
            Scope::Sub,
            None,
        ),
        search("(objectclass=*)", Scope::Base, None),
        search("(objectclass=*)", Scope::One, None),
        search(
            "(objectclass=MdsDeviceGroup)",
            Scope::Sub,
            Some(&["objectclass"]),
        ),
    ]);
    assert!(keys.len() > KEPT_CAP);
    replay(&subject, seed, |rng| {
        if rng.next_below(3) == 0 {
            let i = rng.next_below(10) as usize;
            Draw::Update((i, rng.next_below(5) as usize, rng.next_below(3)))
        } else {
            pick(rng, &keys, MdsRequest::clone)
        }
    });
}

fn startd(machine: usize, modules: u64) -> ClassAd {
    let src = format!(
        "Machine = \"m{machine}\"\nModuleCount = {modules}\nRequirements = TARGET.Load > 1\n"
    );
    ClassAd::parse(&src).unwrap()
}

/// The Hawkeye Manager: Startd ads re-sent unchanged (the same `Rc` or
/// an equal ad built afresh) or changed, and constraint scans.
fn manager(seed: u64) {
    let subject = Subject {
        fresh: Manager::new,
        apply: |b, (machine, ad): &(String, Rc<ClassAd>)| {
            let msg = HawkeyeMsg::StartdAd {
                machine: machine.clone(),
                ad: Rc::clone(ad),
            };
            b.handle(Rc::new(msg));
        },
        counters: |m| vec![("queries", m.queries), ("ads_received", m.ads_received)],
        ask: ask_once,
    };
    let ads: Vec<Vec<Rc<ClassAd>>> = (0..6)
        .map(|m| (0..4).map(|v| Rc::new(startd(m, v))).collect())
        .collect();
    let constraint = |expr: String| Rc::new(HawkeyeMsg::Constraint { expr });
    let mut keys: Vec<_> = (0..7)
        .map(|k| constraint(format!("ModuleCount == {k}")))
        .collect();
    keys.extend((0..7).map(|k| constraint(format!("ModuleCount >= {k}"))));
    keys.extend((0..6).map(|m| constraint(format!("Machine == \"m{m}\""))));
    replay(&subject, seed, |rng| {
        if rng.next_below(3) == 0 {
            let (m, v) = (rng.next_below(6) as usize, rng.next_below(4));
            let ad = match rng.next_below(2) {
                0 => Rc::clone(&ads[m][v as usize]),
                _ => Rc::new(startd(m, v)),
            };
            Draw::Update((format!("m{m}"), ad))
        } else {
            let rebuild = |msg: &HawkeyeMsg| match msg {
                HawkeyeMsg::Constraint { expr } => HawkeyeMsg::Constraint { expr: expr.clone() },
                _ => unreachable!(),
            };
            pick(rng, &keys, rebuild)
        }
    });
}

fn lookup(table: &str) -> RgmaMsg {
    RgmaMsg::RegistryLookup {
        table: table.into(),
    }
}

fn rebuild_rgma(msg: &RgmaMsg) -> RgmaMsg {
    match msg {
        RgmaMsg::RegistryLookup { table } => lookup(table),
        RgmaMsg::ProducerQuery { sql } => RgmaMsg::ProducerQuery { sql: sql.clone() },
        RgmaMsg::ConsumerQuery { sql } => RgmaMsg::ConsumerQuery { sql: sql.clone() },
        _ => unreachable!(),
    }
}

/// The Registry: registrations of new tables, new producers of a table
/// and idempotent re-registrations, and lookups of registered and
/// unregistered tables.
fn registry(seed: u64) {
    let subject = Subject {
        fresh: Registry::new,
        apply: |b, &(servlet, table): &(u32, usize)| {
            let msg = RgmaMsg::RegistryRegister {
                servlet: SvcKey {
                    index: servlet,
                    gen: 0,
                },
                table: format!("t{table}"),
                predicate: String::new(),
            };
            b.handle(Rc::new(msg));
        },
        counters: |r| vec![("lookups", r.lookups), ("registrations", r.registrations)],
        ask: ask_once,
    };
    let keys: Vec<_> = (0..20).map(|t| Rc::new(lookup(&format!("t{t}")))).collect();
    replay(&subject, seed, |rng| {
        if rng.next_below(4) == 0 {
            Draw::Update((rng.next_below(3) as u32, rng.next_below(10) as usize))
        } else {
            pick(rng, &keys, rebuild_rgma)
        }
    });
}

/// The ProducerServlet's publish timer tag for producer 0.
const PUBLISH: u64 = 1 << 32;

fn producer_query(sql: String) -> Payload {
    Rc::new(RgmaMsg::ProducerQuery { sql })
}

/// The ProducerServlet: publishes, and queries of one table, one row,
/// every table (`*ALL*`), no table and no statement.
fn producer_servlet(seed: u64) {
    let subject = Subject {
        fresh: || ProducerServlet::new(default_producers("anl", 4)),
        apply: |b, &i: &usize| {
            // The rows this publish replaces, as a query sees them.
            let table = &default_producers("anl", 4)[i].table;
            let plan = b.handle(producer_query(format!("SELECT * FROM {table}")));
            let replaced: Vec<_> = plan
                .steps
                .iter()
                .find_map(|step| match step {
                    Step::Reply { payload, .. } => payload.downcast_ref::<SqlResultMsg>(),
                    _ => None,
                })
                .expect("a result set")
                .rows
                .iter()
                .map(Rc::downgrade)
                .collect();
            drop(plan);
            b.with(|ps, cx| ps.on_timer(PUBLISH | i as u64, cx));
            assert!(
                replaced.iter().all(|row| row.strong_count() == 0),
                "a row the publish to {table} replaced is alive"
            );
        },
        counters: |ps| vec![("queries", ps.queries), ("published", ps.tuples_published)],
        ask: ask_once,
    };
    let mut texts = vec![
        "*ALL*".to_string(),
        "SELECT * FROM nonexistent".into(),
        "SELECT nothing".into(),
    ];
    for p in default_producers("anl", 4) {
        texts.push(format!("SELECT * FROM {}", p.table));
        texts.extend((0..3).map(|e| format!("SELECT * FROM {} WHERE entity = 'e{e}'", p.table)));
    }
    let keys: Vec<_> = texts
        .into_iter()
        .map(|sql| Rc::new(RgmaMsg::ProducerQuery { sql }))
        .collect();
    replay(&subject, seed, |rng| {
        if rng.next_below(5) == 0 {
            Draw::Update(rng.next_below(4) as usize)
        } else {
            pick(rng, &keys, rebuild_rgma)
        }
    });
}

/// Put a consumer query to a ConsumerServlet to the end.  The Registry
/// names none, one or two producers for a table (by the sum of its
/// bytes), and each producer answers with an empty result set.
fn ask_consumer(b: &mut Bare<ConsumerServlet>, query: Payload, watch: &mut Watch) -> Vec<String> {
    let (mut lines, mut next) = render(b.handle(query), watch);
    while let Some((cont, waits)) = next.take() {
        let mut outcomes: Vec<CallOutcome> = (0..)
            .zip(&waits)
            .map(|(index, call)| {
                let answer: Payload = match call.downcast_ref::<RgmaMsg>() {
                    Some(RgmaMsg::RegistryLookup { table }) => {
                        let n = table.bytes().map(u32::from).sum::<u32>() % 3;
                        let producers = (0..n).map(|index| SvcKey { index, gen: 1 }).collect();
                        Rc::new(ProducerList {
                            producers,
                            bytes: 380,
                        })
                    }
                    _ => Rc::new(SqlResultMsg::new(vec![], vec![])),
                };
                CallOutcome {
                    index,
                    response: Some((answer, 380)),
                }
            })
            .collect();
        let more;
        (more, next) = render(b.with(|cs, cx| cs.resume(cont, &mut outcomes, cx)), watch);
        lines.extend(more);
    }
    lines
}

/// The ConsumerServlet: single-table SELECTs and texts that are not,
/// with no update (a mediation depends on its text alone).
fn consumer_servlet(seed: u64) {
    let subject = Subject {
        fresh: || ConsumerServlet::new(SvcKey { index: 0, gen: 2 }),
        apply: |_, never: &std::convert::Infallible| match *never {},
        counters: |cs| vec![("queries", cs.queries), ("mediations", cs.mediations)],
        ask: ask_consumer,
    };
    let mut texts: Vec<String> = (0..16).map(|t| format!("SELECT * FROM t{t}")).collect();
    texts.extend([
        "SELECT value FROM tt WHERE entity = 'e1'".into(),
        "DELETE FROM t1".into(),
        "no SQL at all".into(),
    ]);
    let keys: Vec<_> = texts
        .into_iter()
        .map(|sql| Rc::new(RgmaMsg::ConsumerQuery { sql }))
        .collect();
    replay(&subject, seed, |rng| pick(rng, &keys, rebuild_rgma));
}

proptest! {
    #[test]
    fn gris_answers_as_a_fresh_gris(seed in any::<u64>()) {
        gris(seed);
    }

    #[test]
    fn manager_answers_as_a_fresh_manager(seed in any::<u64>()) {
        manager(seed);
    }

    #[test]
    fn registry_answers_as_a_fresh_registry(seed in any::<u64>()) {
        registry(seed);
    }

    #[test]
    fn producer_servlet_answers_as_a_fresh_servlet(seed in any::<u64>()) {
        producer_servlet(seed);
    }

    #[test]
    fn consumer_servlet_answers_as_a_fresh_servlet(seed in any::<u64>()) {
        consumer_servlet(seed);
    }
}
