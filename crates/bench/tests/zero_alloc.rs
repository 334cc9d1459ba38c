//! Pinned steady-state allocation behaviour of the event kernel, of the
//! two resource models every event steps, of the ClassAd constraint scan,
//! of the request lifecycle and of two model queries.
//!
//! Events are plain values in recycled slab slots, so the schedule/fire
//! loop — the inner loop of every experiment — performs **zero** heap
//! allocations once the heap and the slab have reached their working
//! size.  The first test pins that property under the counting
//! allocator: it warms a set-1-shaped world (periodic per-host probe
//! events that reschedule themselves, like the GRIS cache refreshers),
//! then runs thousands of further events and asserts the process
//! allocation counter did not move at all.  The next two pin the same
//! for a warmed `FlowNet` (start / advance / abort through the
//! buffer-taking API, paths as cloned `Rc`s) and a warmed `PsCpu`
//! (submit / advance / abort): their working memory is kept, not rebuilt.
//! The fourth pins the Experiment-4 Hawkeye Manager scan: a held
//! constraint evaluated against every ad of a 1 000-ad pool allocates
//! nothing per ad.  The fifth pins a whole `Net`: closed-loop users
//! against a service that takes a lock and a parent that fans out to it.
//! Plan steps, the held lock, fan-out sub-calls and outcomes live in
//! buffers the `Net` lends, and every message is a clone of one payload
//! made before warm-up, so once warm a round trip allocates nothing.
//! The last two pin the models on top.  First, the paper's closed-loop
//! users querying a real GRIS (answered from its result cache) and a
//! real Hawkeye Agent.  Each series' request is built once and shared,
//! the way `factory_for` builds them, and the replies are the services'
//! memoized or prebuilt ones, so an answered query allocates nothing.
//! Then R-GMA consumers querying a ConsumerServlet, which asks a real
//! Registry and ProducerServlet: between registrations and publishes
//! each keeps its answer, and a single producer's result set is
//! forwarded as it stands, so a mediated query allocates nothing either.
//!
//! Runs only with `--features alloc-profile` (which compiles the
//! counting global allocator in); without it the test is a no-op so
//! plain `cargo test` stays green.  The counter is process-wide, so the
//! seven pins are one `#[test]`: nothing else runs while one measures.

use simcore::{Engine, PsCpu, SimDuration, SimRng, SimTime};
use simnet::flow::FlowNet;
use simnet::topology::{LinkId, Topology};
use simnet::{
    CallOutcome, Client, ClientCx, Eng, LockKey, Net, NodeId, Payload, Plan, ReqOutcome, ReqResult,
    RequestSpec, Service, ServiceConfig, SetupCost, StatsHub, SubCall, SvcCx, SvcKey,
};
use std::cell::Cell;
use std::rc::Rc;

/// A per-host probe that re-arms itself every `period`.
#[derive(Clone, Copy)]
struct Probe {
    host: usize,
    period: SimDuration,
}

/// The measured world: per-host counters bumped by self-rescheduling
/// probe events, the shape of the set-1 MDS refresh loop.
struct World {
    fired: Vec<u64>,
}

impl simcore::World for World {
    type Event = Probe;

    fn handle(&mut self, eng: &mut Engine<World>, probe: Probe) {
        self.fired[probe.host] += 1;
        eng.schedule_in(probe.period, probe);
    }
}

#[test]
fn steady_state_allocates_nothing() {
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };
    event_loop();
    flow_net();
    ps_cpu();
    constraint_scan();
    request_lifecycle();
    model_query();
    rgma_consumer_query();
}

fn event_loop() {
    const HOSTS: usize = 50;
    let mut world = World {
        fired: vec![0; HOSTS],
    };
    let mut eng: Engine<World> = Engine::new(20030622);
    for h in 0..HOSTS {
        // Co-prime-ish periods so the heap sees interleaved orderings,
        // not one synchronized batch.
        let period = SimDuration::from_micros(900 + 7 * h as u64);
        eng.schedule_in(period, Probe { host: h, period });
    }

    // Warm-up: size the heap and the event slab.
    eng.run_until(&mut world, SimTime(500_000));
    let fired_warm: u64 = world.fired.iter().sum();
    assert!(fired_warm > 10_000, "warm-up fired {fired_warm}");

    // Steady state: every event must recycle its own slot.
    assert_allocates_nothing("event loop", || {
        eng.run_until(&mut world, SimTime::from_secs(1))
    });
    let fired: u64 = world.fired.iter().sum::<u64>() - fired_warm;
    assert!(fired > 10_000, "measured window fired {fired}");
}

/// Require that `measured` moves the process allocation counter by
/// nothing.  The caller has warmed whatever `measured` drives.
fn assert_allocates_nothing(what: &str, measured: impl FnOnce()) {
    let before = gperf::alloc::stats().unwrap();
    measured();
    let after = gperf::alloc::stats().unwrap();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "warmed {what} allocated {} times",
        after.allocs - before.allocs,
    );
    assert_eq!(after.bytes_total, before.bytes_total);
}

/// `warm` steps to size every buffer, then `measured` that must not
/// allocate.
fn assert_warmed_steps_allocate_nothing(
    what: &str,
    warm: u32,
    measured: u32,
    mut step: impl FnMut(),
) {
    for _ in 0..warm {
        step();
    }
    assert_allocates_nothing(what, || {
        for _ in 0..measured {
            step();
        }
    });
}

fn flow_net() {
    // Three links; paths that share one, share two, share none, and the
    // empty same-host path.  One step is: advance to the next completion,
    // restart whatever finished, and abort + restart one more flow.
    let mut topo = Topology::new();
    topo.add_node("host", 1, 1.0);
    let l: Vec<LinkId> = (0..3)
        .map(|i| topo.add_link(format!("l{i}"), (i as f64 + 2.0) * 1e6, SimDuration(50)))
        .collect();
    let paths: Vec<Rc<[LinkId]>> = [
        vec![l[0]],
        vec![l[1]],
        vec![l[0], l[2]],
        vec![l[1], l[2]],
        vec![l[0], l[1], l[2]],
        vec![],
    ]
    .into_iter()
    .map(Rc::from)
    .collect();

    const FLOWS: u64 = 24;
    let mut net = FlowNet::new();
    let mut rng = SimRng::new(20030622);
    let mut now = SimTime(0);
    let mut start = |net: &mut FlowNet, now: SimTime, token: u64| {
        let path = Rc::clone(&paths[(token % paths.len() as u64) as usize]);
        net.start(&topo, now, path, 2_000 + rng.next_below(60_000), token)
    };
    let mut keys: Vec<_> = (0..FLOWS).map(|t| start(&mut net, now, t)).collect();
    let mut done: Vec<u64> = Vec::with_capacity(FLOWS as usize);
    let mut victim = 0;
    let mut completed = 0u64;

    assert_warmed_steps_allocate_nothing("FlowNet", 2_000, 10_000, || {
        now = net.next_completion(now).expect("flows are active");
        done.clear();
        net.advance_into(&topo, now, &mut done);
        for &token in &done {
            keys[token as usize] = start(&mut net, now, token);
        }
        completed += done.len() as u64;
        victim = (victim + 7) % FLOWS;
        assert_eq!(net.abort(&topo, keys[victim as usize]), Some(victim));
        keys[victim as usize] = start(&mut net, now, victim);
    });
    assert_eq!(net.active(), FLOWS as usize);
    assert!(completed > 5_000, "only {completed} flows completed");
}

fn ps_cpu() {
    // Sixteen tasks on two cores.  One step is: advance to the next
    // completion, resubmit whatever finished, and abort + resubmit one
    // more task.
    const TASKS: u64 = 16;
    let mut cpu = PsCpu::new(2, 1.0);
    let mut rng = SimRng::new(20030622);
    let mut now = SimTime(0);
    let mut keys: Vec<_> = (0..TASKS)
        .map(|t| cpu.submit(now, rng.uniform(0.0, 50_000.0), t))
        .collect();
    let mut done: Vec<u64> = Vec::with_capacity(TASKS as usize);
    let mut victim = 0;
    let mut completed = 0u64;

    assert_warmed_steps_allocate_nothing("PsCpu", 2_000, 10_000, || {
        now = cpu.next_completion(now).expect("tasks are runnable");
        done.clear();
        cpu.advance_into(now, &mut done);
        for &token in &done {
            keys[token as usize] = cpu.submit(now, rng.uniform(0.0, 50_000.0), token);
        }
        completed += done.len() as u64;
        victim = (victim + 5) % TASKS;
        assert_eq!(cpu.abort(now, keys[victim as usize]), Some(victim));
        keys[victim as usize] = cpu.submit(now, rng.uniform(0.0, 50_000.0), victim);
    });
    assert_eq!(cpu.runnable(), TASKS as usize);
    assert!(completed > 5_000, "only {completed} tasks completed");
}

fn constraint_scan() {
    use classad::{matchmaker, parse_expr, ClassAd, CompiledExpr};
    // The Manager's resident database: 1 000 Startd-shaped ads with a
    // load spread over 0..100.
    let mut rng = SimRng::new(20030622);
    let pool: Vec<ClassAd> = (0..1_000)
        .map(|i| {
            ClassAd::parse(&format!(
                "Machine = \"sim{i:04}\"\nOpSys = \"LINUX\"\nCpuLoad = {}\n\
                 ModuleCount = 11\nRequirements = TARGET.CpuLoad > 50\n",
                rng.uniform(0.0, 100.0)
            ))
            .expect("generated ad parses")
        })
        .collect();
    // The catalogue's `HawkeyeConstraintMiss` (no machine matches) and a
    // numeric constraint about half the pool satisfies.
    for (constraint, hits) in [
        ("NoSuchAttribute =?= 424242", 0..1),
        ("CpuLoad > 50", 400..600),
    ] {
        let held = CompiledExpr::compile(&parse_expr(constraint).expect("literal constraint"));
        assert_warmed_steps_allocate_nothing(constraint, 1, 10, || {
            let n = pool
                .iter()
                .filter(|ad| matchmaker::matches_constraint_compiled(ad, &held))
                .count();
            assert!(hits.contains(&n), "{constraint}: {n} of 1000 ads match");
        });
    }
}

/// CPU, then a locked CPU section, then an empty reply.
struct LockedSection {
    lock: LockKey,
    reply: Payload,
}

impl Service for LockedSection {
    fn handle(&mut self, _req: Payload, cx: &mut SvcCx) -> Plan {
        cx.plan()
            .cpu(311.7)
            .lock(self.lock)
            .cpu(197.3)
            .unlock(self.lock)
            .reply(Rc::clone(&self.reply), 64)
    }
}

/// Calls both children, then replies once both answered.
struct FanOut {
    children: [SvcKey; 2],
    msg: Payload,
}

impl Service for FanOut {
    fn handle(&mut self, _req: Payload, cx: &mut SvcCx) -> Plan {
        let mut calls = cx.calls();
        calls.extend(self.children.map(|to| SubCall {
            to,
            payload: Rc::clone(&self.msg),
            req_bytes: 500,
        }));
        cx.plan().cpu(101.9).call_all(calls, 0)
    }

    fn resume(&mut self, _cont: u64, outcomes: &mut Vec<CallOutcome>, cx: &mut SvcCx) -> Plan {
        let answered = outcomes.drain(..).filter(|o| o.response.is_some()).count();
        assert_eq!(answered, 2);
        cx.plan().cpu(89.3).reply(Rc::clone(&self.msg), 64)
    }
}

/// A closed-loop user: asks again as soon as an answer arrives.
struct User {
    from: NodeId,
    to: SvcKey,
    query: Payload,
    answers: Rc<Cell<u64>>,
}

impl User {
    fn ask(&self, cx: &mut ClientCx) {
        let spec = RequestSpec {
            from: self.from,
            to: self.to,
            payload: Rc::clone(&self.query),
            req_bytes: 700,
        };
        cx.submit(spec, 0);
    }
}

impl Client for User {
    fn on_start(&mut self, cx: &mut ClientCx) {
        self.ask(cx);
    }

    fn on_outcome(&mut self, outcome: ReqOutcome, cx: &mut ClientCx) {
        assert!(matches!(outcome.result, ReqResult::Ok(..)));
        self.answers.set(self.answers.get() + 1);
        self.ask(cx);
    }
}

fn request_lifecycle() {
    let mut topo = Topology::new();
    let client = topo.add_node("client", 1, 1.0);
    let server = topo.add_node("server", 2, 1.0);
    topo.connect(client, server, 100e6, SimDuration::from_micros(173));
    let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::MAX));
    let mut eng: Eng = Engine::new(20030622);
    let lock = net.add_lock(1);
    // Every message is this one payload: a message built once is cloned,
    // not re-allocated.
    let unit: Payload = Rc::new(());
    let cfg = ServiceConfig {
        setup: SetupCost {
            server_cpu_us: 47.3,
            ..SetupCost::plain()
        },
        ..ServiceConfig::default()
    };
    let reply = Rc::clone(&unit);
    let locked = net.add_service(
        server,
        cfg,
        Box::new(LockedSection { lock, reply }),
        &mut eng,
    );
    let children = [locked, locked];
    let msg = Rc::clone(&unit);
    let parent = net.add_service(server, cfg, Box::new(FanOut { children, msg }), &mut eng);
    let answers = Rc::new(Cell::new(0));
    for to in [locked, locked, locked, parent, parent, parent] {
        let answers = Rc::clone(&answers);
        net.add_client(Box::new(User {
            from: client,
            to,
            query: Rc::clone(&unit),
            answers,
        }));
    }
    net.start(&mut eng);

    // Warm-up: size the request slab, the calendar, the flow network,
    // the lock's queue and the lent buffers.
    eng.run_until(&mut net, SimTime::from_secs(1));
    let warm = answers.get();
    assert!(warm > 1_000, "warm-up answered {warm}");

    assert_allocates_nothing("request lifecycle", || {
        eng.run_until(&mut net, SimTime::from_secs(4))
    });
    let answered = answers.get() - warm;
    assert!(answered > 3_000, "measured window answered {answered}");
}

fn model_query() {
    use gridmon_core::deploy::gris_suffix;
    use hawkeye::{default_modules, Agent, HawkeyeMsg};
    use mds::{Gris, MdsRequest, ProviderTemplate};
    use workload::{spawn_users_to, QueryFactory, UserConfig};

    let mut topo = Topology::new();
    let clients = topo.add_node("clients", 2, 1.0);
    let server = topo.add_node("server", 2, 1.0);
    topo.connect(clients, server, 100e6, SimDuration::from_micros(173));
    let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::MAX));
    let mut eng: Eng = Engine::new(20030622);
    // Provider data outlives the run: the first query runs the providers,
    // every later one is answered from the GRIS's result cache.
    let suffix = gris_suffix(0);
    let ttl = Some(SimDuration::from_secs(3_600));
    let providers = ProviderTemplate::new(10, ttl).for_host(&suffix, "lucky7");
    let gris = Box::new(Gris::new(suffix.clone(), providers));
    let gris = net.add_service(server, ServiceConfig::default(), gris, &mut eng);
    let agent = Box::new(Agent::new("lucky4", default_modules("lucky4", 11)));
    let agent = net.add_service(server, ServiceConfig::default(), agent, &mut eng);
    // One request per series, shared by its users as `factory_for`
    // shares it.
    let shared = |msg: Payload, bytes: u64| {
        move || -> QueryFactory {
            let msg = Rc::clone(&msg);
            Box::new(move |_rng| (Rc::clone(&msg), bytes))
        }
    };
    let config = UserConfig {
        think: SimDuration::from_micros(9_713),
        ..UserConfig::default()
    };
    let search = MdsRequest::search_all(suffix);
    let bytes = search.wire_size();
    let factory = shared(Rc::new(search), bytes);
    spawn_users_to(&mut net, &mut eng, &[(clients, gris); 5], &config, factory);
    for msg in [HawkeyeMsg::AgentStatus, HawkeyeMsg::AgentFull] {
        let bytes = msg.wire_size();
        let factory = shared(Rc::new(msg), bytes);
        spawn_users_to(&mut net, &mut eng, &[(clients, agent); 3], &config, factory);
    }
    net.start(&mut eng);

    // Warm-up: the providers' first run, the result cache and everything
    // the request lifecycle sizes.
    eng.run_until(&mut net, SimTime::from_secs(10));
    let answered = |net: &Net| {
        net.service_as::<Gris>(gris).unwrap().queries
            + net.service_as::<Agent>(agent).unwrap().queries
    };
    let warm = answered(&net);
    assert!(warm > 1_000, "warm-up answered {warm}");
    let runs = net.service_as::<Gris>(gris).unwrap().provider_runs;

    assert_allocates_nothing("model query", || {
        eng.run_until(&mut net, SimTime::from_secs(40))
    });
    let measured = answered(&net) - warm;
    assert!(measured > 3_000, "measured window answered {measured}");
    assert_eq!(net.service_as::<Gris>(gris).unwrap().provider_runs, runs);
}

fn rgma_consumer_query() {
    use rgma::producer::default_producers;
    use rgma::{ConsumerServlet, ProducerServlet, Registry, RgmaMsg};
    use workload::{spawn_users_to, QueryFactory, UserConfig};

    let mut topo = Topology::new();
    let clients = topo.add_node("clients", 2, 1.0);
    let hosts = ["registry", "producers", "consumers"].map(|name| topo.add_node(name, 2, 1.0));
    for (i, &a) in hosts.iter().enumerate() {
        topo.connect(clients, a, 100e6, SimDuration::from_micros(173));
        for &b in &hosts[i + 1..] {
            topo.connect(a, b, 100e6, SimDuration::from_micros(211));
        }
    }
    let [reg_node, ps_node, cs_node] = hosts;
    let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::MAX));
    let mut eng: Eng = Engine::new(20030622);
    let mut registry = Registry::new();
    registry.db_lock = Some(net.add_lock(1));
    let registry = net.add_service(
        reg_node,
        ServiceConfig::default(),
        Box::new(registry),
        &mut eng,
    );
    // Two producers publish during warm-up (at a tenth and at half of
    // their period) and not again before the measured window ends.
    let mut producers = default_producers("anl", 2);
    for p in &mut producers {
        p.publish_period = SimDuration::from_secs(2_000);
    }
    let mut ps = ProducerServlet::new(producers);
    ps.db_lock = Some(net.add_lock(1));
    ps.register_with(registry);
    let ps = net.add_service(ps_node, ServiceConfig::default(), Box::new(ps), &mut eng);
    net.prime_service_timer(&mut eng, ps, SimDuration::from_millis(50), 0);
    let cs = Box::new(ConsumerServlet::new(registry));
    let cs = net.add_service(cs_node, ServiceConfig::default(), cs, &mut eng);
    // Every user sends the one query payload, as `factory_for` shares it.
    let query = RgmaMsg::ConsumerQuery(Rc::new(
        rgma::Select::parse("SELECT * FROM cpuload").unwrap(),
    ));
    let bytes = query.wire_size();
    let query: Payload = Rc::new(query);
    let factory = move || -> QueryFactory {
        let query = Rc::clone(&query);
        Box::new(move |_rng| (Rc::clone(&query), bytes))
    };
    let config = UserConfig {
        think: SimDuration::from_micros(9_713),
        ..UserConfig::default()
    };
    spawn_users_to(&mut net, &mut eng, &[(clients, cs); 5], &config, factory);
    net.start(&mut eng);

    // Warm-up: the registrations, both publishes, then the first answers
    // the Registry and the ProducerServlet keep.
    eng.run_until(&mut net, SimTime::from_secs(1_100));
    let mediated = |net: &Net| net.service_as::<ConsumerServlet>(cs).unwrap().mediations;
    let warm = mediated(&net);
    assert!(warm > 1_000, "warm-up mediated {warm}");
    let published = net
        .service_as::<ProducerServlet>(ps)
        .unwrap()
        .tuples_published;
    assert_eq!(published, 16, "two publishes of 8 entities");

    assert_allocates_nothing("R-GMA consumer query", || {
        eng.run_until(&mut net, SimTime::from_secs(1_900))
    });
    let measured = mediated(&net) - warm;
    assert!(measured > 3_000, "measured window mediated {measured}");
    let servlet = net.service_as::<ProducerServlet>(ps).unwrap();
    assert_eq!(servlet.tuples_published, published);
    let registry = net.service_as::<Registry>(registry).unwrap();
    assert_eq!(registry.registrations, 2);
}
