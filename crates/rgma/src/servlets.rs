//! The Producer and Consumer servlets.
//!
//! R-GMA's moving parts are Java servlets, usually remote from the
//! producers/consumers they act for.  The **ProducerServlet** hosts the
//! tuple stores of its local producers and answers SQL queries against
//! them — serialized by the servlet's database lock, which is what makes
//! its response time grow almost linearly with concurrent users in the
//! paper's Experiment Set 1.  It also implements the push mode: consumers
//! subscribe to a table and receive tuple batches on a timer.
//!
//! The **ConsumerServlet** "consults the Registry to find suitable
//! Producers.  Then the servlet, acting on behalf of the Consumer, issues new
//! queries to the located Producers to request and return the data to
//! the Consumer."

use crate::producer::ProducerSpec;
use crate::proto::{ProducerList, RgmaMsg, SqlResultMsg};
use crate::{DB_FIXED_CPU_US, JVM_DISPATCH_CPU_US, ROW_SCAN_CPU_US, SQL_PARSE_CPU_US};
use relsql::{parse_stmt, Database, SqlValue, Stmt, Sym};
use simcore::SimDuration;
use simnet::{CallOutcome, Kept, LockKey, Payload, Plan, Service, SubCall, SvcCx, SvcKey};
use std::collections::HashMap;
use std::rc::Rc;

/// Tag base for producer publish timers.
const TIMER_PUBLISH: u64 = 1 << 32;
/// Tag base for subscription stream timers.
const TIMER_STREAM: u64 = 2 << 32;

struct Subscription {
    table: String,
    /// `SELECT * FROM {table}` prebuilt once: each stream tick re-issues
    /// it, and a stable text string hits the statement cache.
    batch_sql: String,
    sink: SvcKey,
    period: SimDuration,
}

/// The ProducerServlet service.
pub struct ProducerServlet {
    db: Database,
    /// Each producer's table as the tuple store keys it, resolved once
    /// here rather than hashed on every published row.
    tables: Vec<Sym>,
    /// One `SELECT * FROM {table}` per producer, prebuilt at
    /// construction so each `*ALL*` (all-collectors) query re-issues
    /// stable texts that hit the statement cache instead of
    /// re-rendering and re-parsing one SELECT per table per query.
    all_sql: Vec<String>,
    /// Per query text, the last answer: the result set, its size and the
    /// CPU it charges.  Consumers re-issue the same handful of texts and
    /// the tables change only on a publish, which clears every answer
    /// before it writes, so a kept result set never holds a row the
    /// table has replaced.
    answers: Kept<String, (Payload, u64, f64)>,
    producers: Vec<ProducerSpec>,
    registry: Option<SvcKey>,
    /// The servlet's tuple-store lock (registered at deploy time).
    pub db_lock: Option<LockKey>,
    subscriptions: Vec<Subscription>,
    publish_seq: u64,
    /// When any producer on this servlet last published a round (`None`
    /// until the first publish) — the freshness a consumer query can see.
    pub last_publish_at: Option<simcore::SimTime>,
    /// Counters.
    pub queries: u64,
    pub tuples_published: u64,
    pub stream_batches: u64,
}

impl ProducerServlet {
    pub fn new(producers: Vec<ProducerSpec>) -> ProducerServlet {
        let mut db = Database::new();
        for p in &producers {
            db.execute(&format!(
                "CREATE TABLE {} (entity TEXT PRIMARY KEY, value REAL, seq INT)",
                p.table
            ))
            .expect("producer table");
        }
        let tables = producers
            .iter()
            .map(|p| Sym::from(p.table.to_ascii_lowercase().as_str()))
            .collect();
        let all_sql = producers
            .iter()
            .map(|p| format!("SELECT * FROM {}", p.table))
            .collect();
        ProducerServlet {
            db,
            tables,
            all_sql,
            answers: Kept::default(),
            producers,
            registry: None,
            db_lock: None,
            subscriptions: Vec::new(),
            publish_seq: 0,
            last_publish_at: None,
            queries: 0,
            tuples_published: 0,
            stream_batches: 0,
        }
    }

    /// Point this servlet at the Registry; registration messages go out
    /// when the deployment primes timer tag 0.
    pub fn register_with(&mut self, registry: SvcKey) {
        self.registry = Some(registry);
    }

    /// Publish one round of tuples for producer `i` (LatestProducer
    /// semantics: one current row per entity).
    ///
    /// The inner loop runs once per entity per period for every producer
    /// in the deployment, so it uses the direct row API: each tuple
    /// overwrites its entity's row in place, keyed by the primary key,
    /// with no SQL text, no tombstone and no row-id list per tuple.
    fn publish(&mut self, i: usize) {
        let (Some(p), Some(&table)) = (self.producers.get(i), self.tables.get(i)) else {
            return;
        };
        let entities = p.entities;
        self.answers.clear();
        self.publish_seq += 1;
        let seq = self.publish_seq;
        for e in 0..entities {
            let val = ((seq * 37 + e as u64 * 11) % 1000) as f64 / 10.0;
            let entity = SqlValue::Text(format!("e{e}"));
            // Whole-number values store as INT, exactly as their SQL
            // literal form (`70`, not `70.0`) used to parse: the REAL
            // column widens, and the textual wire size stays the same.
            let value = if val.fract() == 0.0 {
                SqlValue::Int(val as i64)
            } else {
                SqlValue::Real(val)
            };
            // LatestProducer keeps the newest row per entity.
            self.db
                .upsert_row(table, vec![entity, value, SqlValue::Int(seq as i64)])
                .expect("publish upsert");
            self.tuples_published += 1;
        }
    }

    /// The answer to `sql`: the kept one if no publish has come in since,
    /// else the query run afresh.
    fn answer(&mut self, sql: &str) -> (Payload, u64, f64) {
        let (db, all_sql) = (&mut self.db, &self.all_sql);
        let kept = self.answers.get(sql, 0, |_| {
            let (result, cost) = if sql == "*ALL*" {
                // The all-collectors query: one SELECT per table.
                let mut total_rows = Vec::new();
                let mut scanned = 0usize;
                let mut cols = Vec::new();
                for q in all_sql {
                    let (r, s) = Self::run_query(db, q);
                    scanned += s;
                    cols = r.columns;
                    total_rows.extend(r.rows);
                }
                let cost = JVM_DISPATCH_CPU_US
                    + (SQL_PARSE_CPU_US + DB_FIXED_CPU_US) * all_sql.len() as f64
                    + ROW_SCAN_CPU_US * scanned as f64;
                (SqlResultMsg::new(cols, total_rows), cost)
            } else {
                let (result, scanned) = Self::run_query(db, sql);
                let cost = JVM_DISPATCH_CPU_US
                    + SQL_PARSE_CPU_US
                    + DB_FIXED_CPU_US
                    + ROW_SCAN_CPU_US * scanned as f64;
                (result, cost)
            };
            let bytes = result.bytes;
            (Rc::new(result) as Payload, bytes, cost)
        });
        kept.clone()
    }

    fn run_query(db: &mut Database, sql: &str) -> (SqlResultMsg, usize) {
        match db.execute(sql) {
            Ok(r) => {
                let scanned = r.scanned;
                (SqlResultMsg::new(r.columns, r.rows), scanned)
            }
            Err(_) => (SqlResultMsg::new(vec![], vec![]), 1),
        }
    }

    /// Serialise the whole of `plan` behind the database lock, if there
    /// is one.
    fn locked(&self, plan: Plan) -> Plan {
        match self.db_lock {
            Some(l) => plan.hold(l, 0),
            None => plan,
        }
    }
}

impl Service for ProducerServlet {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req
            .downcast::<RgmaMsg>()
            .expect("ProducerServlet expects RgmaMsg");
        match &*msg {
            RgmaMsg::ProducerQuery { sql } => {
                self.queries += 1;
                cx.obs.incr("rgma.producer_queries", 1);
                let (result, bytes, cost) = self.answer(sql);
                self.locked(cx.plan().cpu(cost).reply(result, bytes))
            }
            RgmaMsg::Subscribe {
                table,
                sink,
                period_us,
            } => {
                let (sink, period_us) = (*sink, *period_us);
                let idx = self.subscriptions.len() as u64;
                self.subscriptions.push(Subscription {
                    batch_sql: format!("SELECT * FROM {table}"),
                    table: table.clone(),
                    sink,
                    period: SimDuration::from_micros(period_us),
                });
                // Arm the stream timer via the reply path: the plan can't
                // set timers, so emit the first batch from on_timer primed
                // through an action.
                cx.set_timer(SimDuration::from_micros(period_us), TIMER_STREAM | idx);
                cx.plan().cpu(JVM_DISPATCH_CPU_US).reply(Rc::new(()), 300)
            }
            other => {
                debug_assert!(false, "unexpected message ({} bytes)", other.wire_size());
                cx.plan().reply_empty()
            }
        }
    }

    fn on_timer(&mut self, tag: u64, cx: &mut SvcCx) {
        if tag == 0 {
            // Deployment kick: register every producer with the Registry
            // and start the publish loops.
            if let Some(registry) = self.registry {
                for p in &self.producers {
                    let msg = RgmaMsg::RegistryRegister {
                        servlet: cx.me,
                        table: p.table.clone(),
                        predicate: p.predicate.clone(),
                    };
                    let bytes = msg.wire_size();
                    cx.send_oneway(registry, Rc::new(msg), bytes);
                }
            }
            for i in 0..self.producers.len() {
                cx.set_timer(
                    self.producers[i]
                        .publish_period
                        .mul_f64(0.1 + 0.8 * (i as f64 / self.producers.len().max(1) as f64)),
                    TIMER_PUBLISH | i as u64,
                );
            }
            return;
        }
        if tag & TIMER_PUBLISH != 0 && tag & TIMER_STREAM == 0 {
            let i = (tag & 0xFFFF_FFFF) as usize;
            self.publish(i);
            self.last_publish_at = Some(cx.now);
            if let Some(p) = self.producers.get(i) {
                cx.set_timer(p.publish_period, tag);
            }
            return;
        }
        if tag & TIMER_STREAM != 0 {
            let i = (tag & 0xFFFF_FFFF) as usize;
            let Some(sub) = self.subscriptions.get(i) else {
                return;
            };
            let table = sub.table.clone();
            let sink = sub.sink;
            let period = sub.period;
            let r = self.db.execute(&sub.batch_sql).ok();
            let rows = r.map(|r| r.rows).unwrap_or_default();
            if !rows.is_empty() {
                self.stream_batches += 1;
                let msg = RgmaMsg::Stream { table, rows };
                let bytes = msg.wire_size();
                cx.send_oneway(sink, Rc::new(msg), bytes);
            }
            cx.set_timer(period, tag);
        }
    }

    fn name(&self) -> &str {
        "rgma-producer-servlet"
    }
}

/// A mediated query's messages, built once per distinct query text: the
/// Registry lookup of its table and the query put to each producer found.
struct Mediation {
    lookup: Rc<RgmaMsg>,
    query: Rc<RgmaMsg>,
}

impl Mediation {
    /// The mediation of `sql`, or `None` when it is not a single-table
    /// SELECT.
    fn of(sql: &str) -> Option<Mediation> {
        let Ok(Stmt::Select { table, .. }) = parse_stmt(sql) else {
            return None;
        };
        Some(Mediation {
            lookup: Rc::new(RgmaMsg::RegistryLookup {
                table: table.to_string(),
            }),
            query: Rc::new(RgmaMsg::ProducerQuery {
                sql: sql.to_string(),
            }),
        })
    }
}

/// Pending state of a consumer query inside the ConsumerServlet.
enum CqStage {
    /// Waiting for the Registry; then each producer it names is sent
    /// `query`.
    Registry { query: Rc<RgmaMsg> },
    /// Waiting for the producers.
    Producers,
}

/// The ConsumerServlet service.
pub struct ConsumerServlet {
    registry: SvcKey,
    pending: HashMap<u64, CqStage>,
    /// Query text -> its mediation (`None` = not a single-table SELECT),
    /// which depends on the text alone, so its stamp never moves.
    /// Consumers re-issue the same handful of texts, so each distinct
    /// text is parsed and its messages built once.
    texts: Kept<String, Option<Mediation>>,
    next_cont: u64,
    /// Counters.
    pub queries: u64,
    pub mediations: u64,
}

impl ConsumerServlet {
    pub fn new(registry: SvcKey) -> ConsumerServlet {
        ConsumerServlet {
            registry,
            pending: HashMap::new(),
            texts: Kept::default(),
            next_cont: 0,
            queries: 0,
            mediations: 0,
        }
    }
}

impl Service for ConsumerServlet {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req
            .downcast::<RgmaMsg>()
            .expect("ConsumerServlet expects RgmaMsg");
        let RgmaMsg::ConsumerQuery { sql } = &*msg else {
            debug_assert!(false, "unexpected message");
            return cx.plan().reply_empty();
        };
        self.queries += 1;
        cx.obs.incr("rgma.consumer_queries", 1);
        // Which table does the query touch?  (Single-table SELECTs only —
        // that is all R-GMA 1.x's mediator handled well, too.)  Each
        // distinct query text is parsed once and remembered.
        let Some(m) = self.texts.get(sql.as_str(), 0, |_| Mediation::of(sql)) else {
            let result = SqlResultMsg::new(vec![], vec![]);
            let bytes = result.bytes;
            return cx
                .plan()
                .cpu(JVM_DISPATCH_CPU_US + SQL_PARSE_CPU_US)
                .reply(Rc::new(result), bytes);
        };
        let cont = self.next_cont;
        self.next_cont += 1;
        let query = Rc::clone(&m.query);
        self.pending.insert(cont, CqStage::Registry { query });
        let mut calls = cx.calls();
        calls.push(SubCall {
            to: self.registry,
            payload: m.lookup.clone(),
            req_bytes: m.lookup.wire_size(),
        });
        cx.plan()
            .cpu(JVM_DISPATCH_CPU_US + SQL_PARSE_CPU_US)
            .call_all(calls, cont)
    }

    fn resume(&mut self, cont: u64, outcomes: &mut Vec<CallOutcome>, cx: &mut SvcCx) -> Plan {
        match self.pending.remove(&cont) {
            Some(CqStage::Registry { query }) => {
                // Registry answered (or failed: an unreachable Registry is
                // an error to the consumer, not an empty result).
                let any_response = outcomes.iter().any(|o| o.response.is_some());
                if !any_response {
                    return cx.plan().cpu(2_000.0).fail();
                }
                let lists = outcomes
                    .iter()
                    .filter_map(|o| o.response.as_ref()?.0.downcast_ref::<ProducerList>());
                let n: usize = lists.clone().map(|l| l.producers.len()).sum();
                if n == 0 {
                    let result = SqlResultMsg::new(vec![], vec![]);
                    let bytes = result.bytes;
                    return cx.plan().cpu(2_000.0).reply(Rc::new(result), bytes);
                }
                self.mediations += 1;
                let cont2 = self.next_cont;
                self.next_cont += 1;
                self.pending.insert(cont2, CqStage::Producers);
                let bytes = query.wire_size();
                let mut calls = cx.calls();
                calls.reserve_exact(n);
                calls.extend(lists.flat_map(|l| &l.producers).map(|&to| SubCall {
                    to,
                    payload: query.clone(),
                    req_bytes: bytes,
                }));
                cx.plan().cpu(3_000.0).call_all(calls, cont2)
            }
            Some(CqStage::Producers) => {
                // Merge the producer answers; if every producer was
                // unreachable the query fails.
                if outcomes.iter().all(|o| o.response.is_none()) {
                    return cx.plan().cpu(2_000.0).fail();
                }
                let answered = || {
                    outcomes.iter().filter_map(|o| {
                        let (p, _) = o.response.as_ref()?;
                        Some((p, p.downcast_ref::<SqlResultMsg>()?))
                    })
                };
                let mut results = answered();
                let reply = match (results.next(), results.next()) {
                    // One producer answered: its result set is the merge.
                    (Some((p, _)), None) => Rc::clone(p),
                    _ => Rc::new(merge(answered().map(|(_, r)| r))),
                };
                let r = reply.downcast_ref::<SqlResultMsg>().expect("a result set");
                let merge_cost = 2_000.0 + ROW_SCAN_CPU_US * r.rows.len() as f64;
                let bytes = r.bytes;
                cx.plan().cpu(merge_cost).reply(reply, bytes)
            }
            None => {
                debug_assert!(false, "resume without pending state");
                cx.plan().reply_empty()
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-consumer-servlet"
    }
}

/// Several producers' result sets as one: the first non-empty column
/// list, and every row in producer order (shared, not copied).
fn merge<'a>(results: impl Iterator<Item = &'a SqlResultMsg> + Clone) -> SqlResultMsg {
    let columns = results
        .clone()
        .map(|r| &r.columns)
        .find(|c| !c.is_empty())
        .cloned()
        .unwrap_or_default();
    let mut rows = Vec::with_capacity(results.clone().map(|r| r.rows.len()).sum());
    for r in results {
        rows.extend_from_slice(&r.rows);
    }
    SqlResultMsg::new(columns, rows)
}

/// A consumer-side sink for push-mode tuple streams.
pub struct TupleSink {
    /// Tuples received so far.
    pub tuples: u64,
    /// Batches received.
    pub batches: u64,
}

impl TupleSink {
    pub fn new() -> TupleSink {
        TupleSink {
            tuples: 0,
            batches: 0,
        }
    }
}

impl Default for TupleSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Service for TupleSink {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        if let Ok(msg) = req.downcast::<RgmaMsg>() {
            if let RgmaMsg::Stream { rows, .. } = &*msg {
                self.batches += 1;
                self.tuples += rows.len() as u64;
                return cx
                    .plan()
                    .cpu(500.0 + 50.0 * self.tuples.min(100) as f64)
                    .done();
            }
        }
        cx.plan().done()
    }

    fn name(&self) -> &str {
        "rgma-tuple-sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::default_producers;
    use crate::registry::Registry;
    use simcore::Engine;
    use simcore::SimTime;
    use simnet::{
        Client, ClientCx, Eng, Net, NodeId, ReqOutcome, ReqResult, RequestSpec, ServiceConfig,
        StatsHub, Topology,
    };

    struct AskSql {
        from: NodeId,
        to: SvcKey,
        at_s: u64,
        sql: String,
        results: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
    }

    impl Client for AskSql {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(SimDuration::from_secs(self.at_s), 0);
        }
        fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
            let m = RgmaMsg::ConsumerQuery {
                sql: self.sql.clone(),
            };
            let bytes = m.wire_size();
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(m),
                    req_bytes: bytes,
                },
                0,
            );
        }
        fn on_outcome(&mut self, o: ReqOutcome, _cx: &mut ClientCx) {
            if let ReqResult::Ok(p, _) = o.result {
                if let Ok(r) = p.downcast::<SqlResultMsg>() {
                    self.results.borrow_mut().push(r.rows.len());
                } else {
                    self.results.borrow_mut().push(usize::MAX);
                }
            }
        }
    }

    fn deploy() -> (Net, Eng, NodeId, SvcKey, SvcKey, SvcKey) {
        let mut topo = Topology::new();
        let client = topo.add_node("uc00", 1, 1.0);
        let reg_node = topo.add_node("lucky1", 2, 1.0);
        let ps_node = topo.add_node("lucky3", 2, 1.0);
        let cs_node = topo.add_node("lucky5", 2, 1.0);
        for a in [reg_node, ps_node, cs_node] {
            topo.connect(client, a, 100e6, SimDuration::from_millis(1));
        }
        topo.connect(reg_node, ps_node, 100e6, SimDuration::from_micros(200));
        topo.connect(reg_node, cs_node, 100e6, SimDuration::from_micros(200));
        topo.connect(ps_node, cs_node, 100e6, SimDuration::from_micros(200));
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(600)));
        let mut eng: Eng = Engine::new(41);
        // Registry with its DB lock.
        let lock = net.add_lock(1);
        let mut registry = Registry::new();
        registry.db_lock = Some(lock);
        let reg = net.add_service(
            reg_node,
            ServiceConfig::default(),
            Box::new(registry),
            &mut eng,
        );
        // ProducerServlet with 10 producers.
        let ps_lock = net.add_lock(1);
        let mut ps = ProducerServlet::new(default_producers("anl", 10));
        ps.db_lock = Some(ps_lock);
        ps.register_with(reg);
        let ps_key = net.add_service(ps_node, ServiceConfig::default(), Box::new(ps), &mut eng);
        net.prime_service_timer(&mut eng, ps_key, SimDuration::from_millis(50), 0);
        // ConsumerServlet.
        let cs = net.add_service(
            cs_node,
            ServiceConfig::default(),
            Box::new(ConsumerServlet::new(reg)),
            &mut eng,
        );
        (net, eng, client, reg, ps_key, cs)
    }

    /// A plan's CPU charges and what it sends: each sub-call's message
    /// and size, or the reply's row count and size.  Also the
    /// continuation, to resume the plan with.
    fn sends(plan: Plan) -> (Vec<String>, Option<u64>) {
        let mut seen = Vec::new();
        let mut cont = None;
        for step in plan.steps {
            match step {
                simnet::Step::Cpu(us) => seen.push(format!("cpu {us}")),
                simnet::Step::CallAll { calls, cont: c } => {
                    cont = Some(c);
                    for call in calls {
                        let line = match call.payload.downcast_ref::<RgmaMsg>() {
                            Some(RgmaMsg::RegistryLookup { table }) => format!("lookup {table}"),
                            Some(RgmaMsg::ProducerQuery { sql }) => format!("query {sql}"),
                            _ => panic!("unexpected sub-call"),
                        };
                        seen.push(format!("{line} to {:?}, {}B", call.to, call.req_bytes));
                    }
                }
                simnet::Step::Reply { payload, bytes } => {
                    let r = payload.downcast::<SqlResultMsg>().expect("result set");
                    seen.push(format!("reply {} rows, {bytes}B", r.rows.len()));
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        (seen, cont)
    }

    /// A ProducerServlet's answer: its CPU charge, the rows' cells and
    /// the reply's size.
    type Answer = (Vec<f64>, Vec<Vec<SqlValue>>, u64);

    /// What a ProducerServlet answers `sql`, and the reply.
    fn ask_producer(ps: &mut ProducerServlet, sql: &str, cx: &mut SvcCx) -> (Answer, Payload) {
        let query = Rc::new(RgmaMsg::ProducerQuery { sql: sql.into() });
        let mut cpu = Vec::new();
        for step in ps.handle(query, cx).steps {
            match step {
                simnet::Step::Cpu(us) => cpu.push(us),
                simnet::Step::Reply { payload, bytes } => {
                    let r = payload.downcast_ref::<SqlResultMsg>().expect("result set");
                    let rows = r.rows.iter().map(|row| row.to_vec()).collect();
                    return ((cpu, rows, bytes), payload);
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        panic!("query plan without a reply");
    }

    #[test]
    fn publish_drops_replaced_rows() {
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = SvcCx::for_tests(SimTime::ZERO, SvcKey::NULL, &mut rng, &mut obs, &mut lent);
        let texts = ["SELECT * FROM cpuload", "*ALL*"];
        let mut ps = ProducerServlet::new(default_producers("anl", 3));
        for round in 0..8 {
            // Kept answers hold rows of every table ...
            for sql in texts {
                ask_producer(&mut ps, sql, &mut cx);
            }
            // ... and once the next publish has run, nothing holds the
            // rows it replaced.
            let i = round % 3;
            let replaced: Vec<_> = ps
                .db
                .execute(&ps.all_sql[i])
                .unwrap()
                .rows
                .iter()
                .map(Rc::downgrade)
                .collect();
            assert_eq!(replaced.len(), if round < 3 { 0 } else { 8 });
            ps.publish(i);
            assert!(replaced.iter().all(|row| row.strong_count() == 0));
        }
    }

    /// The ConsumerServlet's answer to a query whose Registry lookup names
    /// one producer per entry of `replies`, each of which answers with
    /// its entry (`None`: the call failed).  Also the reply.
    fn merged(replies: &[Option<Payload>]) -> (Vec<String>, Payload) {
        let key = |index| simcore::slab::SlabKey { index, gen: 0 };
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = SvcCx::for_tests(SimTime::ZERO, key(0), &mut rng, &mut obs, &mut lent);
        let mut cs = ConsumerServlet::new(key(1));
        let query = Rc::new(RgmaMsg::ConsumerQuery {
            sql: "SELECT * FROM cpuload".into(),
        });
        let (_, cont) = sends(cs.handle(query, &mut cx));
        let producers = (0..replies.len() as u32).map(|i| key(10 + i)).collect();
        let list = Rc::new(ProducerList {
            producers,
            bytes: 380,
        });
        let response = Some((list as Payload, 380));
        let mut outcomes = vec![CallOutcome { index: 0, response }];
        let (_, cont) = sends(cs.resume(cont.unwrap(), &mut outcomes, &mut cx));
        let mut outcomes = (0..)
            .zip(replies)
            .map(|(index, reply)| CallOutcome {
                index,
                response: reply.clone().map(|p| (p, 999)),
            })
            .collect();
        let plan = cs.resume(cont.unwrap(), &mut outcomes, &mut cx);
        let reply = plan
            .steps
            .iter()
            .find_map(|s| match s {
                simnet::Step::Reply { payload, .. } => Some(Rc::clone(payload)),
                _ => None,
            })
            .expect("reply");
        (sends(plan).0, reply)
    }

    /// How the ConsumerServlet merged before a single answer was
    /// forwarded as it stands: the first non-empty column list, every
    /// row in producer order, the size recomputed.
    fn merged_by_copy(replies: &[Option<Payload>]) -> (Vec<String>, SqlResultMsg) {
        let mut columns = Vec::new();
        let mut rows = Vec::new();
        for r in replies.iter().flatten() {
            let Some(r) = r.downcast_ref::<SqlResultMsg>() else {
                continue;
            };
            if columns.is_empty() {
                columns = r.columns.clone();
            }
            rows.extend(r.rows.iter().cloned());
        }
        let merge_cost = 2_000.0 + ROW_SCAN_CPU_US * rows.len() as f64;
        let result = SqlResultMsg::new(columns, rows);
        let lines = vec![
            format!("cpu {merge_cost}"),
            format!("reply {} rows, {}B", result.rows.len(), result.bytes),
        ];
        (lines, result)
    }

    #[test]
    fn a_single_answer_is_forwarded_and_several_are_merged_as_before() {
        let mut db = Database::new();
        db.execute("CREATE TABLE cpuload (entity TEXT PRIMARY KEY, value REAL, seq INT)")
            .unwrap();
        let mut result = |rows: u32| -> Option<Payload> {
            db.execute("DELETE FROM cpuload").unwrap();
            for e in 0..rows {
                db.execute(&format!(
                    "INSERT INTO cpuload VALUES ('e{e}', {}.5, {rows})",
                    e * 7
                ))
                .unwrap();
            }
            let r = db.execute("SELECT * FROM cpuload").unwrap();
            Some(Rc::new(SqlResultMsg::new(r.columns, r.rows)))
        };
        let (three, five, eight) = (result(3), result(5), result(8));
        // A producer that failed its query answers with no columns.
        let no_columns: Option<Payload> = Some(Rc::new(SqlResultMsg::new(vec![], vec![])));
        let not_a_result: Option<Payload> = Some(Rc::new(()));
        let cases: [(&str, Vec<Option<Payload>>); 7] = [
            ("one producer", vec![five.clone()]),
            (
                "three producers",
                vec![three.clone(), five.clone(), eight.clone()],
            ),
            (
                "one of three failed",
                vec![three.clone(), None, eight.clone()],
            ),
            ("two of three failed", vec![None, eight.clone(), None]),
            (
                "first reply without columns",
                vec![no_columns.clone(), five.clone(), three.clone()],
            ),
            (
                "only a reply without columns",
                vec![None, no_columns.clone()],
            ),
            (
                "one result set beside a stray reply",
                vec![not_a_result, three.clone()],
            ),
        ];
        for (case, replies) in cases {
            let (lines, reply) = merged(&replies);
            let (expect, by_copy) = merged_by_copy(&replies);
            assert_eq!(lines, expect, "{case}");
            let answered: Vec<_> = replies
                .iter()
                .flatten()
                .filter(|p| p.is::<SqlResultMsg>())
                .collect();
            if let [only] = answered[..] {
                assert!(Rc::ptr_eq(&reply, only), "{case}: forwarded as it stands");
            }
            let reply = reply.downcast_ref::<SqlResultMsg>().unwrap();
            assert_eq!(reply.columns, by_copy.columns, "{case}");
            assert!(reply
                .rows
                .iter()
                .zip(&by_copy.rows)
                .all(|(a, b)| Rc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn end_to_end_consumer_query() {
        let (mut net, mut eng, client, reg, ps, cs) = deploy();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskSql {
            from: client,
            to: cs,
            at_s: 90, // give producers time to register & publish
            sql: "SELECT * FROM cpuload".into(),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(150));
        let results = results.borrow();
        assert_eq!(results.len(), 1);
        // LatestProducer: 8 entities, one row each.
        assert_eq!(results[0], 8);
        assert_eq!(net.service_as::<Registry>(reg).map(|r| r.lookups), Some(1));
        assert_eq!(
            net.service_as::<ConsumerServlet>(cs).map(|c| c.mediations),
            Some(1)
        );
        assert!(net.service_as::<ProducerServlet>(ps).unwrap().queries >= 1);
    }

    #[test]
    fn query_for_unknown_table_returns_empty() {
        let (mut net, mut eng, client, _reg, _ps, cs) = deploy();
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        net.add_client(Box::new(AskSql {
            from: client,
            to: cs,
            at_s: 90,
            sql: "SELECT * FROM nonexistent".into(),
            results: results.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(150));
        assert_eq!(*results.borrow(), vec![0]);
    }

    #[test]
    fn registry_collects_all_registrations() {
        let (mut net, mut eng, _client, reg, ps, _cs) = deploy();
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(60));
        let registry = net.service_as_mut::<Registry>(reg).unwrap();
        assert_eq!(registry.registrations, 10);
        assert_eq!(registry.producer_count(), 10);
        let servlet = net.service_as::<ProducerServlet>(ps).unwrap();
        assert_eq!(servlet.producers.len(), 10);
    }

    #[test]
    fn producers_publish_latest_rows() {
        let (mut net, mut eng, _client, _reg, ps, _cs) = deploy();
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(120));
        let servlet = net.service_as_mut::<ProducerServlet>(ps).unwrap();
        // LatestProducer semantics: row count stays at the entity count
        // however many publish rounds have passed.
        let count = servlet.db.execute("SELECT COUNT(*) FROM cpuload").unwrap();
        assert_eq!(count.rows[0][0], SqlValue::Int(8));
        assert!(
            servlet.tuples_published > 80,
            "published {}",
            servlet.tuples_published
        );
    }

    #[test]
    fn push_mode_streams_tuples() {
        let (mut net, mut eng, client, _reg, ps, _cs) = deploy();
        // A sink service on the client node.
        let sink = net.add_service(
            client,
            ServiceConfig::default(),
            Box::new(TupleSink::new()),
            &mut eng,
        );
        // Subscribe via a direct message to the ProducerServlet.
        struct Subscriber {
            from: NodeId,
            to: SvcKey,
            sink: SvcKey,
        }
        impl Client for Subscriber {
            fn on_start(&mut self, cx: &mut ClientCx) {
                cx.wake_in(SimDuration::from_secs(70), 0);
            }
            fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
                let m = RgmaMsg::Subscribe {
                    table: "cpuload".into(),
                    sink: self.sink,
                    period_us: 10_000_000,
                };
                let bytes = m.wire_size();
                cx.submit(
                    RequestSpec {
                        from: self.from,
                        to: self.to,
                        payload: Rc::new(m),
                        req_bytes: bytes,
                    },
                    0,
                );
            }
        }
        net.add_client(Box::new(Subscriber {
            from: client,
            to: ps,
            sink,
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(200));
        let s = net.service_as::<TupleSink>(sink).unwrap();
        // ~(200-80)/10 = 12 batches of 8 tuples.
        assert!(s.batches >= 10, "batches {}", s.batches);
        assert_eq!(s.tuples, s.batches * 8);
    }
}
