//! The composite Consumer/Producer — R-GMA's missing aggregate
//! information server, built exactly as the paper suggests:
//!
//! > "This component could easily be built for R-GMA by using a composite
//! > Consumer/Producer that registered with the data streams of a number
//! > of Producers, and served the data in an aggregated form."
//!
//! The [`CompositeProducer`] subscribes (push mode) to a table on every
//! configured ProducerServlet, folds the streamed tuples into its own
//! tuple store (latest row per `(source, entity)`), and answers
//! [`RgmaMsg::ProducerQuery`] against the aggregate — so consumers get
//! one-stop answers without mediating over every producer.

use crate::proto::{ProducerQuery, RgmaMsg, SqlResultMsg};
use crate::{DB_FIXED_CPU_US, JVM_DISPATCH_CPU_US, ROW_SCAN_CPU_US, SQL_PARSE_CPU_US};
use relsql::{name, Database, SelectCols, SharedRow, SqlValue, Stmt, Sym};
use simcore::SimDuration;
use simnet::{Payload, Plan, Service, SvcCx, SvcKey};
use std::rc::Rc;

/// CPU cost of folding one streamed tuple into the aggregate store.
pub const FOLD_CPU_PER_TUPLE_US: f64 = 300.0;

/// The composite Consumer/Producer service.
pub struct CompositeProducer {
    /// The table it aggregates, as the aggregate store keys it.
    table: Sym,
    /// `SELECT * FROM {table}`, what an all-collectors query runs.
    all: Stmt,
    /// The ProducerServlets it consumes from.
    sources: Vec<SvcKey>,
    /// Push period it requests from each source.
    stream_period: SimDuration,
    /// The aggregate tuple store.
    db: Database,
    /// Counters.
    pub queries: u64,
    pub tuples_folded: u64,
    pub batches_received: u64,
    subscribed: bool,
    next_source_id: i64,
}

impl CompositeProducer {
    pub fn new(table: &str, sources: Vec<SvcKey>, stream_period: SimDuration) -> Self {
        let mut db = Database::new();
        db.execute(&format!(
            "CREATE TABLE {table} (key TEXT PRIMARY KEY, source INT, entity TEXT, value REAL, seq INT)"
        ))
        .expect("aggregate table");
        CompositeProducer {
            table: name(table),
            all: Stmt::select(SelectCols::Star, table, None),
            sources,
            stream_period,
            db,
            queries: 0,
            tuples_folded: 0,
            batches_received: 0,
            subscribed: false,
            next_source_id: 0,
        }
    }

    /// Fold one streamed batch into the aggregate store.  Runs once per
    /// tuple per batch, so it uses the direct row API: each tuple
    /// overwrites the row holding its `key` primary key in place (or
    /// inserts the first one), with no SQL text per tuple.
    fn fold(&mut self, source_id: i64, rows: &[SharedRow]) {
        for row in rows {
            // Producer rows are (entity, value, seq).
            let entity = row
                .first()
                .and_then(|v| v.as_text())
                .unwrap_or("?")
                .to_string();
            let value = row.get(1).and_then(|v| v.as_number()).unwrap_or(0.0);
            let seq = row.get(2).and_then(|v| v.as_number()).unwrap_or(0.0) as i64;
            let key = SqlValue::Text(format!("{source_id}:{entity}"));
            // Whole-number values store as INT, as their SQL literal
            // form used to parse (see `ProducerServlet::publish`).
            let value = if value.fract() == 0.0 {
                SqlValue::Int(value as i64)
            } else {
                SqlValue::Real(value)
            };
            let _ = self.db.upsert_row(
                self.table,
                vec![
                    key,
                    SqlValue::Int(source_id),
                    SqlValue::Text(entity),
                    value,
                    SqlValue::Int(seq),
                ],
            );
            self.tuples_folded += 1;
        }
    }
}

impl Service for CompositeProducer {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req
            .downcast::<RgmaMsg>()
            .expect("CompositeProducer expects RgmaMsg");
        match &*msg {
            // Streamed tuples from a source servlet.
            RgmaMsg::Stream { rows, .. } => {
                self.batches_received += 1;
                // Source attribution: round-robin over subscription order
                // is not recoverable from the stream; key by a rotating id
                // per batch sender (entity keys keep rows distinct).
                let sid = self.next_source_id % self.sources.len().max(1) as i64;
                self.next_source_id += 1;
                let n = rows.len();
                self.fold(sid, rows);
                cx.plan()
                    .cpu(FOLD_CPU_PER_TUPLE_US * n as f64 + DB_FIXED_CPU_US * 0.2)
                    .done()
            }
            // Consumer query against the aggregate.
            RgmaMsg::ProducerQuery(query) => {
                self.queries += 1;
                let stmt = match query {
                    ProducerQuery::Select(select) => select.stmt(),
                    ProducerQuery::All => &self.all,
                };
                let (result, scanned) = match self.db.run(stmt) {
                    Ok(r) => {
                        let scanned = r.scanned;
                        (SqlResultMsg::new(r.columns, r.rows), scanned)
                    }
                    Err(_) => (SqlResultMsg::new(vec![], vec![]), 1),
                };
                let bytes = result.bytes;
                cx.plan()
                    .cpu(
                        JVM_DISPATCH_CPU_US
                            + SQL_PARSE_CPU_US
                            + DB_FIXED_CPU_US
                            + ROW_SCAN_CPU_US * scanned as f64,
                    )
                    .reply(Rc::new(result), bytes)
            }
            other => {
                debug_assert!(false, "unexpected message ({} bytes)", other.wire_size());
                cx.plan().reply_empty()
            }
        }
    }

    fn resume(
        &mut self,
        _cont: u64,
        _outcomes: &mut Vec<simnet::CallOutcome>,
        cx: &mut SvcCx,
    ) -> Plan {
        // Subscription acks need no processing.
        cx.plan().cpu(500.0).reply(Rc::new(()), 64)
    }

    fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
        // Deployment kick: subscribe to every source exactly once.
        if self.subscribed {
            return;
        }
        self.subscribed = true;
        for &src in &self.sources {
            let msg = RgmaMsg::Subscribe {
                table: self.table.to_string(),
                sink: cx.me,
                period_us: self.stream_period.as_micros(),
            };
            let bytes = msg.wire_size();
            // One-way subscribe: the servlet arms the stream; the ack is
            // immaterial to the data flow.
            cx.send_oneway(src, Rc::new(msg), bytes);
        }
    }

    fn name(&self) -> &str {
        "rgma-composite-producer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::default_producers;
    use crate::proto::Select;
    use crate::registry::Registry;
    use crate::servlets::ProducerServlet;
    use simcore::{Engine, SimTime};
    use simnet::{
        Client, ClientCx, Eng, Net, NodeId, ReqOutcome, ReqResult, RequestSpec, ServiceConfig,
        StatsHub, Topology,
    };
    use std::cell::RefCell;

    struct AskAll {
        from: NodeId,
        to: SvcKey,
        at_s: u64,
        rows: Rc<RefCell<Vec<usize>>>,
    }

    impl Client for AskAll {
        fn on_start(&mut self, cx: &mut ClientCx) {
            cx.wake_in(simcore::SimDuration::from_secs(self.at_s), 0);
        }
        fn on_wake(&mut self, _t: u64, cx: &mut ClientCx) {
            let m = RgmaMsg::ProducerQuery(ProducerQuery::All);
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
                    self.rows.borrow_mut().push(r.rows.len());
                }
            }
        }
    }

    #[test]
    fn composite_aggregates_multiple_servlets() {
        let mut topo = Topology::new();
        let client = topo.add_node("client", 1, 1.0);
        let agg_node = topo.add_node("aggregator", 2, 1.0);
        let mut ps_nodes = Vec::new();
        for i in 0..3 {
            let n = topo.add_node(format!("site{i}"), 2, 1.0);
            topo.connect(n, agg_node, 100e6, simcore::SimDuration::from_millis(1));
            topo.connect(n, client, 100e6, simcore::SimDuration::from_millis(1));
            ps_nodes.push(n);
        }
        topo.connect(
            client,
            agg_node,
            100e6,
            simcore::SimDuration::from_millis(1),
        );
        let reg_node = topo.add_node("registry", 2, 1.0);
        for &n in ps_nodes.iter().chain([&agg_node, &client]) {
            topo.connect(reg_node, n, 100e6, simcore::SimDuration::from_millis(1));
        }
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(600)));
        let mut eng: Eng = Engine::new(77);
        let reg = net.add_service(
            reg_node,
            ServiceConfig::default(),
            Box::new(Registry::new()),
            &mut eng,
        );
        // Three sites each publishing a cpuload table.
        let mut sources = Vec::new();
        for (i, &n) in ps_nodes.iter().enumerate() {
            let mut ps = ProducerServlet::new(default_producers(&format!("site{i}"), 3));
            ps.register_with(reg);
            let k = net.add_service(n, ServiceConfig::default(), Box::new(ps), &mut eng);
            net.prime_service_timer(&mut eng, k, simcore::SimDuration::from_millis(100), 0);
            sources.push(k);
        }
        let comp = net.add_service(
            agg_node,
            ServiceConfig::default(),
            Box::new(CompositeProducer::new(
                "cpuload",
                sources,
                simcore::SimDuration::from_secs(10),
            )),
            &mut eng,
        );
        net.prime_service_timer(&mut eng, comp, simcore::SimDuration::from_secs(35), 0);
        let rows = Rc::new(RefCell::new(Vec::new()));
        net.add_client(Box::new(AskAll {
            from: client,
            to: comp,
            at_s: 120,
            rows: rows.clone(),
        }));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(180));
        let c = net.service_as::<CompositeProducer>(comp).unwrap();
        assert_eq!(c.sources.len(), 3);
        assert!(c.batches_received >= 9, "batches {}", c.batches_received);
        assert!(c.tuples_folded >= 72, "folded {}", c.tuples_folded);
        // The aggregate answers with rows from all three sites (3 sources
        // × 8 entities).
        let got = rows.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], 24, "aggregated rows");
    }

    /// What a query to `c` charges and answers: its CPU, rows and bytes.
    fn ask(c: &mut CompositeProducer, query: ProducerQuery) -> (f64, Vec<SharedRow>, u64) {
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = SvcCx::for_tests(SimTime::ZERO, SvcKey::NULL, &mut rng, &mut obs, &mut lent);
        let plan = c.handle(Rc::new(RgmaMsg::ProducerQuery(query)), &mut cx);
        let [simnet::Step::Cpu(cpu), simnet::Step::Reply { payload, bytes }] = &plan.steps[..]
        else {
            panic!("a query plan is its CPU, then its reply");
        };
        let r = payload.downcast_ref::<SqlResultMsg>().expect("result set");
        (*cpu, r.rows.clone(), *bytes)
    }

    #[test]
    fn queries_read_the_aggregate_and_never_write_it() {
        let mut c = CompositeProducer::new("cpuload", vec![], SimDuration::from_secs(10));
        for source in 0..3 {
            let rows: Vec<SharedRow> = (0..4)
                .map(|e| {
                    let cells = vec![
                        SqlValue::Text(format!("e{e}")),
                        SqlValue::Real(e as f64 + 0.5),
                        SqlValue::Int(source),
                    ];
                    Rc::new(relsql::StoredRow::new(cells))
                })
                .collect();
            c.fold(source, &rows);
        }
        let count = |c: &mut CompositeProducer| c.db.execute("SELECT COUNT(*) FROM cpuload");
        let stored = count(&mut c).unwrap().rows[0][0].clone();
        assert_eq!(stored, SqlValue::Int(12));
        // The oracle: `SELECT * FROM cpuload` executed as SQL text and
        // charged as one parsed statement.
        let text = c.db.execute("SELECT * FROM cpuload").unwrap();
        let text_cpu = JVM_DISPATCH_CPU_US
            + SQL_PARSE_CPU_US
            + DB_FIXED_CPU_US
            + ROW_SCAN_CPU_US * text.scanned as f64;
        let text_bytes = SqlResultMsg::new(text.columns, text.rows.clone()).bytes;
        let select = |text: &str| ProducerQuery::Select(Rc::new(Select::parse(text).unwrap()));
        for query in [ProducerQuery::All, select("SELECT * FROM cpuload")] {
            let (cpu, rows, bytes) = ask(&mut c, query);
            assert_eq!((cpu, bytes), (text_cpu, text_bytes));
            assert_eq!(rows, text.rows);
        }
        // Every kind of query leaves the aggregate as it was; a write is
        // not a query at all.
        for query in [
            ProducerQuery::All,
            select("SELECT * FROM cpuload WHERE key = '1:e2'"),
            select("SELECT entity FROM cpuload WHERE value = 2.5"),
            select("SELECT COUNT(*) FROM cpuload"),
            select("SELECT * FROM cpuload WHERE nope = 1"),
            select("SELECT * FROM nonexistent"),
        ] {
            ask(&mut c, query);
            assert_eq!(count(&mut c).unwrap().rows[0][0], stored);
        }
        for write in [
            "DELETE FROM cpuload",
            "INSERT INTO cpuload VALUES ('k', 1, 'e', 1, 1)",
        ] {
            assert_eq!(Select::parse(write), Err(relsql::SqlError::NotSelect));
        }
    }
}
