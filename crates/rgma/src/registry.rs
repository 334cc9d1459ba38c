//! The R-GMA Registry.
//!
//! "The RDBMS holds the information for all the Producers (the registered
//! table name, the identity, and the values of those fixed attributes)."
//! The Registry is a Java servlet in front of that RDBMS; consumers'
//! servlets ask it which producers can answer a table, producers register
//! through their servlet.  The whole database sits behind one connection
//! lock, and every request pays the JVM dispatch cost — R-GMA's
//! scalability profile in the paper's Experiment Set 2.

use crate::proto::{ProducerList, RgmaMsg};
use crate::{DB_FIXED_CPU_US, JVM_DISPATCH_CPU_US, ROW_SCAN_CPU_US, SQL_PARSE_CPU_US};
use relsql::{name, Database, SelectCols, SqlValue, Stmt};
use simnet::{Kept, LockKey, Payload, Plan, Service, SvcCx, SvcKey};
use std::collections::HashMap;
use std::rc::Rc;

/// A table's lookup: the statement that finds its producers, then the
/// `ProducerList` reply, its size and the rows the statement scanned.
struct Answer {
    stmt: Stmt,
    list: Payload,
    bytes: u64,
    scanned: usize,
}

/// The Registry service.
pub struct Registry {
    db: Database,
    /// Registered servlet keys by numeric id (SQL stores the id).
    servlets: HashMap<i64, SvcKey>,
    /// Existing registrations by (servlet, table), so a producer that
    /// re-registers after a crash/restart refreshes its row instead of
    /// accumulating duplicates (consumers would double-count it).
    by_owner: HashMap<(SvcKey, String), i64>,
    /// Per table name, its lookup statement and the answer to it, kept at
    /// `registrations`.  Consumers ask for the same handful of tables
    /// over and over, and an answer is replied again (its simulated scan
    /// still charged) until the next registration.  Any table's
    /// registration makes every answer stale, because `tablename` is not
    /// indexed and each new row lengthens every lookup's scan.
    answers: Kept<String, Answer>,
    next_id: i64,
    /// The RDBMS connection lock (registered with the world at deploy
    /// time).
    pub db_lock: Option<LockKey>,
    /// Counters.
    pub lookups: u64,
    pub registrations: u64,
}

impl Registry {
    pub fn new() -> Registry {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE producers (id INT PRIMARY KEY, servlet INT, tablename TEXT, predicate TEXT)",
        )
        .expect("schema");
        Registry {
            db,
            servlets: HashMap::new(),
            by_owner: HashMap::new(),
            answers: Kept::default(),
            next_id: 1,
            db_lock: None,
            lookups: 0,
            registrations: 0,
        }
    }

    /// Number of registered producers.
    pub fn producer_count(&mut self) -> usize {
        self.db
            .run(&Stmt::select(SelectCols::CountStar, "producers", None))
            .map(|r| match r.rows[0][0] {
                SqlValue::Int(n) => n as usize,
                _ => 0,
            })
            .unwrap_or(0)
    }

    /// The producers of `table`: the kept answer while no registration
    /// has come in since, else the lookup statement run afresh.
    fn lookup(&mut self, table: &str) -> &Answer {
        let (db, servlets) = (&mut self.db, &self.servlets);
        self.answers.get(table, self.registrations, |old| {
            let stmt = old.map_or_else(|| lookup_stmt(table), |a| a.stmt);
            let r = db.run(&stmt).expect("lookup");
            let producers: Vec<SvcKey> = r
                .rows
                .iter()
                .filter_map(|row| match row[0] {
                    SqlValue::Int(id) => servlets.get(&id).copied(),
                    _ => None,
                })
                .collect();
            let bytes = 300 + producers.len() as u64 * 80;
            Answer {
                stmt,
                list: Rc::new(ProducerList { producers, bytes }),
                bytes,
                scanned: r.scanned,
            }
        })
    }

    /// Serialise the steps of `plan` from index `from` on behind the
    /// database lock, if there is one.
    fn locked(&self, plan: Plan, from: usize) -> Plan {
        match self.db_lock {
            Some(l) => plan.hold(l, from),
            None => plan,
        }
    }
}

/// `SELECT id FROM producers WHERE tablename = '{table}'`.
fn lookup_stmt(table: &str) -> Stmt {
    let id = SelectCols::Columns(vec![name("id")]);
    let table = SqlValue::Text(table.to_string());
    Stmt::select(id, "producers", Some(("tablename", table)))
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Service for Registry {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req.downcast::<RgmaMsg>().expect("Registry expects RgmaMsg");
        match &*msg {
            RgmaMsg::RegistryRegister {
                servlet,
                table,
                predicate,
            } => {
                let servlet = *servlet;
                self.registrations += 1;
                if let Some(&id) = self.by_owner.get(&(servlet, table.clone())) {
                    // Idempotent re-registration (producer restart): the
                    // row is already there; just make sure the servlet key
                    // is current.  Costs the same DB access.
                    self.servlets.insert(id, servlet);
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.servlets.insert(id, servlet);
                    self.by_owner.insert((servlet, table.clone()), id);
                    // The servlet id stands in for the URL.
                    let row = vec![
                        SqlValue::Int(id),
                        SqlValue::Int(id),
                        SqlValue::Text(table.clone()),
                        SqlValue::Text(predicate.clone()),
                    ];
                    self.db
                        .insert_row(name("producers"), row)
                        .expect("insert registration");
                }
                // The JVM/servlet work is parallel; only the RDBMS access
                // serialises.
                let plan = cx
                    .plan()
                    .cpu(JVM_DISPATCH_CPU_US)
                    .cpu(DB_FIXED_CPU_US)
                    .reply(Rc::new(()), 300);
                self.locked(plan, 1)
            }
            RgmaMsg::RegistryLookup { table } => {
                self.lookups += 1;
                cx.obs.incr("rgma.registry_lookups", 1);
                let answer = self.lookup(table);
                let scan_cost = DB_FIXED_CPU_US + ROW_SCAN_CPU_US * answer.scanned as f64;
                let (list, bytes) = (Rc::clone(&answer.list), answer.bytes);
                let plan = cx
                    .plan()
                    .cpu(JVM_DISPATCH_CPU_US + SQL_PARSE_CPU_US)
                    .cpu(scan_cost)
                    .reply(list, bytes);
                self.locked(plan, 1)
            }
            other => {
                debug_assert!(false, "unexpected message ({} bytes)", other.wire_size());
                cx.plan().reply_empty()
            }
        }
    }

    fn name(&self) -> &str {
        "rgma-registry"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_lookup() {
        let mut reg = Registry::new();
        // Drive handle() directly through a fake context-free path: use
        // the service API via a minimal world in servlets.rs tests; here
        // exercise the DB logic synchronously.
        let dummy = simcore::slab::SlabKey { index: 7, gen: 0 };
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = make_cx(&mut lent, &mut rng, &mut obs);
        let plan = reg.handle(
            Rc::new(RgmaMsg::RegistryRegister {
                servlet: dummy,
                table: "cpuload".into(),
                predicate: "site='anl'".into(),
            }),
            &mut cx,
        );
        assert!(!plan.steps.is_empty());
        assert_eq!(reg.producer_count(), 1);
        let plan = reg.handle(
            Rc::new(RgmaMsg::RegistryLookup {
                table: "cpuload".into(),
            }),
            &mut cx,
        );
        // Reply carries the producer list.
        let reply = plan
            .steps
            .into_iter()
            .find_map(|s| match s {
                simnet::Step::Reply { payload, .. } => Some(payload),
                _ => None,
            })
            .expect("reply");
        let list = reply.downcast::<ProducerList>().unwrap();
        assert_eq!(list.producers, vec![dummy]);
        // Unknown table -> empty list.
        let plan = reg.handle(
            Rc::new(RgmaMsg::RegistryLookup {
                table: "nope".into(),
            }),
            &mut cx,
        );
        let reply = plan
            .steps
            .into_iter()
            .find_map(|s| match s {
                simnet::Step::Reply { payload, .. } => Some(payload),
                _ => None,
            })
            .unwrap();
        assert!(reply
            .downcast::<ProducerList>()
            .unwrap()
            .producers
            .is_empty());
        assert_eq!(reg.lookups, 2);
    }

    #[test]
    fn reregistration_is_idempotent() {
        let mut reg = Registry::new();
        let dummy = simcore::slab::SlabKey { index: 7, gen: 0 };
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = make_cx(&mut lent, &mut rng, &mut obs);
        for _ in 0..3 {
            reg.handle(
                Rc::new(RgmaMsg::RegistryRegister {
                    servlet: dummy,
                    table: "cpuload".into(),
                    predicate: "site='anl'".into(),
                }),
                &mut cx,
            );
        }
        // Three heartbeats, one row: lookups must not double-count the
        // producer after a restart.
        assert_eq!(reg.registrations, 3);
        assert_eq!(reg.producer_count(), 1);
        let plan = reg.handle(
            Rc::new(RgmaMsg::RegistryLookup {
                table: "cpuload".into(),
            }),
            &mut cx,
        );
        let reply = plan
            .steps
            .into_iter()
            .find_map(|s| match s {
                simnet::Step::Reply { payload, .. } => Some(payload),
                _ => None,
            })
            .expect("reply");
        assert_eq!(reply.downcast::<ProducerList>().unwrap().producers.len(), 1);
        // A different table from the same servlet is a separate row.
        reg.handle(
            Rc::new(RgmaMsg::RegistryRegister {
                servlet: dummy,
                table: "memfree".into(),
                predicate: String::new(),
            }),
            &mut cx,
        );
        assert_eq!(reg.producer_count(), 2);
    }

    /// What a lookup plan does: its CPU charges, then the producers and
    /// size of its reply.
    fn answer(plan: Plan) -> (Vec<f64>, Vec<SvcKey>, u64) {
        let mut cpu = Vec::new();
        for step in plan.steps {
            match step {
                simnet::Step::Cpu(us) => cpu.push(us),
                simnet::Step::Reply { payload, bytes } => {
                    let list = payload.downcast::<ProducerList>().expect("producer list");
                    return (cpu, list.producers.clone(), bytes);
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        panic!("lookup plan without a reply");
    }

    #[test]
    fn another_tables_registration_changes_the_scan_charge() {
        let mut lent = simnet::service::Lent::default();
        let mut rng = simcore::SimRng::new(1);
        let mut obs = simnet::Obs::off();
        let mut cx = make_cx(&mut lent, &mut rng, &mut obs);
        let mut reg = Registry::new();
        let register = |table: &str| {
            Rc::new(RgmaMsg::RegistryRegister {
                servlet: simcore::slab::SlabKey { index: 7, gen: 0 },
                table: table.into(),
                predicate: String::new(),
            })
        };
        let lookup = || {
            Rc::new(RgmaMsg::RegistryLookup {
                table: "cpuload".into(),
            })
        };
        reg.handle(register("cpuload"), &mut cx);
        let (one_row, producers, bytes) = answer(reg.handle(lookup(), &mut cx));
        assert_eq!(answer(reg.handle(lookup(), &mut cx)).0, one_row);
        reg.handle(register("memfree"), &mut cx);
        let (two_rows, after, after_bytes) = answer(reg.handle(lookup(), &mut cx));
        assert_eq!((after, after_bytes), (producers, bytes));
        assert_eq!(two_rows[1] - one_row[1], ROW_SCAN_CPU_US);
    }

    fn make_cx<'a>(
        lent: &'a mut simnet::service::Lent,
        rng: &'a mut simcore::SimRng,
        obs: &'a mut simnet::Obs,
    ) -> SvcCx<'a> {
        // SvcCx fields are crate-private in simnet; go through the public
        // test constructor.
        SvcCx::for_tests(
            simcore::SimTime::ZERO,
            simcore::slab::SlabKey::NULL,
            rng,
            obs,
            lent,
        )
    }
}
