//! The Hawkeye Monitoring Agent.
//!
//! One Agent runs per pool member.  It periodically executes its modules,
//! integrates their ClassAds into a single Startd ClassAd, and sends it
//! to the registered Manager (every 30 seconds).  Clients may also query
//! the Agent directly — but because the Agent keeps no indexed resident
//! database, it "has to retrieve new information for each query" (the
//! paper's explanation of its limited scalability): a status query
//! re-runs one module, a full query re-runs all of them.
//!
//! Re-running is simulated cost.  The modules' output never changes, so
//! every message the Agent sends is built once, at construction: one
//! status reply per module, the full-query reply and the advertisement,
//! all sharing the one integrated Startd ad (the Manager recognises the
//! same `Rc` as an unchanged ad).  A query is answered with a clone.

use crate::module::ModuleSpec;
use crate::proto::{AdsReply, HawkeyeMsg};
use classad::ClassAd;
use simcore::SimDuration;
use simnet::{Payload, Plan, Service, SvcCx, SvcKey};
use std::rc::Rc;

/// Advertise interval: the paper's Startd ads arrive every 30 seconds.
pub const ADVERTISE_PERIOD: SimDuration = SimDuration(30_000_000);

/// CPU cost of integrating one module's ClassAd into the Startd ad.
pub const INTEGRATE_CPU_PER_MODULE_US: f64 = 1_500.0;

/// Fixed per-query CPU (connection handling, ad serialization).
pub const QUERY_CPU_FIXED_US: f64 = 5_000.0;

/// The Startd ClassAd of `machine`: every module's ad integrated.
pub fn startd_ad(machine: &str, modules: &[ModuleSpec]) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.set_str("Machine", machine);
    ad.set_str("OpSys", "LINUX");
    ad.set_bool("Requirements", true);
    ad.set_int("ModuleCount", modules.len() as i64);
    for m in modules {
        ad.merge(&m.attrs);
    }
    ad
}

/// The Agent service.
pub struct Agent {
    modules: Vec<ModuleSpec>,
    /// Per module, the status-query reply carrying its ad.
    status_replies: Vec<Rc<AdsReply>>,
    /// The full-query reply: the Startd ad, all module ads integrated.
    full_reply: Rc<AdsReply>,
    /// The periodic `StartdAd` advertisement and its size.
    advert: (Payload, u64),
    manager: Option<SvcKey>,
    /// Round-robin index for status queries (which module gets re-run).
    next_status_module: usize,
    /// Counters.
    pub queries: u64,
    pub module_runs: u64,
    pub ads_sent: u64,
}

impl Agent {
    pub fn new(machine: impl Into<String>, modules: Vec<ModuleSpec>) -> Agent {
        let machine = machine.into();
        let startd = Rc::new(startd_ad(&machine, &modules));
        let status_replies = modules
            .iter()
            .map(|m| Rc::new(AdsReply::new(vec![Rc::clone(&m.attrs)])))
            .collect();
        let full_reply = Rc::new(AdsReply::new(vec![Rc::clone(&startd)]));
        let advert = HawkeyeMsg::StartdAd {
            machine,
            ad: startd,
        };
        let bytes = advert.wire_size();
        let advert = (Rc::new(advert) as Payload, bytes);
        Agent {
            modules,
            status_replies,
            full_reply,
            advert,
            manager: None,
            next_status_module: 0,
            queries: 0,
            module_runs: 0,
            ads_sent: 0,
        }
    }

    /// Register with a Manager (the deployment primes the advertise
    /// timer).
    pub fn register_with(&mut self, manager: SvcKey) {
        self.manager = Some(manager);
    }

    /// CPU to run every module once.
    fn all_modules_cpu(&self) -> f64 {
        self.modules.iter().map(|m| m.exec_cpu_us).sum::<f64>()
            + INTEGRATE_CPU_PER_MODULE_US * self.modules.len() as f64
    }
}

impl Service for Agent {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        let msg = req
            .downcast::<HawkeyeMsg>()
            .expect("Agent expects HawkeyeMsg");
        match &*msg {
            HawkeyeMsg::AgentStatus => {
                // Re-run one module, reply with its fragment.
                self.queries += 1;
                self.module_runs += 1;
                let i = self.next_status_module % self.modules.len().max(1);
                self.next_status_module = self.next_status_module.wrapping_add(1);
                let m = &self.modules[i];
                let reply = Rc::clone(&self.status_replies[i]);
                let bytes = reply.bytes;
                cx.plan()
                    .cpu(QUERY_CPU_FIXED_US + m.exec_cpu_us + INTEGRATE_CPU_PER_MODULE_US)
                    .reply(reply, bytes)
            }
            HawkeyeMsg::AgentFull => {
                // Re-run every module and integrate.
                self.queries += 1;
                self.module_runs += self.modules.len() as u64;
                let reply = Rc::clone(&self.full_reply);
                let bytes = reply.bytes;
                cx.plan()
                    .cpu(QUERY_CPU_FIXED_US + self.all_modules_cpu())
                    .reply(reply, bytes)
            }
            other => {
                debug_assert!(false, "unexpected message {:?}", other.wire_size());
                cx.plan().reply_empty()
            }
        }
    }

    fn on_timer(&mut self, _tag: u64, cx: &mut SvcCx) {
        // Periodic collection + advertise.  The collection CPU is charged
        // through a self-addressed one-way message whose plan carries the
        // cost (timers themselves are free).
        if let Some(manager) = self.manager {
            self.module_runs += self.modules.len() as u64;
            self.ads_sent += 1;
            let (advert, bytes) = &self.advert;
            cx.send_oneway(manager, Rc::clone(advert), *bytes);
        }
        cx.set_timer(ADVERTISE_PERIOD, 0);
    }

    fn name(&self) -> &str {
        "hawkeye-agent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::default_modules;
    use classad::{Expr, Value};

    #[test]
    fn startd_ad_integrates_all_modules() {
        let ad = startd_ad("lucky4", &default_modules("lucky4", 11));
        // 4 base attrs + 4 per module.
        assert_eq!(ad.iter().count(), 4 + 11 * 4);
        let machine = Expr::Lit(Value::Str("lucky4".into()));
        assert_eq!(ad.get("Machine"), Some(&machine));
        assert!(ad.wire_size() > 1000);
    }

    #[test]
    fn ad_size_grows_with_modules() {
        let small = startd_ad("h", &default_modules("h", 11));
        let big = startd_ad("h", &default_modules("h", 90));
        assert!(big.wire_size() > small.wire_size() * 5);
    }

    #[test]
    fn full_query_cost_scales_with_modules() {
        let small = Agent::new("h", default_modules("h", 11));
        let big = Agent::new("h", default_modules("h", 90));
        assert!(big.all_modules_cpu() > small.all_modules_cpu() * 7.0);
    }
}
