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
//! the integrated Startd ad is built once and every advertisement and
//! full-query reply shares it (the Manager recognises the same `Rc` as
//! an unchanged ad).

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

/// The Agent service.
pub struct Agent {
    machine: String,
    modules: Vec<ModuleSpec>,
    /// All module ads integrated into the Startd ClassAd.
    startd: Rc<ClassAd>,
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
        let mut ad = ClassAd::new();
        ad.set_str("Machine", &machine);
        ad.set_str("OpSys", "LINUX");
        ad.set_bool("Requirements", true);
        ad.set_int("ModuleCount", modules.len() as i64);
        for m in &modules {
            ad.merge(&m.attrs);
        }
        Agent {
            machine,
            modules,
            startd: Rc::new(ad),
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

    /// The integrated Startd ClassAd.
    pub fn startd_ad(&self) -> &Rc<ClassAd> {
        &self.startd
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
        match *msg {
            HawkeyeMsg::AgentStatus => {
                // Re-run one module, reply with its fragment.
                self.queries += 1;
                self.module_runs += 1;
                let i = self.next_status_module % self.modules.len().max(1);
                self.next_status_module = self.next_status_module.wrapping_add(1);
                let m = &self.modules[i];
                let reply = AdsReply::new(vec![m.attrs.clone()]);
                let bytes = reply.bytes;
                cx.plan()
                    .cpu(QUERY_CPU_FIXED_US + m.exec_cpu_us + INTEGRATE_CPU_PER_MODULE_US)
                    .reply(reply, bytes)
            }
            HawkeyeMsg::AgentFull => {
                // Re-run every module and integrate.
                self.queries += 1;
                self.module_runs += self.modules.len() as u64;
                let reply = AdsReply::new(vec![self.startd.clone()]);
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
            let msg = HawkeyeMsg::StartdAd {
                machine: self.machine.clone(),
                ad: self.startd.clone(),
            };
            let bytes = msg.wire_size();
            cx.send_oneway(manager, msg, bytes);
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

    #[test]
    fn startd_ad_integrates_all_modules() {
        let a = Agent::new("lucky4", default_modules("lucky4", 11));
        let ad = a.startd_ad();
        // 4 base attrs + 4 per module.
        assert_eq!(ad.len(), 4 + 11 * 4);
        assert_eq!(ad.lookup_str("Machine").as_deref(), Some("lucky4"));
        assert!(ad.wire_size() > 1000);
    }

    #[test]
    fn ad_size_grows_with_modules() {
        let small = Agent::new("h", default_modules("h", 11));
        let big = Agent::new("h", default_modules("h", 90));
        let (small, big) = (small.startd_ad(), big.startd_ad());
        assert!(big.wire_size() > small.wire_size() * 5);
    }

    #[test]
    fn full_query_cost_scales_with_modules() {
        let small = Agent::new("h", default_modules("h", 11));
        let big = Agent::new("h", default_modules("h", 90));
        assert!(big.all_modules_cpu() > small.all_modules_cpu() * 7.0);
    }
}
