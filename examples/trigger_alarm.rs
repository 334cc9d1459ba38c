//! Hawkeye problem detection — the paper's headline use case: "a system
//! administrator may want to be notified when changes in system load
//! occur".
//!
//! Agents on every pool member advertise Startd ClassAds to the Manager
//! every 30 seconds.  An administrator submits a *Trigger ClassAd* whose
//! `Requirements` matches machines whose advertised metric crosses a
//! threshold; each time a matching ad arrives, the Manager fires the
//! trigger and notifies the administrator's sink (the paper's example
//! runs a job that kills Netscape on the hot machine).
//!
//! ```text
//! cargo run --release --example trigger_alarm
//! ```

use gridmon::classad::ClassAd;
use gridmon::core::deploy::{self, Harness};
use gridmon::core::runcfg::RunConfig;
use gridmon::hawkeye::{HawkeyeMsg, Manager};
use gridmon::simcore::SimTime;
use gridmon::simnet::{Payload, Plan, Service, ServiceConfig, SvcCx};

/// The administrator's notification sink ("send me an email").
struct AdminInbox {
    notifications: Vec<String>,
}

impl Service for AdminInbox {
    fn handle(&mut self, req: Payload, cx: &mut SvcCx) -> Plan {
        if let Ok(msg) = req.downcast::<HawkeyeMsg>() {
            if let HawkeyeMsg::TriggerFired {
                machine,
                trigger_idx,
            } = &*msg
            {
                self.notifications.push(format!(
                    "[t={:>6.2}s] ALERT: trigger #{trigger_idx} fired for {machine}",
                    cx.now.as_secs_f64()
                ));
            }
        }
        Plan::new().cpu(200.0).done()
    }
    fn name(&self) -> &str {
        "admin-inbox"
    }
}

fn main() {
    let mut h = Harness::new(RunConfig::quick(11));
    let mgr_node = h.lucky("lucky3");
    let manager = deploy::manager(&mut h, mgr_node);

    // Agents on the rest of the pool.
    for name in ["lucky0", "lucky1", "lucky4", "lucky5", "lucky6", "lucky7"] {
        let node = h.lucky(name);
        deploy::agent(&mut h, node, 11, manager);
    }

    // The administrator's inbox lives on a UC workstation.
    let inbox = h.net.add_service(
        h.uc[0],
        ServiceConfig::default(),
        Box::new(AdminInbox {
            notifications: Vec::new(),
        }),
        &mut h.eng,
    );

    // Trigger: fire when a machine advertises a cpu metric over 5
    // (the synthetic cpu module metric varies per machine; some match).
    let trigger = ClassAd::parse(
        "Requirements = TARGET.Hawkeye_cpu_Metric > 5 && TARGET.OpSys == \"LINUX\"\n",
    )
    .expect("trigger ad");
    println!("admin: submitting trigger ClassAd:\n{trigger}");
    h.net
        .service_as_mut::<Manager>(manager)
        .unwrap()
        .add_trigger(trigger, Some(inbox));

    h.net.start(&mut h.eng);
    h.eng.run_until(&mut h.net, SimTime::from_secs(95));

    let m = h.net.service_as::<Manager>(manager).unwrap();
    println!(
        "manager: {} machines in the pool, {} ads received, {} trigger firings",
        m.pool_size(),
        m.ads_received,
        m.triggers_fired
    );
    let inbox_ref = h.net.service_as::<AdminInbox>(inbox).unwrap();
    for n in &inbox_ref.notifications {
        println!("{n}");
    }
    assert!(
        !inbox_ref.notifications.is_empty(),
        "expected at least one alert"
    );
}
