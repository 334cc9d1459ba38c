//! # ganglia — testbed monitoring
//!
//! The paper used Ganglia to collect performance data at five-second
//! intervals and reported two host metrics for every experiment:
//!
//! * **CPU load** — the percentage of CPU cycles spent in user+system
//!   mode (the sum of Ganglia's `cpu_user` and `cpu_system`);
//! * **load1** — Ganglia's `load_one`, the one-minute exponentially
//!   decayed average of the number of runnable processes.
//!
//! [`Monitor`] is a simulated client that samples the watched hosts every
//! five seconds during the run and aggregates each metric over the
//! measurement window, exactly as the paper does ("the values reported are
//! the average over all the values recorded during a 10-minute time
//! span").

use simcore::stats::{LoadAvg, Series};
use simcore::{SimDuration, SimTime};
use simnet::{Client, ClientCx, NodeId};

/// Ganglia's default metric collection period.
pub const SAMPLE_PERIOD: SimDuration = SimDuration(5_000_000);

/// Per-host sampled state.
struct HostState {
    node: NodeId,
    load1: LoadAvg,
    prev_busy: f64,
    prev_t: SimTime,
    load1_series: Series,
    cpu_series: Series,
}

/// The monitoring client: wakes every 5 s and samples all watched hosts.
pub struct Monitor {
    hosts: Vec<HostState>,
    started: bool,
}

impl Monitor {
    /// Watch the given nodes.
    pub fn new(nodes: &[NodeId]) -> Monitor {
        Monitor {
            hosts: nodes
                .iter()
                .map(|&node| HostState {
                    node,
                    load1: LoadAvg::one_minute(),
                    prev_busy: 0.0,
                    prev_t: SimTime::ZERO,
                    load1_series: Series::new(),
                    cpu_series: Series::new(),
                })
                .collect(),
            started: false,
        }
    }

    fn sample(&mut self, cx: &mut ClientCx) {
        let now = cx.now();
        for h in &mut self.hosts {
            let runnable = cx.net.node_runnable(h.node) as f64;
            h.load1.update(now, runnable);
            h.load1_series.push(now, h.load1.value());

            let busy = cx.net.node_busy_core_seconds(h.node, now);
            let dt = now.saturating_since(h.prev_t).as_secs_f64();
            let cores = cx.net.node_cores(h.node) as f64;
            let cpu_pct = if dt > 0.0 {
                ((busy - h.prev_busy) / dt / cores * 100.0).clamp(0.0, 100.0)
            } else {
                0.0
            };
            h.cpu_series.push(now, cpu_pct);
            h.prev_busy = busy;
            h.prev_t = now;
            if cx.net.obs.metrics_on() {
                let name = cx.net.topo.node(h.node).name.clone();
                cx.net
                    .obs
                    .gauge(&format!("ganglia.load1.{name}"), now, h.load1.value());
                cx.net
                    .obs
                    .gauge(&format!("ganglia.cpu_pct.{name}"), now, cpu_pct);
            }
        }
    }

    fn host(&self, node: NodeId) -> Option<&HostState> {
        self.hosts.iter().find(|h| h.node == node)
    }

    /// Mean load1 of `node` over `[start, end)`.
    pub fn load1_mean(&self, node: NodeId, start: SimTime, end: SimTime) -> f64 {
        self.host(node)
            .map_or(0.0, |h| h.load1_series.mean_in(start, end))
    }

    /// Mean CPU load (%) of `node` over the window.
    pub fn cpu_mean(&self, node: NodeId, start: SimTime, end: SimTime) -> f64 {
        self.host(node)
            .map_or(0.0, |h| h.cpu_series.mean_in(start, end))
    }
}

impl Client for Monitor {
    fn on_start(&mut self, cx: &mut ClientCx) {
        debug_assert!(!self.started);
        self.started = true;
        self.sample(cx);
        cx.wake_in(SAMPLE_PERIOD, 0);
    }

    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        self.sample(cx);
        cx.wake_in(SAMPLE_PERIOD, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Engine;
    use simnet::{
        Eng, Net, Payload, Plan, ReqOutcome, RequestSpec, Service, ServiceConfig, StatsHub, SvcCx,
        SvcKey, Topology,
    };
    use std::rc::Rc;

    /// Service burning a lot of CPU per request.
    struct Burner;

    impl Service for Burner {
        fn handle(&mut self, _req: Payload, _cx: &mut SvcCx) -> Plan {
            Plan::new().cpu(2_000_000.0).reply(Rc::new(()), 64) // 2 CPU-seconds
        }
    }

    /// Client hammering the burner with `n` parallel request streams.
    struct Hammer {
        from: NodeId,
        to: SvcKey,
        streams: u32,
    }

    impl Client for Hammer {
        fn on_start(&mut self, cx: &mut ClientCx) {
            for i in 0..self.streams {
                cx.submit(
                    RequestSpec {
                        from: self.from,
                        to: self.to,
                        payload: Rc::new(()),
                        req_bytes: 100,
                    },
                    i as u64,
                );
            }
        }
        fn on_outcome(&mut self, o: ReqOutcome, cx: &mut ClientCx) {
            cx.submit(
                RequestSpec {
                    from: self.from,
                    to: self.to,
                    payload: Rc::new(()),
                    req_bytes: 100,
                },
                o.tag,
            );
        }
    }

    #[test]
    fn monitor_sees_busy_server() {
        let mut topo = Topology::new();
        let client = topo.add_node("client", 1, 1.0);
        let server = topo.add_node("server", 2, 1.0);
        topo.connect(client, server, 100e6, SimDuration::from_micros(100));
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(600)));
        let mut eng: Eng = Engine::new(3);
        let svc = net.add_service(server, ServiceConfig::default(), Box::new(Burner), &mut eng);
        net.add_client(Box::new(Hammer {
            from: client,
            to: svc,
            streams: 6,
        }));
        let mon = net.add_client(Box::new(Monitor::new(&[server, client])));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(300));
        let monitor: &Monitor = net.client_as(mon).unwrap();
        let (s, e) = (SimTime::from_secs(60), SimTime::from_secs(300));
        // 6 concurrent 2s-CPU jobs on 2 cores: saturated.
        let cpu = monitor.cpu_mean(server, s, e);
        assert!(cpu > 90.0, "server cpu {cpu}");
        let load1 = monitor.load1_mean(server, s, e);
        assert!(load1 > 4.0, "server load1 {load1}");
        // The client node does nothing CPU-bound.
        let client_cpu = monitor.cpu_mean(client, s, e);
        assert!(client_cpu < 5.0, "client cpu {client_cpu}");
        // Series lengths: one sample per 5s.
        let series = &monitor.host(server).unwrap().load1_series;
        assert!(series.points.len() >= 59, "samples {}", series.points.len());
    }

    #[test]
    fn idle_host_has_zero_metrics() {
        let mut topo = Topology::new();
        let a = topo.add_node("idle", 2, 1.0);
        let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(100)));
        let mut eng: Eng = Engine::new(4);
        let mon = net.add_client(Box::new(Monitor::new(&[a])));
        net.start(&mut eng);
        eng.run_until(&mut net, SimTime::from_secs(100));
        let monitor: &Monitor = net.client_as(mon).unwrap();
        assert_eq!(
            monitor.cpu_mean(a, SimTime::ZERO, SimTime::from_secs(100)),
            0.0
        );
        assert_eq!(
            monitor.load1_mean(a, SimTime::ZERO, SimTime::from_secs(100)),
            0.0
        );
    }

    #[test]
    fn unknown_node_returns_zero() {
        let mon = Monitor::new(&[]);
        assert_eq!(mon.load1_mean(NodeId(99), SimTime::ZERO, SimTime::MAX), 0.0);
        assert_eq!(mon.cpu_mean(NodeId(99), SimTime::ZERO, SimTime::MAX), 0.0);
    }
}
