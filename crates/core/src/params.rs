//! Calibrated simulation parameters.
//!
//! Absolute costs cannot be recovered from a 2003 testbed, so every
//! constant here is calibrated so the *mechanisms* the paper identifies
//! reproduce its reported curve shapes.  Each field's doc comment names
//! the observation it is calibrated against.  The experiment runners use
//! [`Params::default`]; ablation benches vary individual fields.

use crate::mapping::System;
use simcore::SimDuration;
use simnet::{ServiceConfig, SetupCost};

/// All tunables of the study, bundled.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    // ------------------------------------------------------------ network
    /// WAN capacity between UC and ANL, each direction: a DS-3-class path.
    /// It caps servers with large replies (Set 4's GIIS); a 10× change
    /// moves set 2's GIIS by < 2 % (`tests/paper_claims.rs`).
    pub wan_bps: f64,
    /// One-way WAN latency (Chicago -> Argonne).
    pub wan_latency: SimDuration,

    // ---------------------------------------------------------------- MDS
    /// Concurrent connections a slapd-based GRIS/GIIS accepts.
    pub mds_conn_capacity: u32,
    /// Listen backlog of slapd.
    pub mds_backlog: u32,
    /// slapd worker threads on a GRIS.
    pub mds_workers: u32,
    /// slapd worker threads on the GIIS (the aggregate backend spends
    /// most of its time in the single-threaded database layer; fewer
    /// effective workers keep Fig 11's GIIS load1 in the observed range).
    pub giis_workers: u32,
    /// MDS 2.1 session establishment: the GSI-authenticated bind.  Its
    /// fixed cost dominates the cached-GRIS response time — the flat
    /// ≈4 s of Fig 6 — and, through Little's law with the 1 s think
    /// time, yields the near-linear throughput of Fig 5.
    pub gris_setup: SetupCost,
    /// GIIS binds are anonymous in the paper's directory experiments;
    /// session setup is cheaper, keeping Fig 10's response under 2 s.
    pub giis_setup: SetupCost,
    /// Client-side CPU of one MDS query script (fork + `grid-proxy` +
    /// `ldapsearch`): contention among the ≤50 users per UC machine.
    pub mds_client_cpu_us: f64,
    /// GIIS cache TTL in Experiment 4 (Experiment 2 pins the cache).
    pub giis_exp4_cachettl: SimDuration,

    // ------------------------------------------------------------ Hawkeye
    /// The Agent is a single Startd process: one worker.
    pub agent_conn_capacity: u32,
    pub agent_backlog: u32,
    /// Manager accept capacity (the collector is select-based but
    /// bounded); beyond it queries are refused — Fig 11's load plateau.
    pub manager_conn_capacity: u32,
    pub manager_backlog: u32,
    /// Client-side CPU of one `condor_status`-style query.
    pub condor_client_cpu_us: f64,

    // -------------------------------------------------------------- R-GMA
    /// Servlet-container connection capacity (Tomcat-class defaults).
    pub servlet_conn_capacity: u32,
    pub servlet_backlog: u32,
    /// Servlet worker threads.
    pub servlet_workers: u32,
    /// Session setup for the HTTP/XML servlets.
    pub servlet_setup: SetupCost,
    /// Client-side CPU of one consumer query (Java API call on a warm
    /// JVM).
    pub rgma_client_cpu_us: f64,

    // ----------------------------------------------------------- workload
    /// The paper's 1-second wait between a response and the next query.
    pub think: SimDuration,
    /// Connect-retry backoff: base and cap.  TCP retransmits SYNs at ~3 s.
    /// It sets how often a saturated server refuses, not Figs 7–8's load
    /// plateaus: a 4× base with a 16× cap leaves the ProducerServlet and
    /// GRIS columns of Figs 5–8 bit-equal and moves the Agent's load1 ≤ 0.6 %.
    pub retry_base: SimDuration,
    pub retry_cap: SimDuration,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            wan_bps: 40e6,
            wan_latency: SimDuration::from_millis(5),

            mds_conn_capacity: 1024,
            mds_backlog: 128,
            mds_workers: 16,
            giis_workers: 4,
            gris_setup: SetupCost {
                extra_rtts: 4.0,
                fixed: SimDuration::from_millis(3_500),
                server_cpu_us: 6_000.0,
            },
            giis_setup: SetupCost {
                extra_rtts: 2.0,
                fixed: SimDuration::from_millis(450),
                server_cpu_us: 5_000.0,
            },
            mds_client_cpu_us: 120_000.0,
            giis_exp4_cachettl: SimDuration::from_secs(30),

            agent_conn_capacity: 12,
            agent_backlog: 6,
            manager_conn_capacity: 256,
            manager_backlog: 64,
            condor_client_cpu_us: 180_000.0,

            servlet_conn_capacity: 75,
            servlet_backlog: 50,
            servlet_workers: 40,
            servlet_setup: SetupCost {
                extra_rtts: 1.0,
                fixed: SimDuration::from_millis(40),
                server_cpu_us: 6_000.0,
            },
            rgma_client_cpu_us: 35_000.0,

            think: SimDuration::from_secs(1),
            retry_base: SimDuration::from_secs(3),
            retry_cap: SimDuration::from_secs(12),
        }
    }
}

impl Params {
    /// A stable fingerprint of every parameter that can affect a run of
    /// `sys` — the shared network/workload constants plus that system's
    /// own tunables.  The parallel runner keys its result cache on this,
    /// so editing (say) a Hawkeye constant invalidates only Hawkeye
    /// series.
    ///
    /// Implementation: fields belonging to the *other* systems are reset
    /// to their defaults and the whole struct is `Debug`-formatted.  A
    /// newly added field is therefore included for every system until it
    /// is classified below — the conservative failure mode (spurious
    /// recomputation), never a stale cache hit.
    pub fn fingerprint(&self, sys: System) -> String {
        let d = Params::default();
        let mut p = *self;
        if sys != System::Mds {
            p.mds_conn_capacity = d.mds_conn_capacity;
            p.mds_backlog = d.mds_backlog;
            p.mds_workers = d.mds_workers;
            p.giis_workers = d.giis_workers;
            p.gris_setup = d.gris_setup;
            p.giis_setup = d.giis_setup;
            p.mds_client_cpu_us = d.mds_client_cpu_us;
            p.giis_exp4_cachettl = d.giis_exp4_cachettl;
        }
        if sys != System::Hawkeye {
            p.agent_conn_capacity = d.agent_conn_capacity;
            p.agent_backlog = d.agent_backlog;
            p.manager_conn_capacity = d.manager_conn_capacity;
            p.manager_backlog = d.manager_backlog;
            p.condor_client_cpu_us = d.condor_client_cpu_us;
        }
        if sys != System::Rgma {
            p.servlet_conn_capacity = d.servlet_conn_capacity;
            p.servlet_backlog = d.servlet_backlog;
            p.servlet_workers = d.servlet_workers;
            p.servlet_setup = d.servlet_setup;
            p.rgma_client_cpu_us = d.rgma_client_cpu_us;
        }
        format!("{}:{p:?}", sys.name())
    }

    /// Service configuration of a GRIS.
    pub fn gris_config(&self) -> ServiceConfig {
        ServiceConfig {
            conn_capacity: self.mds_conn_capacity,
            backlog: self.mds_backlog,
            workers: Some(self.mds_workers),
            setup: self.gris_setup,
        }
    }

    /// Service configuration of a GIIS.
    pub fn giis_config(&self) -> ServiceConfig {
        ServiceConfig {
            conn_capacity: self.mds_conn_capacity,
            backlog: self.mds_backlog,
            workers: Some(self.giis_workers),
            setup: self.giis_setup,
        }
    }

    /// Service configuration of a Hawkeye Agent (single Startd process).
    pub fn agent_config(&self) -> ServiceConfig {
        ServiceConfig {
            conn_capacity: self.agent_conn_capacity,
            backlog: self.agent_backlog,
            workers: Some(1),
            setup: SetupCost::plain(),
        }
    }

    /// Service configuration of the Hawkeye Manager.
    pub fn manager_config(&self) -> ServiceConfig {
        ServiceConfig {
            conn_capacity: self.manager_conn_capacity,
            backlog: self.manager_backlog,
            workers: Some(2),
            setup: SetupCost::plain(),
        }
    }

    /// Service configuration of an R-GMA servlet (Producer/Consumer/
    /// Registry alike).
    pub fn servlet_config(&self) -> ServiceConfig {
        ServiceConfig {
            conn_capacity: self.servlet_conn_capacity,
            backlog: self.servlet_backlog,
            workers: Some(self.servlet_workers),
            setup: self.servlet_setup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = Params::default();
        assert!(p.wan_bps > 1e6);
        assert!(p.gris_setup.fixed > p.giis_setup.fixed);
        assert!(p.mds_client_cpu_us > p.rgma_client_cpu_us);
        assert_eq!(p.agent_config().workers, Some(1));
        assert!(p.servlet_config().conn_capacity < p.gris_config().conn_capacity);
    }

    #[test]
    fn fingerprint_scopes_params_by_system() {
        let base = Params::default();
        let mut tweaked = base;
        tweaked.condor_client_cpu_us += 1.0;
        // A Hawkeye edit changes only the Hawkeye fingerprint...
        assert_ne!(
            base.fingerprint(System::Hawkeye),
            tweaked.fingerprint(System::Hawkeye)
        );
        assert_eq!(
            base.fingerprint(System::Mds),
            tweaked.fingerprint(System::Mds)
        );
        assert_eq!(
            base.fingerprint(System::Rgma),
            tweaked.fingerprint(System::Rgma)
        );
        // ...while a shared (network) edit changes all three.
        let mut wan = base;
        wan.wan_bps *= 2.0;
        for sys in System::ALL {
            assert_ne!(base.fingerprint(sys), wan.fingerprint(sys));
        }
        // Fingerprints are system-tagged, so identical normalized params
        // under different systems never collide.
        assert_ne!(
            base.fingerprint(System::Mds),
            base.fingerprint(System::Rgma)
        );
    }
}
