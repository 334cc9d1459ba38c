//! # gridmon — a performance study of Grid monitoring services
//!
//! Umbrella crate for the reproduction of *"A Performance Study of
//! Monitoring and Information Services for Distributed Systems"* (Zhang,
//! Freschl, Schopf — HPDC 2003).  It re-exports every workspace crate
//! under one roof:
//!
//! | Module | Contents |
//! |---|---|
//! | [`simcore`] | discrete-event simulation kernel |
//! | [`simnet`] | flow-level network + service/plan execution |
//! | [`ldap`] | in-memory LDAP directory (MDS substrate) |
//! | [`relsql`] | in-memory relational engine (R-GMA substrate) |
//! | [`classad`] | ClassAd language + matchmaking (Hawkeye substrate) |
//! | [`mds`] | Globus MDS 2.1 model (providers, GRIS, GIIS) |
//! | [`rgma`] | R-GMA 1.18 model (producers, servlets, registry) |
//! | [`hawkeye`] | Hawkeye 0.1.4 model (modules, agent, manager) |
//! | [`workload`] | closed-loop simulated users |
//! | [`core`] | the comparative study: the Lucky/UC testbed, Ganglia host sampling, scenario compiler, series catalogue, figures, reports |
//!
//! Start with the `quickstart` example, then see
//! [`core::scenario::catalogue`] for the series of the paper's four
//! experiment sets (figures 5–20) and of the resilience and federation
//! sets this reproduction adds (figures 21–28).

#![forbid(unsafe_code)]

pub use classad;
pub use gridmon_core as core;
pub use hawkeye;
pub use ldapdir as ldap;
pub use mds;
pub use relsql;
pub use rgma;
pub use simcore;
pub use simnet;
pub use workload;
