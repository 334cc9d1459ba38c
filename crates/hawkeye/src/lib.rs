//! # hawkeye — Condor's Hawkeye monitoring system (0.1.4)
//!
//! Hawkeye automates problem detection in a Condor pool.  Its four-level
//! architecture is modelled with [`simnet`] services over the
//! [`classad`] substrate:
//!
//! * **Modules** ([`module`]): sensors producing resource information as
//!   ClassAd attributes (a standard install runs eleven per host).
//! * **Agent** ([`agent`]): runs on every pool member, integrates its
//!   Modules' ClassAds into a single *Startd ClassAd* and sends it to the
//!   Manager at fixed 30-second intervals.  The Agent holds no indexed
//!   resident database: answering a query means re-collecting fresh
//!   module data — which is why the paper finds it much slower than the
//!   Manager under load.
//! * **Manager** ([`manager`]): the pool's head node.  It stores Startd
//!   ads in an indexed resident database, answers status queries, and
//!   performs ClassAd matchmaking of submitted *Trigger ClassAds*
//!   against incoming ads (firing a notification when one matches).
//! * **Advertiser fleet** ([`manager::AdvertiserFleet`]): the
//!   `hawkeye_advertise` load generator the paper used to simulate up to
//!   1000 pool members sending Startd ads every 30 seconds.

#![forbid(unsafe_code)]

pub mod agent;
pub mod manager;
pub mod module;
pub mod proto;

pub use agent::Agent;
pub use manager::{AdvertiserFleet, Manager};
pub use module::{default_modules, ModuleSpec};
pub use proto::HawkeyeMsg;
