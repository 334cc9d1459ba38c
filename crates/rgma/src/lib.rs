//! # rgma — the Relational Grid Monitoring Architecture (R-GMA 1.18)
//!
//! R-GMA implements the GGF Grid Monitoring Architecture with a
//! relational twist: the whole Grid is presented as one virtual database.
//! The components, all modelled as [`simnet`] services over the
//! [`relsql`] substrate:
//!
//! * **Producers** ([`producer`]): data sources that advertise a table
//!   (name + fixed-attribute predicate) and publish tuples into it.
//! * **ProducerServlet** ([`servlets::ProducerServlet`]): the Java
//!   servlet hosting producers' tuple stores; answers SQL queries against
//!   them and streams tuples to subscribed consumers (the push mode).
//! * **Registry** ([`registry`]): the RDBMS holding every producer's
//!   registration; consumers' servlets consult it to locate producers
//!   for a table.
//! * **ConsumerServlet** ([`servlets::ConsumerServlet`]): executes a
//!   consumer's SQL query by looking up matching producers in the
//!   Registry and merging their answers.
//!
//! Being servlet-based, every request pays a JVM dispatch cost, and the
//! tuple stores sit behind a per-servlet database lock — together these
//! reproduce the linear response-time growth and the modest throughput
//! ceiling the paper measures for R-GMA.

#![forbid(unsafe_code)]

pub mod composite;
pub mod producer;
pub mod proto;
pub mod registry;
pub mod servlets;

pub use composite::CompositeProducer;
pub use producer::ProducerSpec;
pub use proto::{ProducerList, RgmaMsg, SqlResultMsg};
pub use registry::Registry;
pub use servlets::{ConsumerServlet, ProducerServlet, TupleSink};

/// CPU cost of the servlet container dispatching one request (thread
/// allocation, HTTP parsing, JVM overhead) on the reference CPU.
pub const JVM_DISPATCH_CPU_US: f64 = 30_000.0;

/// CPU cost of parsing an SQL statement in the servlet.
pub const SQL_PARSE_CPU_US: f64 = 3_000.0;

/// CPU cost per row examined while executing a query.
pub const ROW_SCAN_CPU_US: f64 = 500.0;

/// Fixed CPU of touching the tuple-store / registry database.
pub const DB_FIXED_CPU_US: f64 = 20_000.0;
