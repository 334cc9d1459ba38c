//! # mds — the Globus Monitoring and Discovery Service (MDS 2.1)
//!
//! MDS is the LDAP-based Grid information service of the Globus Toolkit.
//! Its hierarchy has three layers, all modelled here as [`simnet`]
//! services over the [`ldapdir`] substrate:
//!
//! * **Information providers** ([`provider`]): programs the GRIS forks to
//!   produce LDAP entries (host CPU, memory, filesystem ...).  Each
//!   invocation costs CPU; this is the expense that caching avoids.
//! * **GRIS** ([`gris`]): the resource-level LDAP server.  Per-provider
//!   cache TTLs decide whether a search can be answered from cached
//!   entries or must re-run providers first (the paper's "data always in
//!   cache" vs "data never in cache" configurations).
//! * **GIIS** ([`giis`]): the aggregate directory.  GRISes register via a
//!   soft-state protocol; the GIIS pulls and caches their subtrees
//!   (`cachettl`) and answers searches over the merged directory.
//!
//! MDS 2.1 performs a GSI-authenticated bind per connection; the
//! corresponding session-establishment cost is configured on the service
//! (see [`simnet::SetupCost`]) rather than in this crate.

#![forbid(unsafe_code)]

pub mod giis;
pub mod gris;
pub mod proto;
pub mod provider;

pub use giis::Giis;
pub use gris::Gris;
pub use proto::{GrisRegistration, MdsRequest, MdsSearchResult};
pub use provider::{ProviderSpec, ProviderTemplate};
