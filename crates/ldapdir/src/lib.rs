//! # ldapdir — an in-memory LDAP directory
//!
//! The Globus MDS 2.1 is built on OpenLDAP: a GRIS is an LDAP server whose
//! entries come from information providers, and a GIIS aggregates
//! registered GRIS subtrees under its own suffix.  This crate implements
//! the data model MDS relies on:
//!
//! * [`Dn`] — distinguished names with normalised, case-insensitive RDNs;
//! * [`Entry`] — multi-valued attribute records;
//! * [`Filter`] — the RFC 4515 search filters MDS sends: `&`, `|`, `!`,
//!   equality and presence (`(&(objectclass=MdsHost)(mds-cpu-total=*))`);
//! * [`Dit`] — the directory information tree with `base`/`one`/`sub`
//!   scoped search and LDIF rendering (used to compute realistic wire
//!   sizes for the simulated responses).
//!
//! ```
//! use ldapdir::{Dit, Dn, Entry, Filter, Scope};
//!
//! let mut dit = Dit::new(Dn::parse("o=grid").unwrap());
//! let mut e = Entry::new(Dn::parse("Mds-Host-hn=lucky7, o=grid").unwrap());
//! e.add("objectclass", "MdsHost");
//! e.add("Mds-Cpu-Total-count", "2");
//! dit.add(e).unwrap();
//!
//! let f = Filter::parse("(&(objectclass=mdshost)(mds-cpu-total-count=*))").unwrap();
//! let hits = dit.search(&Dn::parse("o=grid").unwrap(), Scope::Sub, &f);
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod dit;
pub mod dn;
pub mod entry;
pub mod filter;
pub mod ldif;

pub use dit::{Dit, DitError, Scope};
pub use dn::{Dn, DnError, Rdn};
pub use entry::Entry;
pub use filter::{Filter, FilterError};
pub use ldif::{entries_to_ldif, entry_to_ldif, parse_ldif, LdifError};
