//! # gridmon-diff — differential reference-oracle test layer
//!
//! Each measured hot path in the workspace keeps its original, simple
//! implementation alive as a *reference kernel*.  Every oracle lives
//! here or is a public function the simulator itself still runs — no
//! production crate carries oracle-only code or a feature to enable it:
//! the event engine ([`reference::RefEngine`]), the three-pass CPU
//! ([`reference::RefPsCpu`]), the allocate-per-step flow network
//! ([`reference::RefFlowNet`]), the ClassAd matchmaking wrappers that
//! enter through the `Requirements` attribute
//! ([`reference::symmetric_match`]) and the owned-`String` LDAP
//! `Dn`/`Entry` ([`ldap_reference`]) are modules of this crate, the
//! exhaustive DIT scan is a few lines over `Dit::iter` in `dit_diff`,
//! and the from-scratch water-filler (`FlowNet::capacity_changed`) is a
//! production path.  The property tests in this crate's `tests/`
//! directory drive the fast and reference paths with the same randomly
//! generated inputs and assert **bit-exact** agreement:
//!
//! * `classad_diff` — matchmaking over requirements held once per ad vs
//!   entering through the attribute, over random expressions, ads and
//!   matchmaking pairs;
//! * `flownet_diff` — incremental component-local max-min fair-share vs
//!   the from-scratch water-filler, and the scratch-keeping, path-sharing
//!   `FlowNet` vs the allocating [`reference::RefFlowNet`], over random
//!   topologies and start/abort/complete schedules;
//! * `pscpu_diff` — the one-pass `PsCpu` with its cached minimum vs the
//!   three-pass [`reference::RefPsCpu`], over random submit/abort/advance
//!   schedules;
//! * `engine_diff` — the compacting event calendar vs pure lazy deletion,
//!   and the typed-event engine vs the closure-scheduling [`mod@reference`]
//!   engine, over random schedule/cancel/reschedule scripts;
//! * `dit_diff` — the indexed DIT search vs the exhaustive reference
//!   scan, over random trees and queries;
//! * `wire_diff` — the wire size a `relsql` row or a `ClassAd` remembers
//!   vs a fresh rendering, over random mutation sequences.
//!
//! The generators come from the in-tree `proptest` shim, so every case is
//! deterministic and reproducible by number.  Bit-exactness (not
//! approximate equality) is the contract: the optimizations are
//! restructurings of identical arithmetic, so any divergence — even in
//! the last ulp — is a bug.

#![forbid(unsafe_code)]

pub mod ldap_reference;
pub mod reference;
