//! Wire messages of the MDS model.

use ldapdir::{Dn, Entry, Filter, Scope};
use simnet::SvcKey;

/// A request to a GRIS or GIIS.
#[derive(Clone, PartialEq)]
pub enum MdsRequest {
    /// An LDAP search.
    Search {
        base: Dn,
        scope: Scope,
        filter: Filter,
        /// Attribute selection: `None` returns whole entries, `Some`
        /// projects each hit to the listed attribute types (how a client
        /// asks for "only a portion of the data").
        attrs: Option<Vec<String>>,
    },
}

impl MdsRequest {
    /// Search the whole tree for everything.
    pub fn search_all(base: Dn) -> MdsRequest {
        MdsRequest::Search {
            base,
            scope: Scope::Sub,
            filter: Filter::any(),
            attrs: None,
        }
    }

    /// Approximate LDAP request size on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            MdsRequest::Search {
                base,
                filter,
                attrs,
                ..
            } => {
                64 + base.display_len() as u64
                    + filter.display_len() as u64
                    + attrs
                        .as_ref()
                        .map_or(0, |a| a.iter().map(|x| x.len() as u64 + 2).sum())
            }
        }
    }
}

/// A search result: the matching entries plus their serialized size.
///
/// `total` is the full hit count; for very large aggregate results the
/// GIIS truncates the `entries` payload (the simulated wire size `bytes`
/// still reflects every hit).  A server memoizes the whole result as an
/// `Rc` (see [`crate::cache`]) and answers repeated identical queries
/// with clones of it.
pub struct MdsSearchResult {
    pub entries: Vec<Entry>,
    pub total: usize,
    pub bytes: u64,
}

/// Soft-state registration sent by a GRIS to a GIIS (and GIIS to parent
/// GIIS) every registration period.
pub struct GrisRegistration {
    /// The registering service.
    pub gris: SvcKey,
    /// Root of the registered subtree in the GRIS's own namespace.
    pub suffix: Dn,
}

/// Size of a registration message (a short LDAP add of a registration
/// entry).
pub const REGISTRATION_BYTES: u64 = 360;
