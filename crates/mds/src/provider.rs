//! Information providers.
//!
//! An MDS information provider is an executable the GRIS runs (fork +
//! exec + script runtime) to produce a handful of LDAP entries.  A default
//! MDS 2.1 installation ships ten providers per host; the paper's
//! Experiment Set 3 scales this to 90 by cloning the memory provider.

use ldapdir::{Dn, Entry};
use simcore::SimDuration;

/// Definition of one information provider.
pub struct ProviderSpec {
    /// Provider name (also its subtree label under the host entry).
    pub name: String,
    /// CPU cost of one invocation (fork + exec + script) in
    /// reference-CPU microseconds.
    pub exec_cpu_us: f64,
    /// How long its data stays fresh in the GRIS cache.  `None` means
    /// never expires ("data always in cache"); zero means always stale
    /// ("data never in cache").
    pub cachettl: Option<SimDuration>,
    /// The entries one invocation produces, rooted under the GRIS suffix.
    pub entries: Vec<Entry>,
}

/// Default invocation cost: MDS providers are shell/Perl scripts; a fork,
/// exec and parse on a 1133 MHz PIII costs on the order of 50 ms.  Each
/// provider's actual cost varies a little around this (deterministically,
/// by index) so the serialized execution pipeline is not exactly
/// periodic — a perfectly regular cycle aliases with Ganglia's 5-second
/// sampling.
pub const DEFAULT_EXEC_CPU_US: f64 = 50_000.0;

/// The `n` providers every host of a fleet runs, in the spirit of the
/// default MDS host providers (the first ten have distinct schemas; the
/// rest are clones of the memory provider, exactly how the paper expanded
/// the provider count).  Built once, with each provider's group entry
/// first and its device entries after it, all under DNs relative to the
/// host entry; [`ProviderTemplate::for_host`] places them on a host.
pub struct ProviderTemplate(Vec<ProviderSpec>);

impl ProviderTemplate {
    pub fn new(n: usize, ttl: Option<SimDuration>) -> ProviderTemplate {
        let kinds = [
            ("cpu", 3),
            ("memory", 2),
            ("filesystem", 4),
            ("os", 2),
            ("net", 3),
            ("platform", 2),
            ("queue", 3),
            ("software", 4),
            ("users", 2),
            ("bench", 2),
        ];
        let providers = (0..n).map(|i| {
            let (kind, n_devices) = kinds.get(i).copied().unwrap_or(("memory-clone", 2));
            let name = if i < kinds.len() {
                kind.to_string()
            } else {
                format!("{kind}-{i}")
            };
            let group_dn = Dn::root().child("Mds-Device-Group-name", &name);
            let mut group = Entry::new(group_dn.clone());
            group
                .add("objectclass", "MdsDeviceGroup")
                .add("Mds-Device-Group-name", &name);
            let metric = format!("Mds-{kind}-metric");
            let devices = (0..n_devices).map(|j| {
                let device = format!("{name}-dev{j}");
                let mut e = Entry::new(group_dn.child("Mds-Device-name", &device));
                e.add("objectclass", "MdsDevice")
                    .add("Mds-Device-name", device)
                    .add("Mds-Host-hn", "")
                    .add("Mds-validfrom", "2003-01-01 00:00:00")
                    .add("Mds-validto", "2003-01-01 00:00:30")
                    .add(&metric, (17 * (i + 1) + j).to_string())
                    .add("Mds-keepto", "2003-01-01 00:00:30");
                e
            });
            let entries = std::iter::once(group).chain(devices).collect();
            ProviderSpec {
                name,
                exec_cpu_us: DEFAULT_EXEC_CPU_US * (0.87 + 0.039 * (i % 7) as f64),
                cachettl: ttl,
                entries,
            }
        });
        ProviderTemplate(providers.collect())
    }

    /// The providers of `host`, their entries under
    /// `suffix.child("Mds-Host-hn", host)`.  A group entry holds nothing
    /// host-specific, so every host shares its attribute list; a device
    /// entry copies its list once, to name the host.
    pub fn for_host(&self, suffix: &Dn, host: &str) -> Vec<ProviderSpec> {
        let host_dn = suffix.child("Mds-Host-hn", host);
        let place = |(j, e): (usize, &Entry)| {
            let mut placed = e.clone();
            placed.dn =
                e.dn.rebase(&Dn::root(), &host_dn)
                    .expect("DNs are under the root");
            if j > 0 {
                placed.put("Mds-Host-hn", host);
            }
            placed
        };
        let provider = |p: &ProviderSpec| ProviderSpec {
            name: p.name.clone(),
            entries: p.entries.iter().enumerate().map(place).collect(),
            ..*p
        };
        self.0.iter().map(provider).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total serialized size of a provider's data.
    fn data_bytes(p: &ProviderSpec) -> u64 {
        p.entries.iter().map(Entry::wire_size).sum()
    }

    fn providers(suffix: &Dn, host: &str, n: usize) -> Vec<ProviderSpec> {
        ProviderTemplate::new(n, None).for_host(suffix, host)
    }

    #[test]
    fn builds_requested_count() {
        let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let ps = providers(&suffix, "lucky7", 10);
        assert_eq!(ps.len(), 10);
        // First ten have distinct names.
        let names: std::collections::BTreeSet<_> = ps.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 10);
        // 90-provider expansion clones the memory provider.
        let ps90 = providers(&suffix, "lucky7", 90);
        assert_eq!(ps90.len(), 90);
        assert!(ps90[50].name.starts_with("memory-clone"));
    }

    #[test]
    fn entries_are_rooted_under_the_host() {
        let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let ps = providers(&suffix, "lucky7", 3);
        let host_dn = suffix.child("mds-host-hn", "lucky7");
        for p in &ps {
            assert!(!p.entries.is_empty());
            for e in &p.entries {
                assert!(e.dn.is_under(&host_dn), "{} not under host", e.dn);
            }
            assert!(data_bytes(p) > 100);
        }
    }

    #[test]
    fn hosts_of_a_fleet_share_their_group_entries() {
        let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let fleet = ProviderTemplate::new(10, None);
        let (a, b) = (fleet.for_host(&suffix, "a"), fleet.for_host(&suffix, "b"));
        for (pa, pb) in a.iter().zip(&b) {
            assert!(pa.entries[0].shares_attrs_with(&pb.entries[0]));
            assert!(!pa.entries[1].shares_attrs_with(&pb.entries[1]));
            assert_eq!(pa.entries[1].get("Mds-Host-hn")[0].1.as_str(), "a");
        }
    }

    #[test]
    fn rebuilding_the_set4_fleet_interns_nothing_new() {
        // Entry values are interned and the table never frees, so a
        // fleet's providers must draw on a vocabulary the deployment
        // fixes: building the same 500 hosts again adds no string.
        let fleet = || {
            let template = ProviderTemplate::new(10, None);
            for h in 0..500 {
                let suffix = Dn::parse(&format!("mds-vo-name=resource-{h}, o=grid")).unwrap();
                template.for_host(&suffix, &format!("lucky{h}"));
            }
        };
        fleet();
        let before = gintern::table_len();
        fleet();
        assert_eq!(gintern::table_len(), before);
    }

    #[test]
    fn provider_data_grows_with_count() {
        let suffix = Dn::parse("o=grid").unwrap();
        let p10: u64 = providers(&suffix, "h", 10).iter().map(data_bytes).sum();
        let p90: u64 = providers(&suffix, "h", 90).iter().map(data_bytes).sum();
        assert!(p90 > p10 * 4);
    }
}
