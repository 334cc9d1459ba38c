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

/// Build `n` providers for `host` under `suffix`, in the spirit of the
/// default MDS host providers (the first ten have distinct schemas; the
/// rest are clones of the memory provider, exactly how the paper expanded
/// the provider count).
pub fn default_providers(
    suffix: &Dn,
    host: &str,
    n: usize,
    ttl: Option<SimDuration>,
) -> Vec<ProviderSpec> {
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
    let host_dn = suffix.child("Mds-Host-hn", host);
    (0..n)
        .map(|i| {
            let (kind, entries_n): (&str, usize) = if i < kinds.len() {
                (kinds[i].0, kinds[i].1)
            } else {
                ("memory-clone", 2)
            };
            let name = format!(
                "{kind}{}",
                if i >= kinds.len() {
                    format!("-{i}")
                } else {
                    String::new()
                }
            );
            let group_dn = host_dn.child("Mds-Device-Group-name", &name);
            let mut entries = Vec::new();
            let mut group = Entry::new(group_dn.clone());
            group
                .add("objectclass", "MdsDeviceGroup")
                .add("Mds-Device-Group-name", &name);
            entries.push(group);
            for j in 0..entries_n {
                let dn = group_dn.child("Mds-Device-name", &format!("{name}-dev{j}"));
                let mut e = Entry::new(dn);
                e.add("objectclass", "MdsDevice")
                    .add("Mds-Device-name", format!("{name}-dev{j}"))
                    .add("Mds-Host-hn", host)
                    .add("Mds-validfrom", "2003-01-01 00:00:00")
                    .add("Mds-validto", "2003-01-01 00:00:30")
                    .add(
                        &format!("Mds-{kind}-metric"),
                        format!("{}", 17 * (i + 1) + j),
                    )
                    .add("Mds-keepto", "2003-01-01 00:00:30");
                entries.push(e);
            }
            ProviderSpec {
                name,
                exec_cpu_us: DEFAULT_EXEC_CPU_US * (0.87 + 0.039 * (i % 7) as f64),
                cachettl: ttl,
                entries,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total serialized size of a provider's data.
    fn data_bytes(p: &ProviderSpec) -> u64 {
        p.entries.iter().map(Entry::wire_size).sum()
    }

    #[test]
    fn builds_requested_count() {
        let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let ps = default_providers(&suffix, "lucky7", 10, None);
        assert_eq!(ps.len(), 10);
        // First ten have distinct names.
        let names: std::collections::BTreeSet<_> = ps.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 10);
        // 90-provider expansion clones the memory provider.
        let ps90 = default_providers(&suffix, "lucky7", 90, None);
        assert_eq!(ps90.len(), 90);
        assert!(ps90[50].name.starts_with("memory-clone"));
    }

    #[test]
    fn entries_are_rooted_under_the_host() {
        let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
        let ps = default_providers(&suffix, "lucky7", 3, None);
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
    fn rebuilding_the_set4_fleet_interns_nothing_new() {
        // Entry values are interned and the table never frees, so a
        // fleet's providers must draw on a vocabulary the deployment
        // fixes: building the same 500 hosts again adds no string.
        let fleet = || {
            for h in 0..500 {
                let suffix = Dn::parse(&format!("mds-vo-name=resource-{h}, o=grid")).unwrap();
                default_providers(&suffix, &format!("lucky{h}"), 10, None);
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
        let p10: u64 = default_providers(&suffix, "h", 10, None)
            .iter()
            .map(data_bytes)
            .sum();
        let p90: u64 = default_providers(&suffix, "h", 90, None)
            .iter()
            .map(data_bytes)
            .sum();
        assert!(p90 > p10 * 4);
    }
}
