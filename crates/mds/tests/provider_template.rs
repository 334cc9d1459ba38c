//! A fleet's providers, built once and placed on each host, equal the
//! providers built for that host alone.
//!
//! `ProviderTemplate::for_host` rebases entries built under relative DNs
//! and overwrites each device's `Mds-Host-hn`; the reference below builds
//! every entry from scratch under the host's own DN, as the deployment
//! did before hosts shared a template.  They must agree entry for entry:
//! `==`, wire size and LDIF text.

use ldapdir::{entry_to_ldif, Dn, Entry};
use mds::{ProviderSpec, ProviderTemplate};
use proptest::prelude::*;
use simcore::SimDuration;

/// The reference: `n` providers for `host` under `suffix`, each entry
/// built under its absolute DN.
fn providers_built_per_host(
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
                exec_cpu_us: mds::provider::DEFAULT_EXEC_CPU_US * (0.87 + 0.039 * (i % 7) as f64),
                cachettl: ttl,
                entries,
            }
        })
        .collect()
}

fn arb_ttl() -> impl Strategy<Value = Option<SimDuration>> {
    prop_oneof![
        Just(None),
        (0u64..120).prop_map(|s| Some(SimDuration::from_secs(s))),
    ]
}

proptest! {
    #[test]
    fn template_hosts_equal_hosts_built_alone(
        vo in "[a-z0-9-]{1,10}",
        org in "[a-z]{1,5}",
        hosts in proptest::collection::vec("[A-Za-z0-9.-]{1,14}", 1..4),
        n in 1usize..=90,
        ttl in arb_ttl(),
    ) {
        let suffix = Dn::parse(&format!("Mds-Vo-name={vo}, o={org}")).unwrap();
        let template = ProviderTemplate::new(n, ttl);
        for host in &hosts {
            let got = template.for_host(&suffix, host);
            let want = providers_built_per_host(&suffix, host, n, ttl);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.name, w.name);
                assert_eq!(g.exec_cpu_us.to_bits(), w.exec_cpu_us.to_bits());
                assert_eq!(g.cachettl, w.cachettl);
                assert_eq!(g.entries.len(), w.entries.len());
                for (ge, we) in g.entries.iter().zip(&w.entries) {
                    assert_eq!(ge, we);
                    assert_eq!(ge.wire_size(), we.wire_size());
                    assert_eq!(entry_to_ldif(ge), entry_to_ldif(we));
                }
            }
        }
    }
}
