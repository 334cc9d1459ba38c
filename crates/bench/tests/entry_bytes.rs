//! The heap one GRIS host's provider data holds.
//!
//! Set 4 puts up to 500 GRISes under one GIIS, and their providers'
//! entries are most of that point's peak heap: each host has ten
//! providers of a few LDAP entries, each entry a handful of attribute
//! values.  An entry keeps its values as one flat list of interned
//! `(type, value)` symbols, so it is one `Rc`, one list of 8-byte pairs
//! and its DN, and owns no strings.  The hosts of a fleet are placed from
//! one `ProviderTemplate` and share each provider's group entry list.
//! This pins the bytes in use per host at 7 KiB (6 551 B measured); hosts
//! built one by one, each with its own group lists (7 858 B per host),
//! fail it, and values boxed per entry (≈ 14.5 KB) fail it by far.
//!
//! Runs only with `--features alloc-profile` (which compiles the
//! counting global allocator in); without it the test is a no-op so
//! plain `cargo test` stays green.  The counter is process-wide, so this
//! file holds one `#[test]` and is a test process of its own.

use ldapdir::Dn;
use mds::ProviderTemplate;

/// Hosts measured after the warm-up host.
const HOSTS: usize = 100;

/// Bytes in use per host's providers, at most.
const HOST_BYTES_MAX: u64 = 7 * 1024;

#[test]
fn provider_entries_fit_the_byte_budget() {
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };
    let suffix = Dn::parse("mds-vo-name=local, o=grid").unwrap();
    // One template per fleet, as `deploy::giis_pool` builds it; the
    // warm-up host teaches the interner the host-independent strings.
    let template = ProviderTemplate::new(10, None);
    let warm = template.for_host(&suffix, "warmup");
    let before = gperf::alloc::stats().unwrap().in_use;
    let hosts: Vec<_> = (0..HOSTS)
        .map(|h| template.for_host(&suffix, &format!("lucky{h}")))
        .collect();
    let after = gperf::alloc::stats().unwrap().in_use;
    let per_host = (after - before) / HOSTS as u64;
    let entries: usize = hosts.iter().flatten().map(|p| p.entries.len()).sum();
    assert!(entries >= 10 * HOSTS, "{entries} entries built");
    assert!(
        per_host <= HOST_BYTES_MAX,
        "one host's provider data holds {per_host} B (budget {HOST_BYTES_MAX} B)"
    );
    eprintln!(
        "{per_host} B per host, {} entries per host",
        entries / HOSTS
    );
    drop((template, warm, hosts));
}
