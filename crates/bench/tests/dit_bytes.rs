//! The heap a directory adds on top of the entries it holds.
//!
//! Set 4 puts up to 500 GRISes under one GIIS: each GRIS keeps its
//! providers' entries in its own `Dit`, and the GIIS keeps all of them
//! again, rebased under one `sub-N` graft per GRIS.  A `Dit` is one
//! DN-ordered set of entries, each keyed by its own DN, so an entry costs
//! its set slot (and, in the GIIS, its rebased DN) beside the attribute
//! list it shares with the provider's copy.  This pins the bytes per
//! entry of a GRIS-shaped and a GIIS-shaped directory; a second copy of
//! each DN as a map key (≈ 30 B per entry) fails both, and a second index
//! beside the set (a child set per parent, ≈ 200 B per entry) fails them
//! by far.
//!
//! Runs only with `--features alloc-profile` (which compiles the
//! counting global allocator in); without it the test is a no-op so
//! plain `cargo test` stays green.  The counter is process-wide, so this
//! file holds one `#[test]` and is a test process of its own.

use ldapdir::{Dit, Dn};
use mds::{ProviderSpec, ProviderTemplate};

/// Hosts measured after the warm-up host.
const HOSTS: usize = 100;

/// Bytes in use per entry of a GRIS's directory, at most.
const GRIS_ENTRY_BYTES_MAX: u64 = 64;

/// Bytes in use per entry of the GIIS's directory, at most.
const GIIS_ENTRY_BYTES_MAX: u64 = 128;

/// One host: its GRIS suffix, its providers and its graft in the GIIS.
struct Host {
    suffix: Dn,
    providers: Vec<ProviderSpec>,
    graft: Dn,
}

fn host(template: &ProviderTemplate, giis: &Dn, h: usize) -> Host {
    let suffix = Dn::parse(&format!("mds-vo-name=resource-{h}, o=grid")).unwrap();
    Host {
        providers: template.for_host(&suffix, &format!("lucky{h}")),
        graft: giis.child("Mds-Vo-name", &format!("sub-{h}-0")),
        suffix,
    }
}

/// A GRIS's directory after every provider ran once.
fn gris_dit(host: &Host) -> Dit {
    let mut dit = Dit::new(host.suffix.clone());
    for e in host.providers.iter().flat_map(|p| &p.entries) {
        dit.upsert(e.clone()).unwrap();
    }
    dit
}

/// Merge `host`'s entries under its graft, as a GIIS pull does.
fn merge(giis: &mut Dit, host: &Host) {
    for e in host.providers.iter().flat_map(|p| &p.entries) {
        let mut e = e.clone();
        e.dn = e.dn.rebase(&host.suffix, &host.graft).unwrap();
        giis.upsert(e).unwrap();
    }
}

/// Bytes `build` leaves in use per entry of the directories it returns.
fn per_entry(build: impl FnOnce() -> Vec<Dit>) -> (u64, usize) {
    let before = gperf::alloc::stats().unwrap().in_use;
    let dits = build();
    let after = gperf::alloc::stats().unwrap().in_use;
    let entries: usize = dits.iter().map(Dit::scan_size).sum();
    drop(dits);
    ((after - before) / entries as u64, entries)
}

#[test]
fn directories_fit_the_byte_budget() {
    let Some(_) = gperf::alloc::stats() else {
        eprintln!("count-alloc not compiled in; skipping (run with --features alloc-profile)");
        return;
    };
    let giis_suffix = Dn::parse("mds-vo-name=site, o=giis").unwrap();
    // Warm-up: the interner learns the names and values every host
    // shares, and both directory shapes run once.
    let template = ProviderTemplate::new(10, None);
    let warm = host(&template, &giis_suffix, HOSTS);
    let mut warm_giis = Dit::new(giis_suffix.clone());
    merge(&mut warm_giis, &warm);
    let warm_gris = gris_dit(&warm);
    let hosts: Vec<Host> = (0..HOSTS)
        .map(|h| host(&template, &giis_suffix, h))
        .collect();

    let (gris, gris_entries) = per_entry(|| hosts.iter().map(gris_dit).collect());
    let (giis, giis_entries) = per_entry(|| {
        let mut dit = Dit::new(giis_suffix.clone());
        for h in &hosts {
            merge(&mut dit, h);
        }
        vec![dit]
    });
    eprintln!(
        "GRIS: {gris} B per entry over {gris_entries} entries; \
         GIIS: {giis} B per entry over {giis_entries} entries"
    );
    assert!(gris_entries >= 27 * HOSTS, "{gris_entries} GRIS entries");
    assert!(giis_entries >= 27 * HOSTS, "{giis_entries} GIIS entries");
    assert!(
        gris <= GRIS_ENTRY_BYTES_MAX,
        "a GRIS directory holds {gris} B per entry (budget {GRIS_ENTRY_BYTES_MAX} B)"
    );
    assert!(
        giis <= GIIS_ENTRY_BYTES_MAX,
        "the GIIS directory holds {giis} B per entry (budget {GIIS_ENTRY_BYTES_MAX} B)"
    );
    drop((warm, warm_giis, warm_gris, hosts));
}
