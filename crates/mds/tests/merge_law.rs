//! The merge law of a GIIS: after every pull, the entries under each
//! source's graft are that source's own directory, rebased.
//!
//! A pull is `search_all` of the source's suffix, so its reply is the
//! source's whole directory, and the merge makes the graft equal to it:
//! every entry the source answered is there, and none it no longer
//! answers.  Random fleets run flat (GRISes under one GIIS) or as a
//! two-level hierarchy (GRISes under branch GIISes under a top one), with
//! random provider and GIIS cache lifetimes, one provider value edited
//! mid-run, and one GRIS that may crash and so stop its heartbeats, which
//! makes its branch purge it and its entries leave the top's directory.
//!
//! A GIIS's directory only changes while it answers a pull or a query, so
//! whenever no request is in flight every graft must equal its source's
//! directory, rebased: `==` entry for entry, by count and by wire size.

use ldapdir::{Dn, Entry};
use mds::{Giis, Gris, MdsRequest, ProviderTemplate};
use proptest::prelude::*;
use simcore::{Engine, SimDuration, SimTime};
use simnet::{
    Client, ClientCx, Eng, Net, NodeId, ReqOutcome, RequestSpec, ServiceConfig, StatsHub, SvcKey,
    Topology,
};
use std::rc::Rc;

/// One random world.
#[derive(Debug, Clone)]
struct World {
    /// GRISes per branch GIIS.
    branches: Vec<usize>,
    /// No branch GIISes: every GRIS registers with the top GIIS.
    flat: bool,
    providers: usize,
    provider_ttl: Option<u64>,
    top_ttl: Option<u64>,
    branch_ttl: Option<u64>,
    /// Seconds between the top GIIS's `*ALL*` queries.
    gap: u64,
    /// (GRIS index, seconds) of the one crash, if any.
    crash: Option<(usize, u64)>,
    /// (GRIS index, seconds) of the one provider value edit.
    edit: (usize, u64),
}

fn arb_world() -> impl Strategy<Value = World> {
    let ttl = || prop_oneof![Just(None), (5u64..40).prop_map(Some)];
    (
        proptest::collection::vec(1usize..12, 1..4),
        any::<bool>(),
        1usize..=10,
        (ttl(), ttl(), ttl()),
        7u64..40,
        prop_oneof![Just(None), (0usize..64, 10u64..200).prop_map(Some)],
        (0usize..64, 10u64..300),
    )
        .prop_map(
            |(branches, flat, providers, ttls, gap, crash, edit)| World {
                branches,
                flat,
                providers,
                provider_ttl: ttls.0,
                top_ttl: ttls.1,
                branch_ttl: ttls.2,
                gap,
                crash,
                edit,
            },
        )
}

/// Queries the top GIIS for everything every `gap` seconds.
struct Poller {
    from: NodeId,
    to: SvcKey,
    base: Dn,
    gap: SimDuration,
}

impl Client for Poller {
    fn on_start(&mut self, cx: &mut ClientCx) {
        cx.wake_in(SimDuration::from_secs(5), 0);
    }
    fn on_wake(&mut self, _tag: u64, cx: &mut ClientCx) {
        let req = MdsRequest::search_all(self.base.clone());
        let req_bytes = req.wire_size();
        let (from, to) = (self.from, self.to);
        let spec = RequestSpec {
            from,
            to,
            payload: Rc::new(req),
            req_bytes,
        };
        cx.submit(spec, 0);
        cx.wake_in(self.gap, 0);
    }
    fn on_outcome(&mut self, _o: ReqOutcome, _cx: &mut ClientCx) {}
}

/// A GIIS and the sources registered with it, each with its suffix.
struct Level {
    giis: SvcKey,
    sources: Vec<(SvcKey, Dn)>,
}

fn secs(s: Option<u64>) -> Option<SimDuration> {
    s.map(SimDuration::from_secs)
}

/// Deploy `w`: the GRISes share one node, each GIIS has its own.
fn deploy(w: &World) -> (Net, Eng, Vec<SvcKey>, Vec<Level>) {
    let mut topo = Topology::new();
    let client = topo.add_node("client", 1, 1.0);
    let gris_node = topo.add_node("gris-host", 2, 1.0);
    let top_node = topo.add_node("top", 2, 1.0);
    let mut nodes = vec![client, gris_node, top_node];
    let branch_nodes: Vec<NodeId> = (0..w.branches.len())
        .map(|b| topo.add_node(format!("branch{b}"), 2, 1.0))
        .collect();
    nodes.extend(&branch_nodes);
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            topo.connect(a, b, 100e6, SimDuration::from_micros(300));
        }
    }
    let mut net = Net::new(topo, StatsHub::new(SimTime::ZERO, SimTime::from_secs(1000)));
    let mut eng: Eng = Engine::new(7);
    let add_giis = |net: &mut Net, eng: &mut Eng, node, suffix: &Dn, ttl| {
        let giis = Giis::new(suffix.clone(), secs(ttl));
        net.add_service(node, ServiceConfig::default(), Box::new(giis), eng)
    };
    let top_suffix = Dn::parse("mds-vo-name=top, o=grid").unwrap();
    let top = add_giis(&mut net, &mut eng, top_node, &top_suffix, w.top_ttl);
    let mut levels = vec![Level {
        giis: top,
        sources: Vec::new(),
    }];
    let template = ProviderTemplate::new(w.providers, secs(w.provider_ttl));
    let mut grises = Vec::new();
    for (b, &n) in w.branches.iter().enumerate() {
        // A flat fleet registers every GRIS with the top GIIS itself.
        let parent = if w.flat {
            0
        } else {
            let suffix = Dn::parse(&format!("mds-vo-name=branch{b}, o=grid")).unwrap();
            let giis = add_giis(&mut net, &mut eng, branch_nodes[b], &suffix, w.branch_ttl);
            net.service_as_mut::<Giis>(giis).unwrap().register_with(top);
            net.prime_service_timer(&mut eng, giis, SimDuration::from_millis(300), 0);
            levels[0].sources.push((giis, suffix));
            levels.push(Level {
                giis,
                sources: Vec::new(),
            });
            levels.len() - 1
        };
        for _ in 0..n {
            let i = grises.len();
            let suffix = Dn::parse(&format!("mds-vo-name=res{i}, o=grid")).unwrap();
            let mut gris = Gris::new(suffix.clone(), template.for_host(&suffix, &format!("h{i}")));
            gris.register_with(levels[parent].giis);
            let key = net.add_service(
                gris_node,
                ServiceConfig::default(),
                Box::new(gris),
                &mut eng,
            );
            let first_beat = SimDuration::from_millis(10 * (i as u64 + 1));
            net.prime_service_timer(&mut eng, key, first_beat, 0);
            levels[parent].sources.push((key, suffix));
            grises.push(key);
        }
    }
    net.add_client(Box::new(Poller {
        from: client,
        to: top,
        base: top_suffix,
        gap: SimDuration::from_secs(w.gap),
    }));
    (net, eng, grises, levels)
}

/// `entries` rebased from `suffix` to `graft`, in DN order.
fn rebased(entries: impl Iterator<Item = Entry>, suffix: &Dn, graft: &Dn) -> Vec<Entry> {
    let mut out: Vec<Entry> = entries
        .map(|mut e| {
            e.dn = e.dn.rebase(suffix, graft).expect("under the source suffix");
            e
        })
        .collect();
    out.sort_by(|a, b| a.dn.cmp(&b.dn));
    out
}

/// Check every merged graft of every level; returns how many were
/// checked.
fn check_law(net: &Net, levels: &[Level], at: SimTime) -> usize {
    let mut checked = 0;
    for level in levels {
        let giis = net.service_as::<Giis>(level.giis).unwrap();
        for (source, suffix) in &level.sources {
            let Some(graft) = giis.graft(*source) else {
                continue;
            };
            let held: Vec<Entry> = giis
                .directory()
                .iter()
                .filter(|e| e.dn.is_under(graft))
                .cloned()
                .collect();
            let own = match net.service_as::<Gris>(*source) {
                Some(gris) => gris.directory(),
                None => net.service_as::<Giis>(*source).unwrap().directory(),
            };
            let want = rebased(own.iter().cloned(), suffix, graft);
            let size = |es: &[Entry]| es.iter().map(Entry::wire_size).sum::<u64>();
            let at = at.as_secs_f64();
            assert_eq!(held.len(), want.len(), "t={at}: count under {graft}");
            assert_eq!(size(&held), size(&want), "t={at}: wire size under {graft}");
            assert!(held == want, "t={at}: entries under {graft}");
            checked += 1;
        }
    }
    checked
}

proptest! {
    #[test]
    fn every_graft_is_its_sources_directory(w in arb_world()) {
        let (mut net, mut eng, grises, levels) = deploy(&w);
        net.start(&mut eng);
        let (mut crash, mut edit) = (w.crash, Some(w.edit));
        let mut checked = 0;
        for t in (5..=400).step_by(5) {
            let now = SimTime::from_secs(t);
            eng.run_until(&mut net, now);
            if let Some((i, _)) = crash.filter(|&(_, at)| at <= t) {
                net.crash_service(&mut eng, grises[i % grises.len()]);
                crash = None;
            }
            if let Some((i, _)) = edit.filter(|&(_, at)| at <= t) {
                let gris = net.service_as_mut::<Gris>(grises[i % grises.len()]).unwrap();
                gris.provider_mut(0).entries[0].put("Mds-cpu-metric", t.to_string());
                edit = None;
            }
            if net.live().requests == 0 {
                checked += check_law(&net, &levels, now);
            }
        }
        prop_assert!(checked > 0, "no quiescent moment in {w:?}");
    }
}
