//! Scenario text format vs its own printer: `parse(print(spec))` must
//! reproduce the spec exactly — structure, fingerprint, and canonical
//! text — for randomly generated specs of every backend shape.  Hostile
//! text — arbitrary bytes, and the golden spec and committed examples
//! with punctuation mutated in — must get a typed error, never a panic.
//! The golden tests below pin the author-facing error messages word for
//! word: a misspelled backend, a dangling service reference, a
//! duplicate section, an off-testbed host, a stray `rate`, an unknown
//! arrival process, a dead WAN link, a composite without site hosts and
//! a reference to a service of the wrong kind must each name the
//! offender, because those strings are the scenario author's compiler
//! diagnostics.

use gscenario::{
    Arrivals, ClientCpu, Count, FaultKind, FaultPolicy, Placement, ProbeSpec, Query, ScenarioSpec,
    ServiceKind, ServiceSpec, SystemId, Ttl, WanLink, WorkloadSpec,
};
use proptest::prelude::*;

/// The testbed's server-class hosts (there is no lucky2).
const LUCKY: [&str; 7] = [
    "lucky0", "lucky1", "lucky3", "lucky4", "lucky5", "lucky6", "lucky7",
];

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,11}"
}

fn arb_xs() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..300, 1..=4).prop_map(|mut xs| {
        xs.sort_unstable();
        xs.dedup();
        xs
    })
}

fn arb_count() -> impl Strategy<Value = Count> {
    prop_oneof![(1u32..40).prop_map(Count::Lit), Just(Count::X)]
}

fn arb_ttl() -> impl Strategy<Value = Ttl> {
    prop_oneof![
        Just(Ttl::Pinned),
        Just(Ttl::Zero),
        Just(Ttl::Exp4),
        (1u64..600).prop_map(Ttl::Secs),
    ]
}

fn arb_cpu() -> impl Strategy<Value = ClientCpu> {
    prop_oneof![
        Just(ClientCpu::Mds),
        Just(ClientCpu::Condor),
        Just(ClientCpu::Rgma),
    ]
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::Uc),
        proptest::collection::vec(0usize..20, 1..=3).prop_map(|is| {
            Placement::Hosts(is.into_iter().map(|i| format!("uc{i:02}")).collect())
        }),
    ]
}

fn workload(
    users: Count,
    placement: Placement,
    target: &str,
    query: Query,
    cpu: ClientCpu,
    timeout_s: Option<u64>,
) -> WorkloadSpec {
    WorkloadSpec {
        users,
        placement,
        target: Some(target.to_string()),
        query,
        cpu,
        timeout_s,
        arrivals: Arrivals::Closed,
    }
}

/// A hierarchical-GIIS federation: one top index, 1–3 branches each
/// carrying a mid-level GIIS plus its GRIS-fleet shard.
fn arb_mds() -> impl Strategy<Value = ScenarioSpec> {
    (
        arb_name(),
        arb_xs(),
        1u32..4,
        arb_ttl(),
        (arb_count(), arb_placement(), arb_cpu()),
        0u8..2,
    )
        .prop_map(
            |(name, xs, branches, ttl, (users, placement, cpu), probe)| {
                let mut services = vec![(
                    "top".to_string(),
                    ServiceSpec {
                        kind: ServiceKind::Giis {
                            cachettl: ttl,
                            parent: None,
                            branch: 0,
                        },
                        host: "lucky0".to_string(),
                    },
                )];
                for b in 0..branches {
                    let host = LUCKY[1 + b as usize].to_string();
                    services.push((
                        format!("mid{b}"),
                        ServiceSpec {
                            kind: ServiceKind::Giis {
                                cachettl: ttl,
                                parent: Some("top".to_string()),
                                branch: b,
                            },
                            host: host.clone(),
                        },
                    ));
                    services.push((
                        format!("shard{b}"),
                        ServiceSpec {
                            kind: ServiceKind::GrisFleet {
                                parent: format!("mid{b}"),
                                providers: 10,
                                share: (b, branches),
                            },
                            host,
                        },
                    ));
                }
                let probe = (probe == 1 && ttl != Ttl::Pinned).then(|| ProbeSpec::GiisFreshness {
                    giis: "top".to_string(),
                });
                ScenarioSpec {
                    name,
                    system: SystemId::Mds,
                    x_values: xs,
                    wan: None,
                    services,
                    watch: "lucky0".to_string(),
                    workload: workload(users, placement, "top", Query::MdsSearchAllGiis, cpu, None),
                    probe,
                    faults: None,
                }
            },
        )
}

/// An R-GMA mesh: registry, 1–5 ProducerServlets, one ConsumerServlet,
/// optionally churned and probed.
fn arb_rgma() -> impl Strategy<Value = ScenarioSpec> {
    (
        arb_name(),
        arb_xs(),
        1usize..6,
        arb_count(),
        (arb_count(), arb_cpu(), 0u64..20),
        (0u8..2, 0u8..2, 50u64..500),
    )
        .prop_map(
            |(name, xs, n_ps, producers, (users, cpu, timeout), (probe, fault, prime_ms))| {
                let mut services = vec![(
                    "reg".to_string(),
                    ServiceSpec {
                        kind: ServiceKind::Registry,
                        host: "lucky1".to_string(),
                    },
                )];
                let mut ps_hosts = Vec::new();
                for i in 0..n_ps {
                    let host = LUCKY[2 + i].to_string();
                    ps_hosts.push(host.clone());
                    services.push((
                        format!("ps{i}"),
                        ServiceSpec {
                            kind: ServiceKind::ProducerServlet {
                                producers,
                                registry: "reg".to_string(),
                            },
                            host,
                        },
                    ));
                }
                services.push((
                    "cs".to_string(),
                    ServiceSpec {
                        kind: ServiceKind::ConsumerServlet {
                            registry: "reg".to_string(),
                        },
                        host: "lucky0".to_string(),
                    },
                ));
                let faults = (fault == 1).then(|| FaultPolicy {
                    service: "rgma-producer-servlet".to_string(),
                    hosts: ps_hosts,
                    prime_ms,
                    scenario: FaultKind::Churn,
                });
                ScenarioSpec {
                    name,
                    system: SystemId::Rgma,
                    x_values: xs,
                    wan: None,
                    services,
                    watch: "lucky1".to_string(),
                    workload: workload(
                        users,
                        Placement::Uc,
                        "cs",
                        Query::RgmaConsumerQuery,
                        cpu,
                        (timeout > 0).then_some(timeout),
                    ),
                    probe: (probe == 1).then_some(ProbeSpec::RgmaProducers),
                    faults: None.or(faults),
                }
            },
        )
}

/// A Hawkeye pool: Manager, one Agent, optionally an advertiser fleet.
fn arb_hawkeye() -> impl Strategy<Value = ScenarioSpec> {
    (
        arb_name(),
        arb_xs(),
        (arb_count(), arb_count()),
        prop_oneof![
            Just(Query::HawkeyeAgentStatus),
            Just(Query::HawkeyeAgentFull),
            Just(Query::HawkeyeStatusRandom),
            Just(Query::HawkeyeConstraintMiss),
        ],
        (arb_count(), arb_cpu()),
        (0u8..2, 0u8..2),
    )
        .prop_map(
            |(name, xs, (modules, machines), query, (users, cpu), (fleet, probe))| {
                let mut services = vec![
                    (
                        "mgr".to_string(),
                        ServiceSpec {
                            kind: ServiceKind::Manager,
                            host: "lucky0".to_string(),
                        },
                    ),
                    (
                        "agent".to_string(),
                        ServiceSpec {
                            kind: ServiceKind::Agent {
                                modules,
                                manager: "mgr".to_string(),
                            },
                            host: "lucky3".to_string(),
                        },
                    ),
                ];
                if fleet == 1 {
                    services.push((
                        "ads".to_string(),
                        ServiceSpec {
                            kind: ServiceKind::AdvertiserFleet {
                                machines,
                                manager: "mgr".to_string(),
                            },
                            host: "lucky4".to_string(),
                        },
                    ));
                }
                // Agent queries go to the Agent, pool queries to the Manager.
                let target = if query.targets() == ["hawkeye-agent"] {
                    "agent"
                } else {
                    "mgr"
                };
                ScenarioSpec {
                    name,
                    system: SystemId::Hawkeye,
                    x_values: xs,
                    wan: None,
                    services,
                    watch: "lucky0".to_string(),
                    workload: workload(users, Placement::Uc, target, query, cpu, None),
                    probe: (probe == 1).then(|| ProbeSpec::HawkeyeAds {
                        manager: "mgr".to_string(),
                    }),
                    faults: None,
                }
            },
        )
}

/// An R-GMA composite: registry plus a composite producer pooled over
/// 1–5 site hosts, queried directly.
fn arb_composite() -> impl Strategy<Value = ScenarioSpec> {
    (
        arb_name(),
        arb_xs(),
        1usize..6,
        (arb_count(), arb_count(), arb_cpu()),
        prop_oneof![
            Just(Query::RgmaProducerQuery),
            Just(Query::RgmaProducerQueryAll)
        ],
    )
        .prop_map(|(name, xs, n_hosts, (n_sites, users, cpu), query)| {
            let services = vec![
                (
                    "reg".to_string(),
                    ServiceSpec {
                        kind: ServiceKind::Registry,
                        host: "lucky1".to_string(),
                    },
                ),
                (
                    "comp".to_string(),
                    ServiceSpec {
                        kind: ServiceKind::CompositePool {
                            site_hosts: LUCKY[2..2 + n_hosts]
                                .iter()
                                .map(|h| h.to_string())
                                .collect(),
                            n_sites,
                            registry: "reg".to_string(),
                        },
                        host: "lucky0".to_string(),
                    },
                ),
            ];
            ScenarioSpec {
                name,
                system: SystemId::Rgma,
                x_values: xs,
                wan: None,
                services,
                watch: "lucky0".to_string(),
                workload: workload(users, Placement::Uc, "comp", query, cpu, None),
                probe: None,
                faults: None,
            }
        })
}

/// The WAN override: absent, or any positive capacity and any latency.
fn arb_wan() -> impl Strategy<Value = Option<WanLink>> {
    prop_oneof![
        Just(None),
        (1u32..1000, 0u32..200).prop_map(|(mbps, latency_ms)| Some(WanLink { mbps, latency_ms })),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = Arrivals> {
    prop_oneof![
        Just(Arrivals::Closed),
        arb_count().prop_map(|rate| Arrivals::Poisson { rate }),
    ]
}

/// Every backend shape, under any WAN link and either arrival process.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        prop_oneof![arb_mds(), arb_rgma(), arb_hawkeye(), arb_composite()],
        arb_wan(),
        arb_arrivals(),
    )
        .prop_map(|(mut spec, wan, arrivals)| {
            spec.wan = wan;
            spec.workload.arrivals = arrivals;
            spec
        })
}

proptest! {
    /// print → parse is the identity on specs, and the canonical text is
    /// a fixed point (printing the re-parsed spec changes nothing).
    #[test]
    fn spec_round_trips_through_print_and_parse(spec in arb_spec()) {
        assert!(spec.validate().is_ok(), "generator made an invalid spec: {:?}", spec.validate());
        let text = spec.print();
        let back = gscenario::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text failed to parse: {e}\n{text}"));
        assert_eq!(back, spec, "round-trip changed the spec:\n{text}");
        assert_eq!(back.fingerprint(), spec.fingerprint());
        assert_eq!(back.print(), text, "canonical text is not a fixed point");
        // The optional vocabulary is invisible at its defaults, so specs
        // that never use it keep their canonical text — and fingerprint.
        assert_eq!(text.contains("[wan]"), spec.wan.is_some());
        assert_eq!(text.contains("\narrivals = "), spec.workload.arrivals != Arrivals::Closed);
        let mut plain = spec.clone();
        plain.wan = None;
        plain.workload.arrivals = Arrivals::Closed;
        assert_eq!(
            plain.fingerprint() == spec.fingerprint(),
            plain == spec,
            "the new fields must move the fingerprint exactly when set"
        );
    }
}

// ---------------------------------------------------------------------
// Hostile text: parse or fail with a typed error, never panic.
// ---------------------------------------------------------------------

/// The committed example scenarios: what authors copy from.
const EXAMPLES: [&str; 3] = [
    include_str!("../../../examples/scenarios/federated_giis.toml"),
    include_str!("../../../examples/scenarios/open_loop_wan.toml"),
    include_str!("../../../examples/scenarios/rgma_churn.toml"),
];

/// Parse `text` the lossy way; a spec that parses must also validate or
/// fail with a typed error.
fn parse_never_panics(bytes: &[u8]) {
    if let Ok(spec) = gscenario::parse(&String::from_utf8_lossy(bytes)) {
        let _ = spec.validate();
    }
}

proptest! {
    /// Arbitrary bytes parse or fail with a `ScenarioError`, and never
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        parse_never_panics(&bytes);
    }

    /// A golden spec or a committed example with a few bytes
    /// overwritten, inserted or removed (mostly by the format's own
    /// punctuation, so the damage lands in the grammar) parses or fails
    /// with a typed error, and never panics.
    #[test]
    fn mutated_golden_specs_never_panic(
        which in 0usize..4,
        edits in proptest::collection::vec((any::<usize>(), 0usize..3, any::<u8>(), any::<bool>()), 1..6),
    ) {
        let golden = [GOOD, EXAMPLES[0], EXAMPLES[1], EXAMPLES[2]];
        let mut bytes = golden[which].as_bytes().to_vec();
        for (at, op, raw, punct) in edits {
            let at = at % bytes.len();
            let b = if punct {
                let p = b"=[]\".,#\n-_ 0x9e";
                p[raw as usize % p.len()]
            } else {
                raw
            };
            match op {
                0 => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ => {
                    bytes.remove(at);
                    if bytes.is_empty() {
                        bytes.push(b);
                    }
                }
            }
        }
        parse_never_panics(&bytes);
    }
}

// ---------------------------------------------------------------------
// Golden error messages: the exact strings a scenario author sees.
// ---------------------------------------------------------------------

/// A minimal well-formed spec to mutate in the golden tests.
const GOOD: &str = r#"
name = "golden"
system = "rgma"
x = [1]
watch = "lucky1"

[service.reg]
kind = "rgma-registry"
host = "lucky1"

[service.cs]
kind = "rgma-consumer-servlet"
host = "lucky0"
registry = "reg"

[workload]
users = 5
placement = "uc"
target = "cs"
query = "rgma-consumer-query"
cpu = "rgma"
"#;

/// The author-facing diagnostic for a broken spec — `parse` validates
/// as it goes, so the error may surface at either stage.
fn validate_err(text: &str) -> String {
    match gscenario::parse(text) {
        Err(e) => e.to_string(),
        Ok(spec) => spec
            .validate()
            .expect_err("spec must not validate")
            .to_string(),
    }
}

#[test]
fn golden_spec_is_good() {
    let spec = gscenario::parse(GOOD).expect("golden spec parses");
    assert!(spec.validate().is_ok());
}

#[test]
fn unknown_backend_lists_the_known_ones() {
    let text = GOOD.replace("system = \"rgma\"", "system = \"ldap\"");
    let err = match gscenario::parse(&text) {
        Ok(spec) => spec
            .validate()
            .expect_err("unknown backend must not validate"),
        Err(e) => e,
    };
    assert_eq!(
        err.to_string(),
        "unknown backend \"ldap\": known backends are mds, rgma, hawkeye"
    );
}

#[test]
fn dangling_service_ref_names_field_and_target() {
    let err = validate_err(&GOOD.replace("registry = \"reg\"", "registry = \"nope\""));
    assert_eq!(err, "service \"cs\": registry = \"nope\" names no service");
}

#[test]
fn duplicate_service_name_is_called_out() {
    let err = validate_err(&GOOD.replace("[service.cs]", "[service.reg]"));
    assert_eq!(err, "duplicate service name \"reg\"");
}

#[test]
fn off_testbed_host_gets_the_host_roster() {
    // lucky2 does not exist — the paper's testbed skips it.
    let err = validate_err(&GOOD.replace("host = \"lucky0\"", "host = \"lucky2\""));
    assert_eq!(
        err,
        "service \"cs\": unknown host \"lucky2\" \
         (hosts: lucky0, lucky1, lucky3..lucky7, uc00..uc19)"
    );
}

#[test]
fn rate_needs_poisson_arrivals() {
    let err = validate_err(&GOOD.replace("cpu = \"rgma\"", "cpu = \"rgma\"\nrate = 5"));
    assert_eq!(
        err,
        "[workload]: bad value for \"rate\": only meaningful with arrivals = \"poisson\""
    );
    // With them, it must be positive wherever the sweep goes.
    let zero = "cpu = \"rgma\"\narrivals = \"poisson\"\nrate = \"x\"";
    let err = validate_err(
        &GOOD
            .replace("cpu = \"rgma\"", zero)
            .replace("x = [1]", "x = [0, 1]"),
    );
    assert_eq!(
        err,
        "[workload]: bad value for \"rate\": arrival rate must be positive at every x"
    );
}

#[test]
fn unknown_arrivals_token_lists_the_known_ones() {
    let err =
        validate_err(&GOOD.replace("cpu = \"rgma\"", "cpu = \"rgma\"\narrivals = \"bursty\""));
    assert_eq!(
        err,
        "[workload]: bad value for \"arrivals\": expected closed/poisson, got \"bursty\""
    );
}

#[test]
fn link_capacity_must_be_positive() {
    let err = validate_err(&format!("{GOOD}\n[wan]\nmbps = 0\nlatency_ms = 5\n"));
    assert_eq!(
        err,
        "[wan]: bad value for \"mbps\": link capacity must be positive"
    );
}

#[test]
fn composite_needs_site_hosts() {
    let composite = "[service.comp]\nkind = \"rgma-composite-pool\"\nhost = \"lucky0\"\n\
                     site_hosts = [\"lucky3\"]\nn_sites = \"x\"\nregistry = \"reg\"\n\n[workload]";
    let text = GOOD.replace("[workload]", composite);
    let mut spec = gscenario::parse(&text).expect("a composite over one site host parses");
    let want = "service \"comp\": bad value for \"site_hosts\": list must not be empty";
    assert_eq!(validate_err(&text.replace("[\"lucky3\"]", "[]")), want);
    // A hand-built spec meets the same wall in `validate`, not a
    // divide-by-zero when the pool is dealt.
    let ServiceKind::CompositePool { site_hosts, .. } = &mut spec.services[2].1.kind else {
        panic!("comp is the third service")
    };
    site_hosts.clear();
    assert_eq!(spec.validate().unwrap_err().to_string(), want);
}

/// A one-sweep-point spec of `system` around the `services` sections,
/// one user asking `target` the `query`.
fn wired(system: &str, services: &str, target: &str, query: &str) -> String {
    format!(
        "name = \"wired\"\nsystem = \"{system}\"\nx = [1]\nwatch = \"lucky3\"\n\n{services}\n\
         [workload]\nusers = 1\ntarget = \"{target}\"\nquery = \"{query}\"\n"
    )
}

const MANAGER: &str = "[service.mgr]\nkind = \"hawkeye-manager\"\nhost = \"lucky3\"\n";

#[test]
fn a_query_goes_to_a_kind_that_answers_it() {
    let err = validate_err(&wired("hawkeye", MANAGER, "mgr", "mds-search-all-giis"));
    assert_eq!(
        err,
        "[workload]: bad value for \"target\": \"mgr\" has kind hawkeye-manager, \
         expected gris or giis-pool or giis"
    );
    let err = validate_err(&wired("hawkeye", MANAGER, "mgr", "hawkeye-agent-status"));
    assert_eq!(
        err,
        "[workload]: bad value for \"target\": \"mgr\" has kind hawkeye-manager, \
         expected hawkeye-agent"
    );
}

#[test]
fn status_random_needs_an_agent_to_ask_about() {
    let err = validate_err(&wired("hawkeye", MANAGER, "mgr", "hawkeye-status-random"));
    assert_eq!(
        err,
        "[workload]: bad value for \"query\": \
         hawkeye-status-random needs a hawkeye-agent to ask about"
    );
}

#[test]
fn an_upstream_is_of_the_kind_it_names() {
    let services = "[service.reg]\nkind = \"rgma-registry\"\nhost = \"lucky1\"\n\n\
                    [service.agent]\nkind = \"hawkeye-agent\"\nhost = \"lucky4\"\n\
                    modules = 11\nmanager = \"reg\"\n";
    let err = validate_err(&wired("hawkeye", services, "agent", "hawkeye-agent-status"));
    assert_eq!(
        err,
        "service \"agent\": bad value for \"manager\": \"reg\" has kind rgma-registry, \
         expected hawkeye-manager"
    );
}

/// A pinned top GIIS with one GRIS-fleet shard under it.
const FEDERATION: &str = "[service.top]\nkind = \"giis\"\nhost = \"lucky0\"\n\
                          cachettl = \"pinned\"\n\n[service.shard]\nkind = \"gris-fleet\"\n\
                          host = \"lucky1\"\nparent = \"top\"\nshare = \"0/1\"\n";

#[test]
fn a_fleet_is_never_a_target() {
    let err = validate_err(&wired("mds", FEDERATION, "shard", "mds-search-all-giis"));
    assert_eq!(
        err,
        "[workload]: bad value for \"target\": \"shard\" has kind gris-fleet, \
         expected gris or giis-pool or giis"
    );
}

#[test]
fn freshness_needs_a_giis_that_expires_its_data() {
    let probe = "\n[probe]\nkind = \"giis-freshness\"\ngiis = \"top\"\n";
    let text = wired("mds", FEDERATION, "top", "mds-search-all-giis") + probe;
    assert_eq!(
        validate_err(&text),
        "[probe]: bad value for \"giis\": \"top\" never expires its data \
         (cachettl = \"pinned\"), so it has no fresh horizon (TTL + 5 s)"
    );
    let fleet = text.replace("giis = \"top\"", "giis = \"shard\"");
    assert_eq!(
        validate_err(&fleet),
        "[probe]: bad value for \"giis\": \"shard\" has kind gris-fleet, \
         expected giis or giis-pool"
    );
    // With a finite TTL the same spec is good.
    gscenario::parse(&text.replace("\"pinned\"", "\"exp4\"")).expect("a TTL to probe against");
}
