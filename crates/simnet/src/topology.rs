//! Hosts, links and routes.
//!
//! A [`Topology`] is a set of named nodes (hosts), directed links with a
//! fixed capacity (bits/second) and one-way latency, and an explicit route
//! table mapping ordered node pairs to link paths.  Routing is static —
//! the testbeds under study are a handful of hosts on a LAN plus a WAN
//! uplink, so explicit routes are simpler and more faithful than a routing
//! algorithm.

use simcore::{PsCpu, SimDuration};
use std::rc::Rc;

/// Index of a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a directed link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A simulated host.
pub struct Node {
    pub name: String,
    pub cpu: PsCpu,
    /// Handle of the pending CPU-completion event (managed by `Net`).
    pub(crate) cpu_event: simcore::EventHandle,
}

impl Node {
    pub fn new(name: impl Into<String>, cores: u32, speed: f64) -> Self {
        Node {
            name: name.into(),
            cpu: PsCpu::new(cores, speed),
            cpu_event: simcore::EventHandle::NULL,
        }
    }
}

/// A directed link.
#[derive(Debug, Clone)]
pub struct Link {
    pub name: String,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

/// The static network topology.
#[derive(Default)]
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    /// `routes[src][dst]`, grown by `set_route`.  A route is shared with
    /// every flow that follows it, so starting a flow copies nothing.
    routes: Vec<Vec<Option<Rc<[LinkId]>>>>,
    /// The empty same-node route, one for all nodes.
    loopback: Rc<[LinkId]>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host with `cores` CPUs at relative `speed` (1.0 = reference).
    pub fn add_node(&mut self, name: impl Into<String>, cores: u32, speed: f64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(name, cores, speed));
        id
    }

    /// Add a directed link.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        capacity_bps: f64,
        latency: SimDuration,
    ) -> LinkId {
        assert!(capacity_bps > 0.0);
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            name: name.into(),
            capacity_bps,
            latency,
        });
        id
    }

    /// Register the (directed) route from `src` to `dst`.
    pub fn set_route(&mut self, src: NodeId, dst: NodeId, path: Vec<LinkId>) {
        let (src, dst) = (src.0 as usize, dst.0 as usize);
        if self.routes.len() <= src {
            self.routes.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.routes[src];
        if row.len() <= dst {
            row.resize(dst + 1, None);
        }
        row[dst] = Some(path.into());
    }

    /// Look up the route from `src` to `dst`.  Same-node routes default to
    /// the empty path.  Panics on a missing inter-node route: topologies
    /// must be wired completely by the deployment code.
    pub fn route(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        self.shared_route(src, dst)
    }

    /// [`Topology::route`] as the shared allocation itself: what a flow
    /// holds on to (clone the `Rc`, not the links).
    pub fn shared_route(&self, src: NodeId, dst: NodeId) -> &Rc<[LinkId]> {
        if src == dst {
            return &self.loopback;
        }
        self.routes
            .get(src.0 as usize)
            .and_then(|row| row.get(dst.0 as usize)?.as_ref())
            .unwrap_or_else(|| {
                panic!(
                    "no route from {} to {}",
                    self.nodes[src.0 as usize].name, self.nodes[dst.0 as usize].name
                )
            })
    }

    /// One-way latency along the route from `src` to `dst` (a small
    /// loopback latency for same-node paths).
    pub fn one_way_latency(&self, src: NodeId, dst: NodeId) -> SimDuration {
        if src == dst {
            return SimDuration::from_micros(30); // loopback
        }
        self.route(src, dst)
            .iter()
            .map(|l| self.links[l.0 as usize].latency)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Round-trip latency between two nodes.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way_latency(a, b) + self.one_way_latency(b, a)
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Mutable access to a link (fault injection changes capacities
    /// mid-run; go through `Net::set_link_capacity` so flow rates are
    /// re-shared).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Find a directed link by name (for tests and fault targeting).
    pub fn find_link(&self, name: &str) -> Option<LinkId> {
        self.links
            .iter()
            .position(|l| l.name == name)
            .map(|i| LinkId(i as u32))
    }

    /// Find a node by name (for tests and reporting).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Convenience: create a bidirectional link pair `a<->b` and the routes
    /// between the two nodes.  Returns `(a_to_b, b_to_a)`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        latency: SimDuration,
    ) -> (LinkId, LinkId) {
        let name_a = self.node(a).name.clone();
        let name_b = self.node(b).name.clone();
        let ab = self.add_link(format!("{name_a}->{name_b}"), capacity_bps, latency);
        let ba = self.add_link(format!("{name_b}->{name_a}"), capacity_bps, latency);
        self.set_route(a, b, vec![ab]);
        self.set_route(b, a, vec![ba]);
        (ab, ba)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_star_topology() {
        let mut t = Topology::new();
        let hub = t.add_node("switch", 1, 1.0);
        let a = t.add_node("a", 2, 1.0);
        let b = t.add_node("b", 2, 1.0);
        let (a_up, a_down) = t.connect(a, hub, 100e6, SimDuration::from_micros(50));
        let (b_up, b_down) = t.connect(b, hub, 100e6, SimDuration::from_micros(50));
        t.set_route(a, b, vec![a_up, b_down]);
        t.set_route(b, a, vec![b_up, a_down]);
        assert_eq!(t.route(a, b), &[a_up, b_down]);
        assert_eq!(t.one_way_latency(a, b).as_micros(), 100);
        assert_eq!(t.rtt(a, b).as_micros(), 200);
        assert_eq!(t.link_count(), 4);
    }

    #[test]
    fn same_node_route_is_loopback() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1, 1.0);
        assert!(t.route(a, a).is_empty());
        assert!(t.one_way_latency(a, a).as_micros() > 0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a", 1, 1.0);
        let b = t.add_node("b", 1, 1.0);
        let _ = t.route(a, b);
    }

    #[test]
    fn find_node_by_name() {
        let mut t = Topology::new();
        let a = t.add_node("lucky0", 2, 1.0);
        assert_eq!(t.find_node("lucky0"), Some(a));
        assert_eq!(t.find_node("lucky9"), None);
    }
}
