//! 2D torus network-on-chip model for the CCSVM chip.
//!
//! The paper's microarchitecture (§3.1, Table 2) connects CPU cores, MTTOP
//! cores, the banked shared L2/directory, the MIFD, and the memory controllers
//! over a 2D **torus** with 12 GB/s links (Figure 1 draws it as a mesh for
//! clarity; it is a torus).
//!
//! This crate models:
//!
//! * the torus [`Topology`] with wraparound links,
//! * deterministic **dimension-order (X then Y) routing** that picks the
//!   shorter wrap direction per dimension,
//! * per-directed-link **serialization latency** (`bytes / bandwidth`) with
//!   link occupancy tracking, so concurrent messages contend for links, and
//! * per-hop router/link latency.
//!
//! The network does not own an event queue: [`Network::send`] computes the
//! delivery time of a message and the caller (the machine model) schedules the
//! delivery event. This keeps the NoC reusable by both the CCSVM machine and
//! the APU baseline.
//!
//! # Examples
//!
//! ```
//! use ccsvm_engine::Time;
//! use ccsvm_noc::{Network, NocConfig, NodeId, Topology};
//!
//! let topo = Topology::torus(4, 4);
//! let mut net = Network::new(topo, NocConfig::paper_default());
//! let arrive = net.send(Time::ZERO, NodeId(0), NodeId(5), 72);
//! assert!(arrive > Time::ZERO);
//! ```

#![forbid(unsafe_code)]

use ccsvm_engine::{NocFaultConfig, SplitMix64, Stats, Time};

/// Identifies a node (router) on the torus.
///
/// Node `NodeId(i)` sits at coordinates `(i % cols, i / cols)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// The shape of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    cols: usize,
    rows: usize,
}

impl Topology {
    /// A `cols × rows` 2D torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn torus(cols: usize, rows: usize) -> Topology {
        assert!(cols > 0 && rows > 0, "torus dimensions must be positive");
        Topology { cols, rows }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Whether the topology has no nodes (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Columns in the torus.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows in the torus.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.0 < self.len(), "node {node:?} out of range");
        (node.0 % self.cols, node.0 / self.cols)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.cols && y < self.rows, "({x},{y}) out of range");
        NodeId(y * self.cols + x)
    }

    /// Signed step (+1 / -1 with wraparound) and distance along one dimension,
    /// choosing the shorter direction (ties go to the positive direction).
    fn step(from: usize, to: usize, size: usize) -> (isize, usize) {
        let fwd = (to + size - from) % size;
        let bwd = (from + size - to) % size;
        if fwd <= bwd {
            (1, fwd)
        } else {
            (-1, bwd)
        }
    }

    /// Minimal hop count between two nodes under dimension-order torus routing.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        Topology::step(sx, dx, self.cols).1 + Topology::step(sy, dy, self.rows).1
    }

    /// The full route from `src` to `dst` (inclusive of both endpoints) under
    /// dimension-order (X then Y) routing with shortest wrap direction.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut path = vec![self.node_at(x, y)];
        let (xdir, xdist) = Topology::step(x, dx, self.cols);
        for _ in 0..xdist {
            x = Topology::wrap(x, xdir, self.cols);
            path.push(self.node_at(x, y));
        }
        let (ydir, ydist) = Topology::step(y, dy, self.rows);
        for _ in 0..ydist {
            y = Topology::wrap(y, ydir, self.rows);
            path.push(self.node_at(x, y));
        }
        path
    }

    fn wrap(v: usize, dir: isize, size: usize) -> usize {
        if dir > 0 {
            if v + 1 == size {
                0
            } else {
                v + 1
            }
        } else if v == 0 {
            size - 1
        } else {
            v - 1
        }
    }
}

/// Timing parameters for the interconnect.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocConfig {
    /// Link bandwidth in bytes per nanosecond (12 GB/s ⇒ 12.0).
    pub link_bytes_per_ns: f64,
    /// Fixed per-hop router + link traversal latency.
    pub hop_latency: Time,
    /// Fixed overhead at injection/ejection (NI latency).
    pub endpoint_latency: Time,
}

impl NocConfig {
    /// The paper's Table 2 interconnect: 12 GB/s links; 1 ns per hop and 0.5 ns
    /// endpoint overhead (typical for an on-chip router at uncore speed).
    pub fn paper_default() -> NocConfig {
        NocConfig {
            link_bytes_per_ns: 12.0,
            hop_latency: Time::from_ps(1_000),
            endpoint_latency: Time::from_ps(500),
        }
    }

    /// Serialization delay for a message of `bytes` on one link.
    pub fn serialization(&self, bytes: usize) -> Time {
        assert!(
            self.link_bytes_per_ns > 0.0,
            "link bandwidth must be positive"
        );
        Time::from_ps((bytes as f64 * 1_000.0 / self.link_bytes_per_ns).ceil() as u64)
    }
}

/// Installed fault-injection state: knobs, a dedicated RNG stream, and
/// retransmission counters. Absent (`None` in [`Network`]) unless faults are
/// enabled, so the healthy path stays branch-cheap and bit-identical.
#[derive(Clone, Debug, PartialEq)]
struct NocFaults {
    cfg: NocFaultConfig,
    rng: SplitMix64,
    /// Total link-level retransmissions charged.
    retransmissions: u64,
    /// Messages that experienced at least one retransmission.
    faulted_messages: u64,
}

/// The interconnect: topology + link occupancy + traffic statistics.
///
/// See the [crate docs](crate) for the modeling approach.
#[derive(Clone, Debug)]
pub struct Network {
    topo: Topology,
    config: NocConfig,
    /// `link_free[node][dir]`: earliest time the directed link leaving `node`
    /// in direction `dir` (0=+X, 1=-X, 2=+Y, 3=-Y) is idle.
    link_free: Vec<[Time; 4]>,
    messages: u64,
    total_bytes: u64,
    total_hops: u64,
    /// Message-conservation audit counters (DESIGN §9, NOC-CONSERVE): uncore
    /// events the caller injected (`sent`), delivered (`delivered`), and
    /// intentionally discarded under a fault plan (`sanctioned`). Always
    /// maintained — counting is cheap and keeps runs identical whether or
    /// not the sanitizer evaluates them.
    audit_sent: u64,
    audit_delivered: u64,
    audit_sanctioned: u64,
    faults: Option<NocFaults>,
}

impl Network {
    /// Creates a network over `topo` with timing `config`.
    pub fn new(topo: Topology, config: NocConfig) -> Network {
        Network {
            topo,
            config,
            link_free: vec![[Time::ZERO; 4]; topo.len()],
            messages: 0,
            total_bytes: 0,
            total_hops: 0,
            audit_sent: 0,
            audit_delivered: 0,
            audit_sanctioned: 0,
            faults: None,
        }
    }

    /// Records `n` uncore events entering the network layer.
    pub fn note_sent(&mut self, n: u64) {
        self.audit_sent += n;
    }

    /// Records one uncore event delivered to its destination.
    pub fn note_delivered(&mut self) {
        self.audit_delivered += 1;
    }

    /// Records one uncore event intentionally discarded by a fault plan
    /// (a *sanctioned* loss, exempt from NOC-CONSERVE).
    pub fn note_sanctioned(&mut self) {
        self.audit_sanctioned += 1;
    }

    /// The audit counters `(sent, delivered, sanctioned)` for the
    /// NOC-CONSERVE check; `sent` must equal `delivered + sanctioned +
    /// still-queued` at any quiescent point.
    pub fn audit_counters(&self) -> (u64, u64, u64) {
        (self.audit_sent, self.audit_delivered, self.audit_sanctioned)
    }

    /// Enables link-fault injection: each message may be "dropped" and
    /// retransmitted with capped exponential backoff, drawn from `rng`.
    /// Delivery is still guaranteed (link-level retry), only delayed and
    /// counted, so higher layers need no loss handling.
    pub fn install_faults(&mut self, cfg: NocFaultConfig, rng: SplitMix64) {
        self.faults = Some(NocFaults {
            cfg,
            rng,
            retransmissions: 0,
            faulted_messages: 0,
        });
    }

    /// The topology this network routes over.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The timing configuration.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// Sends `bytes` from `src` to `dst` starting at time `now`, reserving
    /// link time along the route, and returns the delivery time at `dst`.
    ///
    /// A `src == dst` message (e.g. a core talking to its co-located L2 bank)
    /// pays only the endpoint latency.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn send(&mut self, now: Time, src: NodeId, dst: NodeId, bytes: usize) -> Time {
        let ser = self.config.serialization(bytes);
        let mut t = now + self.config.endpoint_latency;
        if let Some(f) = &mut self.faults {
            // Link-level retry: each draw below drop_rate charges one
            // retransmission with exponential backoff, capped per retry and
            // bounded in count. Modeled as extra latency before injection;
            // retransmitted flits are not re-charged against link occupancy.
            let mut retries = 0u32;
            while retries < f.cfg.max_retries && f.rng.next_f64() < f.cfg.drop_rate {
                let backoff = Time::from_ps(
                    (f.cfg.backoff.as_ps() << retries.min(20)).min(f.cfg.backoff_cap.as_ps()),
                );
                t += backoff;
                retries += 1;
            }
            if retries > 0 {
                f.retransmissions += u64::from(retries);
                f.faulted_messages += 1;
            }
        }
        // Walk the hops of [`Topology::route`] in place — X then Y, shortest
        // wrap direction — reserving each outgoing link: direction index 0/1
        // is +X/-X, 2/3 is +Y/-Y.
        let (cols, rows) = (self.topo.cols, self.topo.rows);
        let (mut x, mut y) = self.topo.coords(src);
        let (dx, dy) = self.topo.coords(dst);
        let (xdir, xdist) = Topology::step(x, dx, cols);
        let (ydir, ydist) = Topology::step(y, dy, rows);
        let hop_latency = self.config.hop_latency;
        let mut hop = |node: usize, dir: usize| {
            let link = &mut self.link_free[node][dir];
            let depart = t.max(*link);
            *link = depart + ser;
            t = depart + ser + hop_latency;
        };
        for _ in 0..xdist {
            hop(y * cols + x, usize::from(xdir < 0));
            x = Topology::wrap(x, xdir, cols);
        }
        for _ in 0..ydist {
            hop(y * cols + x, 2 + usize::from(ydir < 0));
            y = Topology::wrap(y, ydir, rows);
        }
        self.messages += 1;
        self.total_bytes += bytes as u64;
        self.total_hops += (xdist + ydist) as u64;
        t + self.config.endpoint_latency
    }

    /// Traffic statistics: message count, total payload bytes, total hops.
    /// Fault counters appear only when fault injection is installed, keeping
    /// healthy-run reports identical to a build without the fault layer.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("messages", self.messages as f64);
        s.set("bytes", self.total_bytes as f64);
        s.set("hops", self.total_hops as f64);
        if let Some(f) = &self.faults {
            s.set("retransmissions", f.retransmissions as f64);
            s.set("faulted_messages", f.faulted_messages as f64);
        }
        s
    }

    /// Number of directed links still reserved past `now` (diagnostic for
    /// the watchdog dump).
    pub fn busy_links(&self, now: Time) -> usize {
        self.link_free
            .iter()
            .flat_map(|dirs| dirs.iter())
            .filter(|&&free| free > now)
            .count()
    }

    /// The furthest-in-the-future link reservation (diagnostic for the
    /// watchdog dump): how deep the worst link backlog runs past `now`.
    pub fn max_backlog(&self, now: Time) -> Time {
        self.link_free
            .iter()
            .flat_map(|dirs| dirs.iter())
            .map(|&free| free.saturating_sub(now))
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Topology::torus(4, 5);
        assert_eq!(t.len(), 20);
        for i in 0..t.len() {
            let (x, y) = t.coords(NodeId(i));
            assert_eq!(t.node_at(x, y), NodeId(i));
        }
    }

    #[test]
    fn hops_uses_wraparound() {
        let t = Topology::torus(4, 4);
        // (0,0) -> (3,0): 1 hop backwards around the wrap, not 3 forwards.
        assert_eq!(t.hops(t.node_at(0, 0), t.node_at(3, 0)), 1);
        // (0,0) -> (2,2): 2 + 2 hops.
        assert_eq!(t.hops(t.node_at(0, 0), t.node_at(2, 2)), 4);
        assert_eq!(t.hops(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn route_is_x_then_y_and_length_matches_hops() {
        let t = Topology::torus(4, 4);
        let src = t.node_at(0, 0);
        let dst = t.node_at(2, 1);
        let route = t.route(src, dst);
        assert_eq!(route.len(), t.hops(src, dst) + 1);
        assert_eq!(route[0], src);
        assert_eq!(*route.last().unwrap(), dst);
        // X moves first: second node differs in X only.
        let (x1, y1) = t.coords(route[1]);
        assert_eq!(y1, 0);
        assert_eq!(x1, 1);
    }

    /// `send` walks its hops in place; this is the route-list formulation it
    /// replaced, kept as the reference: same links reserved in the same
    /// order, same delivery time, same hop count.
    fn send_by_route(net: &mut Network, now: Time, src: NodeId, dst: NodeId, bytes: usize) -> Time {
        let topo = net.topo;
        let route = topo.route(src, dst);
        let ser = net.config.serialization(bytes);
        let mut t = now + net.config.endpoint_latency;
        for pair in route.windows(2) {
            let ((fx, fy), (tx, ty)) = (topo.coords(pair[0]), topo.coords(pair[1]));
            let dir = if fy == ty {
                usize::from((fx + 1) % topo.cols() != tx)
            } else {
                2 + usize::from((fy + 1) % topo.rows() != ty)
            };
            let link = &mut net.link_free[pair[0].0][dir];
            let depart = t.max(*link);
            *link = depart + ser;
            t = depart + ser + net.config.hop_latency;
        }
        net.messages += 1;
        net.total_bytes += bytes as u64;
        net.total_hops += (route.len() - 1) as u64;
        t + net.config.endpoint_latency
    }

    #[test]
    fn send_reserves_exactly_the_links_of_route() {
        for (cols, rows) in [(4, 4), (5, 3), (2, 2), (1, 4), (2, 1), (1, 1)] {
            let topo = Topology::torus(cols, rows);
            let mut net = Network::new(topo, NocConfig::paper_default());
            let mut reference = Network::new(topo, NocConfig::paper_default());
            let mut rng = SplitMix64::new(cols as u64 * 31 + rows as u64);
            let mut now = Time::ZERO;
            for _ in 0..2_000 {
                let src = NodeId(rng.next_u64() as usize % topo.len());
                let dst = NodeId(rng.next_u64() as usize % topo.len());
                let bytes = [8, 16, 72][rng.next_u64() as usize % 3];
                now += Time::from_ps(rng.next_u64() % 3_000);
                assert_eq!(
                    net.send(now, src, dst, bytes),
                    send_by_route(&mut reference, now, src, dst, bytes),
                    "{cols}x{rows} {src:?}->{dst:?}"
                );
            }
            assert_eq!(net.link_free, reference.link_free, "{cols}x{rows}");
            assert_eq!(net.total_hops, reference.total_hops);
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let t = Topology::torus(3, 3);
        assert_eq!(t.route(NodeId(4), NodeId(4)), vec![NodeId(4)]);
    }

    #[test]
    fn serialization_latency_matches_bandwidth() {
        let cfg = NocConfig::paper_default();
        // 72 bytes at 12 B/ns = 6 ns.
        assert_eq!(cfg.serialization(72), Time::from_ns(6));
        assert_eq!(cfg.serialization(0), Time::ZERO);
    }

    #[test]
    fn send_latency_grows_with_distance() {
        let t = Topology::torus(4, 4);
        let mut net = Network::new(t, NocConfig::paper_default());
        let near = net.send(Time::ZERO, t.node_at(0, 0), t.node_at(1, 0), 8);
        let mut net2 = Network::new(t, NocConfig::paper_default());
        let far = net2.send(Time::ZERO, t.node_at(0, 0), t.node_at(2, 2), 8);
        assert!(far > near);
    }

    #[test]
    fn local_delivery_pays_only_endpoints() {
        let t = Topology::torus(4, 4);
        let mut net = Network::new(t, NocConfig::paper_default());
        let arrive = net.send(Time::from_ns(10), NodeId(3), NodeId(3), 64);
        assert_eq!(arrive, Time::from_ns(10) + Time::from_ns(1));
    }

    #[test]
    fn links_contend() {
        let t = Topology::torus(4, 1);
        let cfg = NocConfig {
            link_bytes_per_ns: 1.0, // 1 byte/ns: big serialization delays
            hop_latency: Time::ZERO,
            endpoint_latency: Time::ZERO,
        };
        let mut net = Network::new(t, cfg);
        let a = net.send(Time::ZERO, NodeId(0), NodeId(1), 100);
        // Same link immediately afterwards: must wait for the first message.
        let b = net.send(Time::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(a, Time::from_ns(100));
        assert_eq!(b, Time::from_ns(200));
        // Opposite-direction link is free.
        let c = net.send(Time::ZERO, NodeId(1), NodeId(0), 100);
        assert_eq!(c, Time::from_ns(100));
    }

    #[test]
    fn stats_accumulate() {
        let t = Topology::torus(4, 4);
        let mut net = Network::new(t, NocConfig::paper_default());
        net.send(Time::ZERO, NodeId(0), NodeId(1), 8);
        net.send(Time::ZERO, NodeId(0), NodeId(2), 72);
        let s = net.stats();
        assert_eq!(s.get("messages"), 2.0);
        assert_eq!(s.get("bytes"), 80.0);
        assert_eq!(s.get("hops"), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        Topology::torus(2, 2).coords(NodeId(4));
    }
}

/// Properties checked exhaustively over every torus up to 7 x 7 and every
/// node pair of each.
#[cfg(test)]
mod properties {
    use super::*;

    fn every_pair(mut f: impl FnMut(Topology, usize, usize, NodeId, NodeId)) {
        for cols in 1..8 {
            for rows in 1..8 {
                let t = Topology::torus(cols, rows);
                for s in 0..t.len() {
                    for d in 0..t.len() {
                        f(t, cols, rows, NodeId(s), NodeId(d));
                    }
                }
            }
        }
    }

    /// Routes always reach the destination, have hop-count length, and
    /// every step moves between torus neighbours.
    #[test]
    fn routes_are_valid() {
        every_pair(|t, cols, rows, src, dst| {
            let route = t.route(src, dst);
            assert_eq!(route[0], src);
            assert_eq!(*route.last().unwrap(), dst);
            assert_eq!(route.len(), t.hops(src, dst) + 1);
            for w in route.windows(2) {
                let (ax, ay) = t.coords(w[0]);
                let (bx, by) = t.coords(w[1]);
                let xd = (ax as isize - bx as isize).rem_euclid(cols as isize);
                let yd = (ay as isize - by as isize).rem_euclid(rows as isize);
                let x_neighbour = ay == by && (xd == 1 || xd == cols as isize - 1);
                let y_neighbour = ax == bx && (yd == 1 || yd == rows as isize - 1);
                assert!(x_neighbour || y_neighbour, "non-neighbour step");
            }
        });
    }

    /// Hop count is bounded by the torus diameter and symmetric.
    #[test]
    fn hops_bounded_and_symmetric() {
        every_pair(|t, cols, rows, src, dst| {
            let h = t.hops(src, dst);
            assert!(h <= cols / 2 + rows / 2);
            assert_eq!(h, t.hops(dst, src));
        });
    }

    /// Delivery time is monotone in send time on an otherwise-idle net.
    #[test]
    fn delivery_monotone() {
        let t = Topology::torus(4, 4);
        for start in 0..1000 {
            let mut n1 = Network::new(t, NocConfig::paper_default());
            let mut n2 = Network::new(t, NocConfig::paper_default());
            let a = n1.send(Time::from_ns(start), NodeId(0), NodeId(9), 72);
            let b = n2.send(Time::from_ns(start + 1), NodeId(0), NodeId(9), 72);
            assert!(b > a);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    #[test]
    fn disabled_faults_do_not_change_timing_or_stats() {
        let topo = Topology::torus(4, 4);
        let mut plain = Network::new(topo, NocConfig::paper_default());
        let mut faulty = Network::new(topo, NocConfig::paper_default());
        faulty.install_faults(
            NocFaultConfig {
                drop_rate: 0.0,
                ..NocFaultConfig::default()
            },
            SplitMix64::new(7),
        );
        for i in 0..50u64 {
            let t = Time::from_ns(i * 3);
            let (src, dst) = (
                NodeId((i % 16) as usize),
                NodeId(((i * 5 + 3) % 16) as usize),
            );
            assert_eq!(plain.send(t, src, dst, 72), faulty.send(t, src, dst, 72));
        }
        // Fault counter keys appear only when installed; values stay zero at
        // rate 0 so the timing above matched.
        assert_eq!(faulty.stats().get("retransmissions"), 0.0);
        assert!(!plain.stats().contains("retransmissions"));
    }

    #[test]
    fn retransmissions_delay_bounded_and_replay_deterministically() {
        let topo = Topology::torus(4, 4);
        let cfg = NocFaultConfig {
            drop_rate: 0.5,
            max_retries: 4,
            backoff: Time::from_ns(10),
            backoff_cap: Time::from_ns(40),
        };
        let run = |seed: u64| {
            let mut net = Network::new(topo, NocConfig::paper_default());
            net.install_faults(cfg, SplitMix64::new(seed));
            let deliveries: Vec<Time> = (0..200u64)
                .map(|i| {
                    net.send(
                        Time::from_ns(i * 2),
                        NodeId((i % 16) as usize),
                        NodeId(((i * 7 + 1) % 16) as usize),
                        72,
                    )
                })
                .collect();
            (deliveries, net.stats().get("retransmissions"))
        };
        let (a, ra) = run(1);
        let (b, rb) = run(1);
        assert_eq!(a, b, "same seed: identical deliveries");
        assert_eq!(ra, rb);
        assert!(ra > 0.0, "at 50% drop rate some retransmissions must occur");
        let (c, _) = run(2);
        assert_ne!(a, c, "different seeds diverge");

        // Worst-case added delay is bounded: max_retries * backoff_cap.
        let mut clean = Network::new(topo, NocConfig::paper_default());
        let mut faulty = Network::new(topo, NocConfig::paper_default());
        faulty.install_faults(cfg, SplitMix64::new(3));
        for i in 0..100u64 {
            let t = Time::from_ns(i * 2);
            let (src, dst) = (
                NodeId((i % 16) as usize),
                NodeId(((i * 3 + 2) % 16) as usize),
            );
            let base = clean.send(t, src, dst, 72);
            let delayed = faulty.send(t, src, dst, 72);
            assert!(delayed >= base);
            assert!(delayed <= base + Time::from_ns(4 * 40));
        }
    }
}
