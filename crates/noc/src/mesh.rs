//! Cycle-level 2D-mesh network-on-chip with dimension-ordered (XY) routing.
//!
//! This is the base NoC of ScalaGraph (Section III-A): every PE carries a
//! routing unit connected to its four mesh neighbors. Routers are
//! input-buffered with one-packet-per-output-port switching and round-robin
//! arbitration; packets are single-flit (a vertex update is an 8-byte
//! id+value pair, well within one link width).

use crate::stats::NocStats;
use std::collections::{HashMap, VecDeque};

/// A single-flit packet carrying an opaque payload to a destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination node index (`row * cols + col`).
    pub dst: usize,
    /// Opaque payload (the simulator packs a vertex update here).
    pub payload: u64,
    /// Cycle the packet was injected, for latency accounting.
    pub inject_cycle: u64,
}

/// Mesh dimensions and buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Number of router rows.
    pub rows: usize,
    /// Number of router columns.
    pub cols: usize,
    /// Capacity of each router input queue, in packets.
    pub input_queue_capacity: usize,
    /// Torus mode: wraparound links in both dimensions, shortest-way ring
    /// routing, and bubble flow control — a packet entering a ring (from
    /// the local port, or turning between dimensions) must leave one free
    /// slot in the downstream queue, which breaks the cyclic buffer
    /// dependency that would otherwise deadlock a wrapped ring.
    pub wraparound: bool,
}

impl MeshConfig {
    /// A square or rectangular mesh with the default queue depth (4, a
    /// typical FPGA NoC input FIFO).
    pub fn new(rows: usize, cols: usize) -> Self {
        MeshConfig {
            rows,
            cols,
            input_queue_capacity: 4,
            wraparound: false,
        }
    }

    /// A torus: the same grid with wraparound links.
    pub fn torus(rows: usize, cols: usize) -> Self {
        MeshConfig {
            wraparound: true,
            ..Self::new(rows, cols)
        }
    }

    /// Number of router nodes.
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }
}

/// Input ports of a router. `Local` is the injection port.
const PORT_LOCAL: usize = 0;
const PORT_NORTH: usize = 1; // from the router above (row - 1)
const PORT_SOUTH: usize = 2; // from the router below (row + 1)
const PORT_WEST: usize = 3; // from the router left (col - 1)
const PORT_EAST: usize = 4; // from the router right (col + 1)
const NUM_PORTS: usize = 5;

/// Output directions a packet may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Eject,
    North, // towards row - 1
    South, // towards row + 1
    West,  // towards col - 1
    East,  // towards col + 1
}

const NUM_DIRS: usize = 5;

fn dir_index(d: Dir) -> usize {
    match d {
        Dir::Eject => 0,
        Dir::North => 1,
        Dir::South => 2,
        Dir::West => 3,
        Dir::East => 4,
    }
}

#[derive(Debug, Clone)]
struct Router {
    inputs: [VecDeque<Packet>; NUM_PORTS],
    ejected: VecDeque<Packet>,
    // Round-robin pointer per output direction.
    rr: [usize; NUM_DIRS],
}

impl Router {
    fn new() -> Self {
        Router {
            inputs: Default::default(),
            ejected: VecDeque::new(),
            rr: [0; NUM_DIRS],
        }
    }

    fn occupancy(&self, port: usize) -> usize {
        self.inputs[port].len()
    }
}

/// A cycle-stepped 2D-mesh NoC.
///
/// # Example
///
/// ```
/// use scalagraph_noc::{Mesh, MeshConfig, Packet};
///
/// let mut mesh = Mesh::new(MeshConfig::new(4, 4));
/// mesh.try_inject(0, Packet { dst: 15, payload: 1, inject_cycle: 0 });
/// for _ in 0..20 {
///     mesh.step();
/// }
/// assert_eq!(mesh.pop_delivered(15).unwrap().payload, 1);
/// ```
/// An injected fault on one directed mesh link (fault-injection testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The link carries nothing: packets heading across it stay queued
    /// upstream (zero credit).
    Down,
    /// The link silently discards one packet in `one_in` (`one_in <= 1`
    /// drops every packet); survivors cross normally.
    Lossy {
        /// Drop one packet in this many.
        one_in: u32,
    },
}

/// Cumulative traffic of one directed mesh link, for utilization heatmaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLoad {
    /// Source router of the directed link.
    pub from: usize,
    /// Destination router.
    pub to: usize,
    /// Packets that crossed the link (including ones a lossy fault then
    /// discarded — they still occupied the link).
    pub traversals: u64,
    /// Cycles the link wanted to carry a packet but could not (downstream
    /// queue full, bubble reserved, or link downed).
    pub blocked_cycles: u64,
}

#[derive(Debug, Clone)]
pub struct Mesh {
    config: MeshConfig,
    routers: Vec<Router>,
    stats: NocStats,
    now: u64,
    /// Injected faults keyed by directed link `(from_node, to_node)`.
    link_faults: HashMap<(usize, usize), LinkFault>,
    /// Xorshift state for lossy-link decisions (deterministic).
    fault_rng: u64,
    /// Cumulative traversals per directed link, `node * 4 + (dir - 1)`.
    link_hops: Vec<u64>,
    /// Cycles each directed link had a contender but granted nothing.
    link_blocked: Vec<u64>,
}

impl Mesh {
    /// Creates a mesh NoC.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(config: MeshConfig) -> Self {
        assert!(config.rows > 0 && config.cols > 0, "mesh must be non-empty");
        assert!(config.input_queue_capacity > 0);
        Mesh {
            routers: (0..config.nodes()).map(|_| Router::new()).collect(),
            stats: NocStats::default(),
            now: 0,
            link_faults: HashMap::new(),
            fault_rng: 0x9e3779b97f4a7c15,
            link_hops: vec![0; config.nodes() * 4],
            link_blocked: vec![0; config.nodes() * 4],
            config,
        }
    }

    /// Installs (or with `None` clears) a fault on the directed link from
    /// `from` to its neighbor `to`. Faulting a non-adjacent pair is allowed
    /// but has no effect — no packet ever crosses such a link.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn set_link_fault(&mut self, from: usize, to: usize, fault: Option<LinkFault>) {
        assert!(from < self.config.nodes(), "fault source out of range");
        assert!(to < self.config.nodes(), "fault target out of range");
        match fault {
            Some(f) => {
                self.link_faults.insert((from, to), f);
            }
            None => {
                self.link_faults.remove(&(from, to));
            }
        }
    }

    /// Re-seeds the deterministic lossy-link stream.
    pub fn seed_faults(&mut self, seed: u64) {
        // Zero would freeze the xorshift stream.
        self.fault_rng = seed | 1;
    }

    fn fault_hits(&mut self, one_in: u32) -> bool {
        if one_in <= 1 {
            return true;
        }
        let mut x = self.fault_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.fault_rng = x;
        x.is_multiple_of(one_in as u64)
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Injects `packet` at `node`'s local port. Returns `false` when the
    /// local input queue is full (caller retries next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `node` or `packet.dst` is out of range.
    pub fn try_inject(&mut self, node: usize, packet: Packet) -> bool {
        assert!(node < self.config.nodes(), "inject node out of range");
        assert!(packet.dst < self.config.nodes(), "dst out of range");
        let r = &mut self.routers[node];
        if r.inputs[PORT_LOCAL].len() >= self.config.input_queue_capacity {
            return false;
        }
        r.inputs[PORT_LOCAL].push_back(packet);
        self.stats.packets_injected += 1;
        true
    }

    /// Whether `node` can accept an injection this cycle.
    pub fn can_inject(&self, node: usize) -> bool {
        self.routers[node].inputs[PORT_LOCAL].len() < self.config.input_queue_capacity
    }

    fn route(&self, node: usize, dst: usize) -> Dir {
        let cols = self.config.cols;
        let rows = self.config.rows;
        let (r, c) = (node / cols, node % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        if self.config.wraparound {
            // Shortest-way ring routing, column dimension first.
            if dc != c {
                let fwd = (dc + cols - c) % cols; // hops going east
                return if fwd <= cols - fwd {
                    Dir::East
                } else {
                    Dir::West
                };
            }
            if dr != r {
                let fwd = (dr + rows - r) % rows; // hops going south
                return if fwd <= rows - fwd {
                    Dir::South
                } else {
                    Dir::North
                };
            }
            return Dir::Eject;
        }
        // XY routing: fix the column (X) first, then the row (Y).
        if dc > c {
            Dir::East
        } else if dc < c {
            Dir::West
        } else if dr > r {
            Dir::South
        } else if dr < r {
            Dir::North
        } else {
            Dir::Eject
        }
    }

    fn neighbor(&self, node: usize, d: Dir) -> (usize, usize) {
        // Returns (neighbor node, the input port on the neighbor we feed).
        let cols = self.config.cols;
        let rows = self.config.rows;
        let (r, c) = (node / cols, node % cols);
        let wrap = self.config.wraparound;
        let at = |r: usize, c: usize| r * cols + c;
        match d {
            Dir::North => {
                let nr = if r == 0 {
                    debug_assert!(wrap, "north off the edge without wraparound");
                    rows - 1
                } else {
                    r - 1
                };
                (at(nr, c), PORT_SOUTH)
            }
            Dir::South => {
                let nr = if r + 1 == rows {
                    debug_assert!(wrap, "south off the edge without wraparound");
                    0
                } else {
                    r + 1
                };
                (at(nr, c), PORT_NORTH)
            }
            Dir::West => {
                let nc = if c == 0 {
                    debug_assert!(wrap, "west off the edge without wraparound");
                    cols - 1
                } else {
                    c - 1
                };
                (at(r, nc), PORT_EAST)
            }
            Dir::East => {
                let nc = if c + 1 == cols {
                    debug_assert!(wrap, "east off the edge without wraparound");
                    0
                } else {
                    c + 1
                };
                (at(r, nc), PORT_WEST)
            }
            Dir::Eject => unreachable!("eject has no neighbor"),
        }
    }

    /// Advances the network by one cycle: every router forwards at most one
    /// packet per output direction, chosen round-robin over its input ports.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        let nodes = self.config.nodes();

        // Phase 1: arbitration. Decide, per router and output direction,
        // which input port wins; record moves without mutating queues so a
        // packet cannot traverse two links in one cycle.
        // A move is (src_node, src_port, dir).
        let mut moves: Vec<(usize, usize, Dir)> = Vec::new();
        // Free slots in each (node, port) input queue at cycle start.
        let mut free: Vec<[usize; NUM_PORTS]> = self
            .routers
            .iter()
            .map(|r| {
                let mut f = [0; NUM_PORTS];
                for (p, slot) in f.iter_mut().enumerate() {
                    *slot = self.config.input_queue_capacity - r.occupancy(p);
                }
                f
            })
            .collect();

        for node in 0..nodes {
            // Which direction does each input port's head packet want?
            let wants: Vec<Option<Dir>> = (0..NUM_PORTS)
                .map(|p| {
                    self.routers[node].inputs[p]
                        .front()
                        .map(|pkt| self.route(node, pkt.dst))
                })
                .collect();
            for dir in [Dir::Eject, Dir::North, Dir::South, Dir::West, Dir::East] {
                let di = dir_index(dir);
                let start = self.routers[node].rr[di];
                // Grant the first contender (round-robin order) that can
                // actually move: a contender blocked by downstream space
                // must not starve the others — on a torus, a bubble-blocked
                // ring entry that permanently outranked the continuing
                // traffic would deadlock the ring.
                let mut contenders = 0usize;
                let mut granted = false;
                for k in 0..NUM_PORTS {
                    let p = (start + k) % NUM_PORTS;
                    if wants[p] != Some(dir) {
                        continue;
                    }
                    contenders += 1;
                    if granted {
                        continue;
                    }
                    // Downstream space (eject queues are unbounded: the
                    // consumer drains them every cycle). On a torus,
                    // bubble flow control: packets *entering* a ring (from
                    // the local port or turning dimensions) must leave one
                    // slot free; packets continuing along their ring may
                    // take the last slot.
                    let ok = if dir == Dir::Eject {
                        true
                    } else {
                        let continuing = match dir {
                            Dir::North | Dir::South => p == PORT_NORTH || p == PORT_SOUTH,
                            Dir::East | Dir::West => p == PORT_EAST || p == PORT_WEST,
                            Dir::Eject => unreachable!(),
                        };
                        let needed = if self.config.wraparound && !continuing {
                            2
                        } else {
                            1
                        };
                        let (n, port) = self.neighbor(node, dir);
                        if matches!(self.link_faults.get(&(node, n)), Some(LinkFault::Down)) {
                            // A downed link grants nothing; the contender
                            // counts as blocked below.
                            false
                        } else if free[n][port] >= needed {
                            free[n][port] -= 1;
                            true
                        } else {
                            false
                        }
                    };
                    if ok {
                        moves.push((node, p, dir));
                        self.routers[node].rr[di] = (p + 1) % NUM_PORTS;
                        granted = true;
                    }
                }
                if contenders > 1 || (contenders == 1 && !granted) {
                    self.stats.conflict_cycles += (contenders - usize::from(granted)) as u64;
                }
                if dir != Dir::Eject && contenders > 0 && !granted {
                    self.link_blocked[node * 4 + di - 1] += 1;
                }
            }
        }

        // Phase 2: apply the moves.
        for (node, port, dir) in moves {
            let Some(pkt) = self.routers[node].inputs[port].pop_front() else {
                debug_assert!(false, "granted move from an empty input queue");
                continue;
            };
            self.stats.flit_hops += 1;
            match dir {
                Dir::Eject => {
                    self.stats.packets_delivered += 1;
                    self.stats.total_latency_cycles += self.now - pkt.inject_cycle;
                    self.routers[node].ejected.push_back(pkt);
                }
                _ => {
                    let (n, in_port) = self.neighbor(node, dir);
                    self.link_hops[node * 4 + dir_index(dir) - 1] += 1;
                    if !self.link_faults.is_empty() {
                        if let Some(&LinkFault::Lossy { one_in }) = self.link_faults.get(&(node, n))
                        {
                            if self.fault_hits(one_in) {
                                self.stats.packets_dropped += 1;
                                continue;
                            }
                        }
                    }
                    self.routers[n].inputs[in_port].push_back(pkt);
                }
            }
        }
    }

    /// Pops the next packet delivered at `node`, if any.
    pub fn pop_delivered(&mut self, node: usize) -> Option<Packet> {
        self.routers[node].ejected.pop_front()
    }

    /// Whether all router queues are empty (undelivered ejections count as
    /// non-idle).
    pub fn is_idle(&self) -> bool {
        self.routers
            .iter()
            .all(|r| r.inputs.iter().all(VecDeque::is_empty) && r.ejected.is_empty())
    }

    /// Whether all router pipelines are drained, ignoring unconsumed
    /// ejection queues.
    pub fn in_flight_empty(&self) -> bool {
        self.routers
            .iter()
            .all(|r| r.inputs.iter().all(VecDeque::is_empty))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Cumulative per-link traffic, one entry per directed link that ever
    /// carried or refused a packet, in node order.
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        let dirs = [Dir::North, Dir::South, Dir::West, Dir::East];
        let mut loads = Vec::new();
        for node in 0..self.config.nodes() {
            for (k, &dir) in dirs.iter().enumerate() {
                let (traversals, blocked) = (
                    self.link_hops[node * 4 + k],
                    self.link_blocked[node * 4 + k],
                );
                if traversals == 0 && blocked == 0 {
                    continue;
                }
                // Only query the neighbor for links that saw traffic: edge
                // nodes of a non-wrapped mesh have no neighbor in every
                // direction, and such links can never be used or blocked.
                loads.push(LinkLoad {
                    from: node,
                    to: self.neighbor(node, dir).0,
                    traversals,
                    blocked_cycles: blocked,
                });
            }
        }
        loads
    }

    /// Hop distance between two nodes (plus one ejection hop): Manhattan
    /// on a mesh, shortest-way ring distance on a torus.
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        let cols = self.config.cols;
        let rows = self.config.rows;
        let (ar, ac) = (a / cols, a % cols);
        let (br, bc) = (b / cols, b % cols);
        if self.config.wraparound {
            let dc = ac.abs_diff(bc).min(cols - ac.abs_diff(bc));
            let dr = ar.abs_diff(br).min(rows - ar.abs_diff(br));
            dr + dc + 1
        } else {
            ar.abs_diff(br) + ac.abs_diff(bc) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_delivered(mesh: &mut Mesh, node: usize, max_cycles: usize) -> Option<Packet> {
        for _ in 0..max_cycles {
            mesh.step();
            if let Some(p) = mesh.pop_delivered(node) {
                return Some(p);
            }
        }
        None
    }

    #[test]
    fn delivers_to_self_in_one_hop() {
        let mut m = Mesh::new(MeshConfig::new(2, 2));
        m.try_inject(
            3,
            Packet {
                dst: 3,
                payload: 9,
                inject_cycle: 0,
            },
        );
        let p = run_until_delivered(&mut m, 3, 5).unwrap();
        assert_eq!(p.payload, 9);
        assert_eq!(m.stats().flit_hops, 1);
    }

    #[test]
    fn xy_route_takes_manhattan_hops() {
        let mut m = Mesh::new(MeshConfig::new(4, 4));
        // 0 (0,0) -> 15 (3,3): 3 east + 3 south + eject = 7 hops.
        m.try_inject(
            0,
            Packet {
                dst: 15,
                payload: 1,
                inject_cycle: m.now(),
            },
        );
        let _ = run_until_delivered(&mut m, 15, 30).unwrap();
        assert_eq!(m.stats().flit_hops as usize, m.hop_distance(0, 15));
        assert_eq!(m.stats().avg_latency(), m.hop_distance(0, 15) as f64);
    }

    #[test]
    fn all_to_one_congestion_still_delivers_all() {
        let mut m = Mesh::new(MeshConfig::new(4, 4));
        let n = m.config().nodes();
        let mut pending: Vec<Packet> = (0..n)
            .map(|src| Packet {
                dst: 5,
                payload: src as u64,
                inject_cycle: 0,
            })
            .collect();
        let mut delivered = Vec::new();
        let mut srcs: Vec<usize> = (0..n).collect();
        for _ in 0..500 {
            let mut still = Vec::new();
            let mut still_src = Vec::new();
            for (pkt, src) in pending.drain(..).zip(srcs.drain(..)) {
                if !m.try_inject(src, pkt) {
                    still.push(pkt);
                    still_src.push(src);
                }
            }
            pending = still;
            srcs = still_src;
            m.step();
            while let Some(p) = m.pop_delivered(5) {
                delivered.push(p.payload);
            }
            if pending.is_empty() && m.in_flight_empty() {
                break;
            }
        }
        while let Some(p) = m.pop_delivered(5) {
            delivered.push(p.payload);
        }
        delivered.sort_unstable();
        assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>());
        assert!(m.stats().conflict_cycles > 0, "hotspot must conflict");
    }

    #[test]
    fn exactly_once_delivery_random_traffic() {
        let mut m = Mesh::new(MeshConfig::new(4, 4));
        let n = m.config().nodes();
        // Deterministic pseudo-random pattern without pulling in rand.
        let mut to_send: Vec<(usize, Packet)> = (0..200u64)
            .map(|i| {
                let src = ((i * 7 + 3) % n as u64) as usize;
                let dst = ((i * 13 + 5) % n as u64) as usize;
                (
                    src,
                    Packet {
                        dst,
                        payload: i,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..2000 {
            let mut rest = Vec::new();
            for (src, pkt) in to_send.drain(..) {
                if !m.try_inject(src, pkt) {
                    rest.push((src, pkt));
                }
            }
            to_send = rest;
            m.step();
            for node in 0..n {
                while let Some(p) = m.pop_delivered(node) {
                    assert_eq!(p.dst, node, "misdelivered packet");
                    got.push(p.payload);
                }
            }
            if to_send.is_empty() && m.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..200u64).collect::<Vec<_>>());
        assert_eq!(m.stats().packets_delivered, 200);
        assert_eq!(m.stats().packets_injected, 200);
    }

    #[test]
    fn back_pressure_on_local_port() {
        let mut m = Mesh::new(MeshConfig {
            input_queue_capacity: 2,
            ..MeshConfig::new(1, 2)
        });
        let pkt = Packet {
            dst: 1,
            payload: 0,
            inject_cycle: 0,
        };
        assert!(m.try_inject(0, pkt));
        assert!(m.try_inject(0, pkt));
        assert!(!m.try_inject(0, pkt), "queue of 2 must be full");
        assert!(!m.can_inject(0));
    }

    #[test]
    fn column_only_traffic_uses_vertical_links() {
        // Row-oriented mapping sends traffic only within a column; check a
        // pure column workload never crosses columns.
        let mut m = Mesh::new(MeshConfig::new(4, 4));
        for r in 0..4usize {
            m.try_inject(
                r * 4 + 2,
                Packet {
                    dst: ((r + 2) % 4) * 4 + 2,
                    payload: r as u64,
                    inject_cycle: 0,
                },
            );
        }
        for _ in 0..50 {
            m.step();
        }
        let expected: usize = (0..4usize)
            .map(|r| m.hop_distance(r * 4 + 2, ((r + 2) % 4) * 4 + 2))
            .sum();
        assert_eq!(m.stats().flit_hops as usize, expected);
        assert_eq!(m.stats().packets_delivered, 4);
    }

    #[test]
    fn one_packet_per_link_per_cycle() {
        // Two packets from the same node to the same direction serialize.
        let mut m = Mesh::new(MeshConfig::new(1, 3));
        for i in 0..2 {
            m.try_inject(
                0,
                Packet {
                    dst: 2,
                    payload: i,
                    inject_cycle: 0,
                },
            );
        }
        let mut arrival = Vec::new();
        for cycle in 1..=20u64 {
            m.step();
            while let Some(p) = m.pop_delivered(2) {
                arrival.push((cycle, p.payload));
            }
        }
        assert_eq!(arrival.len(), 2);
        assert_eq!(arrival[1].0 - arrival[0].0, 1, "must serialize on link");
    }

    #[test]
    fn torus_takes_the_short_way_around() {
        let mut m = Mesh::new(MeshConfig::torus(1, 8));
        // 0 -> 7 is 1 hop westward around the ring (+ eject).
        m.try_inject(
            0,
            Packet {
                dst: 7,
                payload: 1,
                inject_cycle: 0,
            },
        );
        let p = run_until_delivered(&mut m, 7, 10).unwrap();
        assert_eq!(p.payload, 1);
        assert_eq!(m.stats().flit_hops, 2, "wrap link + eject");
        assert_eq!(m.hop_distance(0, 7), 2);
    }

    #[test]
    fn torus_random_traffic_exactly_once() {
        let mut m = Mesh::new(MeshConfig::torus(4, 4));
        let n = 16;
        let mut to_send: Vec<(usize, Packet)> = (0..100u64)
            .map(|i| {
                (
                    (i as usize * 5 + 1) % n,
                    Packet {
                        dst: (i as usize * 11 + 3) % n,
                        payload: i,
                        inject_cycle: 0,
                    },
                )
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..2000 {
            to_send.retain(|&(src, pkt)| !m.try_inject(src, pkt));
            m.step();
            for node in 0..n {
                while let Some(p) = m.pop_delivered(node) {
                    assert_eq!(p.dst, node);
                    got.push(p.payload);
                }
            }
            if to_send.is_empty() && m.in_flight_empty() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn torus_shortens_average_distance() {
        let mesh = Mesh::new(MeshConfig::new(8, 8));
        let torus = Mesh::new(MeshConfig::torus(8, 8));
        let mut mesh_sum = 0usize;
        let mut torus_sum = 0usize;
        for a in 0..64 {
            for b in 0..64 {
                mesh_sum += mesh.hop_distance(a, b);
                torus_sum += torus.hop_distance(a, b);
            }
        }
        // 8x8: mesh averages ~2.63 hops per dimension, the torus exactly
        // 2; with the ejection hop the expected ratio is ~0.80.
        assert!(
            torus_sum * 100 < mesh_sum * 85,
            "torus {torus_sum} mesh {mesh_sum}"
        );
    }

    #[test]
    fn down_link_blocks_until_cleared() {
        let mut m = Mesh::new(MeshConfig::new(1, 2));
        m.set_link_fault(0, 1, Some(LinkFault::Down));
        m.try_inject(
            0,
            Packet {
                dst: 1,
                payload: 7,
                inject_cycle: 0,
            },
        );
        for _ in 0..50 {
            m.step();
        }
        assert!(
            m.pop_delivered(1).is_none(),
            "downed link must carry nothing"
        );
        assert!(!m.in_flight_empty(), "packet stays queued upstream");
        assert!(m.stats().conflict_cycles > 0);
        m.set_link_fault(0, 1, None);
        let p = run_until_delivered(&mut m, 1, 10).unwrap();
        assert_eq!(p.payload, 7);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let mut m = Mesh::new(MeshConfig::new(1, 2));
        m.set_link_fault(0, 1, Some(LinkFault::Lossy { one_in: 1 }));
        m.try_inject(
            0,
            Packet {
                dst: 1,
                payload: 1,
                inject_cycle: 0,
            },
        );
        for _ in 0..20 {
            m.step();
        }
        assert!(m.pop_delivered(1).is_none());
        assert_eq!(m.stats().packets_dropped, 1);
        assert!(m.in_flight_empty(), "the drop consumed the packet");
        // Faults only touch their own link: the reverse direction works.
        m.try_inject(
            1,
            Packet {
                dst: 0,
                payload: 2,
                inject_cycle: 0,
            },
        );
        let p = run_until_delivered(&mut m, 0, 10).unwrap();
        assert_eq!(p.payload, 2);
        assert_eq!(m.stats().packets_dropped, 1);
    }

    #[test]
    fn link_loads_track_traffic_and_blockage() {
        let mut m = Mesh::new(MeshConfig::new(1, 3));
        // 0 -> 2 crosses links 0->1 and 1->2 exactly once each.
        m.try_inject(
            0,
            Packet {
                dst: 2,
                payload: 1,
                inject_cycle: 0,
            },
        );
        for _ in 0..10 {
            m.step();
        }
        let loads = m.link_loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.contains(&LinkLoad {
            from: 0,
            to: 1,
            traversals: 1,
            blocked_cycles: 0
        }));
        assert!(loads.contains(&LinkLoad {
            from: 1,
            to: 2,
            traversals: 1,
            blocked_cycles: 0
        }));
        let total: u64 = loads.iter().map(|l| l.traversals).sum();
        // Every hop except the final ejection crossed a link.
        assert_eq!(total, m.stats().flit_hops - 1);

        // A downed link accrues blocked cycles instead of traversals.
        let mut m = Mesh::new(MeshConfig::new(1, 2));
        m.set_link_fault(0, 1, Some(LinkFault::Down));
        m.try_inject(
            0,
            Packet {
                dst: 1,
                payload: 2,
                inject_cycle: 0,
            },
        );
        for _ in 0..8 {
            m.step();
        }
        let loads = m.link_loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].from, 0);
        assert_eq!(loads[0].to, 1);
        assert_eq!(loads[0].traversals, 0);
        assert_eq!(loads[0].blocked_cycles, 8);
    }

    #[test]
    #[should_panic(expected = "dst out of range")]
    fn inject_rejects_bad_destination() {
        let mut m = Mesh::new(MeshConfig::new(2, 2));
        let _ = m.try_inject(
            0,
            Packet {
                dst: 99,
                payload: 0,
                inject_cycle: 0,
            },
        );
    }
}
