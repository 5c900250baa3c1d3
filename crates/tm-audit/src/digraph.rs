//! The saturation graph: a compact digraph over dense transaction indices
//! that takes arbitrary edges, plus the two graph walks every order over
//! dense indices shares.
//!
//! [`DiGraph`] serves only the saturation graph and the graphs derived from
//! it (causal saturation's [`crate::saturation::Saturated::graph`], Read
//! Atomic's one-pass derivation, the write-skew check's forced edges).
//! Saturation derives edges between any two vertices, so it keeps one
//! out-list per vertex and a global edge set to deduplicate them.  The
//! partial order's own base relation does not: it lives in
//! [`crate::po::BaseGraph`], an edge arena whose every edge touches the
//! vertex being appended, so it needs no edge set.  A saturation graph
//! starts as a copy of that base ([`crate::po::BaseGraph::to_digraph`], or
//! edge by edge from the edge log).
//!
//! Both graphs answer the same two walks, written once over any
//! out-neighbour function:
//!
//! * cycle detection with a short witness path ([`DiGraph::find_cycle`]),
//! * topological orders with a caller-chosen tie-break key
//!   ([`DiGraph::topo_order_by`]) — the serializability fast path feeds the
//!   recording-order hints in here, and resumes from the vertex its last
//!   pass ended at.
//!
//! There is no reachability oracle here: the one consumer that needs
//! "`a` reaches `b`" — causal saturation — answers it from per-chain clocks
//! it pushes forward from every new edge ([`crate::saturation`]), `V · k`
//! words for `k` session chains instead of a `V²`-bit closure.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The SplitMix64 output function: a fixed, well-mixed 64-bit hash.  It keys
/// the DFS's Zobrist table and hashes the edge set's dense index pairs —
/// never a key read from input, which a fixed hash would let input flood.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`splitmix64`] as a [`Hasher`] for the edge set's `u64` keys.
#[derive(Debug, Clone, Copy, Default)]
struct SplitMix(u64);

impl Hasher for SplitMix {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// A directed graph over vertices `0..n` with deduplicated edges.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
    edges: HashSet<u64, BuildHasherDefault<SplitMix>>,
}

fn key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

impl DiGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DiGraph { adj: vec![Vec::new(); n], edges: HashSet::default() }
    }

    /// A graph with no vertices yet, and room for `vertices` vertices and
    /// `edges` edges before it reallocates.
    pub(crate) fn with_capacity(vertices: usize, edges: usize) -> Self {
        DiGraph {
            adj: Vec::with_capacity(vertices),
            edges: HashSet::with_capacity_and_hasher(edges, Default::default()),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Append a fresh isolated vertex and return its index.  The streaming
    /// pipeline grows the graph one committed transaction at a time.
    pub fn add_vertex(&mut self) -> u32 {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as u32
    }

    /// Insert `a → b`; returns `true` if the edge is new.  Self-loops are
    /// recorded too (they make the graph cyclic, which is the point).
    pub fn add_edge(&mut self, a: u32, b: u32) -> bool {
        if self.edges.insert(key(a, b)) {
            self.adj[a as usize].push(b);
            true
        } else {
            false
        }
    }

    /// Whether `a → b` is present.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.edges.contains(&key(a, b))
    }

    /// Out-neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// A topological order of the vertices `from..` minimising the given
    /// per-vertex key, then the index, among the ready vertices
    /// (deterministic Kahn), or `None` if they hold a cycle.  `from = 0`
    /// orders the whole graph.
    ///
    /// The key steers *which* valid order is produced — the serializability
    /// fast path passes recording-order hints so the result is the closest
    /// topological order to the observed commit order.  A `from` above 0
    /// continues an order that already placed `0..from`: no edge may enter
    /// that prefix from `from..` (it panics if one does).
    pub fn topo_order_by(&self, tie_break: &[u64], from: u32) -> Option<Vec<u32>> {
        topo_order_by(self.len(), |v| self.neighbors(v).iter().copied(), tie_break, from)
    }

    /// A cycle as a vertex path `v0 → v1 → … → v0` starting at its smallest
    /// vertex, if one exists.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        find_cycle(self.len(), |v| self.neighbors(v).iter().copied())
    }
}

/// [`DiGraph::topo_order_by`] over the graph on `0..n` whose out-neighbours
/// `neighbors` lists.
pub(crate) fn topo_order_by<I: Iterator<Item = u32>>(
    n: usize,
    neighbors: impl Fn(u32) -> I,
    tie_break: &[u64],
    from: u32,
) -> Option<Vec<u32>> {
    let from = from as usize;
    let key = |v: u32| Reverse((tie_break.get(v as usize).copied().unwrap_or(0), v));
    let mut indegree = vec![0u32; n - from];
    for v in from..n {
        for b in neighbors(v as u32) {
            indegree[b as usize - from] += 1;
        }
    }
    // Min-heap over (key, vertex) via Reverse ordering.
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> =
        (from..n).filter(|&v| indegree[v - from] == 0).map(|v| key(v as u32)).collect();
    let mut order = Vec::with_capacity(n - from);
    while let Some(Reverse((_, v))) = ready.pop() {
        order.push(v);
        for b in neighbors(v) {
            let d = &mut indegree[b as usize - from];
            *d -= 1;
            if *d == 0 {
                ready.push(key(b));
            }
        }
    }
    (order.len() == n - from).then_some(order)
}

/// [`DiGraph::find_cycle`] over the graph on `0..n` whose out-neighbours
/// `neighbors` lists.
pub(crate) fn find_cycle<I: Iterator<Item = u32>>(
    n: usize,
    neighbors: impl Fn(u32) -> I,
) -> Option<Vec<u32>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut parent = vec![u32::MAX; n];
    for start in 0..n as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        // Iterative DFS keeping (vertex, children still to visit) frames.
        let mut stack = vec![(start, neighbors(start))];
        color[start as usize] = GRAY;
        while let Some((v, children)) = stack.last_mut() {
            let v = *v;
            let Some(child) = children.next() else {
                color[v as usize] = BLACK;
                stack.pop();
                continue;
            };
            match color[child as usize] {
                WHITE => {
                    color[child as usize] = GRAY;
                    parent[child as usize] = v;
                    stack.push((child, neighbors(child)));
                }
                GRAY => {
                    // Back edge v → child closes a cycle.
                    let mut path = vec![child];
                    let mut cur = v;
                    while cur != child {
                        path.push(cur);
                        cur = parent[cur as usize];
                    }
                    path.reverse();
                    // Start the cycle at its smallest vertex: which back
                    // edge the DFS meets first depends on the order edges
                    // were inserted in (eagerly per probe, or caught up at
                    // once), and the same cycle must not read differently
                    // for it.
                    let (at, &first) =
                        path.iter().enumerate().min_by_key(|&(_, &v)| v).expect("non-empty");
                    path.rotate_left(at);
                    path.push(first);
                    return Some(path);
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 → 1 → 3, 0 → 2 → 3
        let mut g = DiGraph::new(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            assert!(g.add_edge(a, b));
        }
        g
    }

    #[test]
    fn edges_deduplicate() {
        let mut g = diamond();
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn vertices_grow_incrementally() {
        let mut g = diamond();
        let v = g.add_vertex();
        assert_eq!(v, 4);
        assert_eq!(g.len(), 5);
        assert!(g.add_edge(3, v));
        let topo = g.topo_order_by(&[0; 5], 0).unwrap();
        assert_eq!(*topo.last().unwrap(), v);
    }

    #[test]
    fn topo_respects_edges_and_tie_break() {
        let g = diamond();
        let order = g.topo_order_by(&[0, 9, 1, 0], 0).unwrap();
        // 0 first, 3 last; hint prefers 2 over 1.
        assert_eq!(order, vec![0, 2, 1, 3]);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(3));
    }

    /// Grown only by vertices whose edges point forward, an ordered prefix
    /// continues: the order from its end is the tail of the whole order.
    #[test]
    fn topo_resumes_at_a_vertex() {
        let mut g = diamond();
        let hints = [0, 9, 1, 0, 4, 2];
        let head = g.topo_order_by(&hints, 0).unwrap();
        for _ in 0..2 {
            g.add_vertex();
        }
        for (a, b) in [(3, 5), (1, 4), (5, 4)] {
            g.add_edge(a, b);
        }
        let tail = g.topo_order_by(&hints, 4).unwrap();
        assert_eq!(tail, vec![5, 4]);
        assert_eq!([head, tail].concat(), g.topo_order_by(&hints, 0).unwrap());
        g.add_edge(4, 5);
        assert!(g.topo_order_by(&hints, 4).is_none(), "a cycle in the tail");
    }

    #[test]
    fn cycles_are_detected_with_a_path() {
        let mut g = diamond();
        assert!(g.find_cycle().is_none());
        g.add_edge(3, 0);
        assert!(g.topo_order_by(&[0; 4], 0).is_none());
        let cycle = g.find_cycle().unwrap();
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
        // Every consecutive pair is an edge.
        for pair in cycle.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]), "{cycle:?}");
        }
    }

    #[test]
    fn self_loops_count_as_cycles() {
        let mut g = DiGraph::new(2);
        g.add_edge(1, 1);
        assert!(g.topo_order_by(&[0, 0], 0).is_none());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle, vec![1, 1]);
    }
}
