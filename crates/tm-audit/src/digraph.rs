//! A compact digraph over dense transaction indices, sized for windowed
//! streaming audits over histories of millions of transactions.
//!
//! Everything the saturation checkers need lives here:
//!
//! * deduplicated edge insertion ([`DiGraph::add_edge`]) and incremental
//!   vertex growth ([`DiGraph::add_vertex`]) — the streaming pipeline extends
//!   the graph batch by batch instead of rebuilding it,
//! * cycle detection with a short witness path ([`DiGraph::find_cycle`]),
//! * topological orders with a caller-chosen tie-break key
//!   ([`DiGraph::topo_order_by`]) — the serializability fast path feeds the
//!   recording-order hints in here,
//! * strict reachability ([`Reach`]) as a **banded, lazily-computed row
//!   cache**: rows are materialized on first query by an on-the-fly DFS over
//!   a CSR snapshot of the edges, stored in 64-row bands, and evicted
//!   least-recently-used once a resident-bytes budget is exceeded.  Memory
//!   therefore scales with the set of *queried* sources (bounded by the
//!   budget), not with `V²` — the dense closure of the pre-streaming design
//!   needed `V²/8` bytes up front, which is a 125 GB wall at 10⁶
//!   transactions; the banded oracle stays within its budget at any history
//!   size, which is what lets the windowed auditor promise closure memory
//!   proportional to the window.

use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A directed graph over vertices `0..n` with deduplicated edges.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    adj: Vec<Vec<u32>>,
    edges: HashSet<u64>,
}

fn key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

impl DiGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DiGraph { adj: vec![Vec::new(); n], edges: HashSet::new() }
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

    /// A topological order minimising the given per-vertex key among the ready
    /// vertices (deterministic Kahn), or `None` if the graph is cyclic.
    ///
    /// The key steers *which* valid order is produced — the serializability
    /// fast path passes recording-order hints so the result is the closest
    /// topological order to the observed commit order.
    pub fn topo_order_by(&self, tie_break: &[u64]) -> Option<Vec<u32>> {
        let n = self.adj.len();
        let mut indegree = vec![0u32; n];
        for nbrs in &self.adj {
            for &b in nbrs {
                indegree[b as usize] += 1;
            }
        }
        // Min-heap over (key, vertex) via Reverse ordering.
        let mut ready: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..n as u32)
            .filter(|&v| indegree[v as usize] == 0)
            .map(|v| std::cmp::Reverse((tie_break.get(v as usize).copied().unwrap_or(0), v)))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse((_, v))) = ready.pop() {
            order.push(v);
            for &b in &self.adj[v as usize] {
                indegree[b as usize] -= 1;
                if indegree[b as usize] == 0 {
                    ready.push(std::cmp::Reverse((
                        tie_break.get(b as usize).copied().unwrap_or(0),
                        b,
                    )));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// A cycle as a vertex path `v0 → v1 → … → v0` starting at its smallest
    /// vertex, if one exists.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.adj.len();
        let mut color = vec![WHITE; n];
        let mut parent = vec![u32::MAX; n];
        for start in 0..n as u32 {
            if color[start as usize] != WHITE {
                continue;
            }
            // Iterative DFS keeping (vertex, next-child-index) frames.
            let mut stack: Vec<(u32, usize)> = vec![(start, 0)];
            color[start as usize] = GRAY;
            while let Some(&mut (v, ref mut idx)) = stack.last_mut() {
                if let Some(&child) = self.adj[v as usize].get(*idx) {
                    *idx += 1;
                    match color[child as usize] {
                        WHITE => {
                            color[child as usize] = GRAY;
                            parent[child as usize] = v;
                            stack.push((child, 0));
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
                            // Start the cycle at its smallest vertex: which
                            // back edge the DFS meets first depends on the
                            // order edges were inserted in (eagerly per
                            // probe, or caught up at once), and the same
                            // cycle must not read differently for it.
                            let (at, &first) = path
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, &v)| v)
                                .expect("non-empty");
                            path.rotate_left(at);
                            path.push(first);
                            return Some(path);
                        }
                        _ => {}
                    }
                } else {
                    color[v as usize] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Default resident-row budget for [`Reach`]: 64 MiB, far above anything a
/// realistic audit window needs but a hard wall against `V²` blow-up on
/// whole-run closures.
pub const DEFAULT_REACH_BUDGET: usize = 64 << 20;

/// Rows per band — also the eviction granularity.
const BAND: usize = 64;

/// Strict reachability (`a →+ b`) over an acyclic [`DiGraph`], answered from
/// a banded, lazily-computed row cache.
///
/// Construction ([`Reach::new`]) only snapshots the edges into CSR form —
/// `O(V + E)`, no closure.  The first `contains(a, _)` query materializes
/// `a`'s full reachability row by an iterative DFS (reusing any already
/// resident rows it runs into), stores it in `a`'s 64-row band, and
/// subsequent queries are O(1) bit tests.  Bands are evicted
/// least-recently-used when resident memory would exceed the budget, so the
/// cache never outgrows [`Reach::with_budget`]'s bound regardless of how many
/// distinct sources are queried.
#[derive(Debug, Clone)]
pub struct Reach {
    n: usize,
    words: usize,
    /// CSR offsets: vertex `v`'s out-edges are `targets[starts[v]..starts[v+1]]`.
    starts: Vec<u32>,
    targets: Vec<u32>,
    max_resident_bytes: usize,
    cache: RefCell<ReachCache>,
}

#[derive(Debug, Clone, Default)]
struct ReachCache {
    bands: HashMap<u32, Band>,
    tick: u64,
    resident_bytes: usize,
    peak_resident_bytes: usize,
    rows_computed: u64,
}

#[derive(Debug, Clone)]
struct Band {
    rows: Vec<u64>,
    ready: u64,
    last_used: u64,
}

impl Reach {
    /// Snapshot reachability structure for `graph` (which must be acyclic)
    /// with the default resident-memory budget.
    pub fn new(graph: &DiGraph) -> Self {
        Self::with_budget(graph, DEFAULT_REACH_BUDGET)
    }

    /// Snapshot with an explicit resident-row budget in bytes.  At least one
    /// band stays resident even under a zero budget, so queries always
    /// succeed; a tiny budget only costs recomputation.
    pub fn with_budget(graph: &DiGraph, max_resident_bytes: usize) -> Self {
        let n = graph.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.edge_count());
        starts.push(0);
        for v in 0..n as u32 {
            targets.extend_from_slice(graph.neighbors(v));
            starts.push(targets.len() as u32);
        }
        Reach {
            n,
            words: n.div_ceil(64).max(1),
            starts,
            targets,
            max_resident_bytes,
            cache: RefCell::new(ReachCache::default()),
        }
    }

    /// Refresh the oracle in place after edges were appended to `graph`,
    /// keeping every cached row whose source is not marked `stale`.
    /// Appending an edge `x → y` only changes the rows of sources that reach
    /// `x`, so the caller passes exactly those as stale (the saturation
    /// engine already computes them as ancestor marks); everything else —
    /// including the cache's peak/rows statistics — survives with no row
    /// copying.  The cache goes cold (statistics kept) when the row width
    /// changed, i.e. the vertex count crossed a 64-bit word boundary.
    pub fn refresh_from(&mut self, graph: &DiGraph, stale: &[bool]) {
        let n = graph.len();
        let words = n.div_ceil(64).max(1);
        self.starts.clear();
        self.targets.clear();
        self.starts.push(0);
        for v in 0..n as u32 {
            self.targets.extend_from_slice(graph.neighbors(v));
            self.starts.push(self.targets.len() as u32);
        }
        let mut cache = self.cache.borrow_mut();
        if words == self.words {
            for (band_id, band) in cache.bands.iter_mut() {
                let base = *band_id as usize * BAND;
                for bit in 0..BAND {
                    if stale.get(base + bit).copied().unwrap_or(false) {
                        band.ready &= !(1u64 << bit);
                    }
                }
            }
        } else {
            cache.bands.clear();
            cache.resident_bytes = 0;
        }
        drop(cache);
        self.n = n;
        self.words = words;
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.starts[v as usize] as usize..self.starts[v as usize + 1] as usize]
    }

    /// Whether `a →+ b`.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        if a as usize >= self.n || b as usize >= self.n {
            return false;
        }
        let mut cache = self.cache.borrow_mut();
        let band_id = a / BAND as u32;
        let slot = (a as usize % BAND) * self.words;
        self.ensure_row(&mut cache, a);
        let band = cache.bands.get(&band_id).expect("ensure_row keeps the queried band");
        band.rows[slot + (b as usize) / 64] >> ((b as usize) % 64) & 1 == 1
    }

    /// Materialize the reachability row of `a` if it is not resident.
    fn ensure_row(&self, cache: &mut ReachCache, a: u32) {
        let band_id = a / BAND as u32;
        let bit = 1u64 << (a as usize % BAND);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(band) = cache.bands.get_mut(&band_id) {
            band.last_used = tick;
            if band.ready & bit != 0 {
                return;
            }
        } else {
            self.admit_band(cache, band_id);
        }

        // On-the-fly row computation: DFS from `a`, short-circuiting through
        // any child whose row is already resident.  The scratch row doubles
        // as the visited set.
        let mut row = vec![0u64; self.words];
        let mut stack: Vec<u32> = self.neighbors(a).to_vec();
        while let Some(v) = stack.pop() {
            let (w, b) = ((v as usize) / 64, (v as usize) % 64);
            if row[w] >> b & 1 == 1 {
                continue;
            }
            row[w] |= 1 << b;
            let v_band = v / BAND as u32;
            let resident = cache
                .bands
                .get(&v_band)
                .filter(|band| band.ready & (1 << (v as usize % BAND)) != 0)
                .map(|band| &band.rows[(v as usize % BAND) * self.words..][..self.words]);
            if let Some(child_row) = resident {
                for (acc, wd) in row.iter_mut().zip(child_row) {
                    *acc |= wd;
                }
            } else {
                stack.extend_from_slice(self.neighbors(v));
            }
        }

        let band = cache.bands.get_mut(&band_id).expect("admitted above");
        band.rows[(a as usize % BAND) * self.words..][..self.words].copy_from_slice(&row);
        band.ready |= bit;
        band.last_used = tick;
        cache.rows_computed += 1;
    }

    /// Insert an empty band, evicting least-recently-used bands first if the
    /// budget would be exceeded (the new band itself is always admitted).
    fn admit_band(&self, cache: &mut ReachCache, band_id: u32) {
        let band_bytes = BAND * self.words * 8;
        while cache.resident_bytes + band_bytes > self.max_resident_bytes && !cache.bands.is_empty()
        {
            let coldest = cache
                .bands
                .iter()
                .min_by_key(|(_, band)| band.last_used)
                .map(|(&id, _)| id)
                .expect("non-empty");
            cache.bands.remove(&coldest);
            cache.resident_bytes -= band_bytes;
        }
        let tick = cache.tick;
        cache.bands.insert(
            band_id,
            Band { rows: vec![0u64; BAND * self.words], ready: 0, last_used: tick },
        );
        cache.resident_bytes += band_bytes;
        cache.peak_resident_bytes = cache.peak_resident_bytes.max(cache.resident_bytes);
    }

    /// Bytes of row storage currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.cache.borrow().resident_bytes
    }

    /// High-water mark of resident row storage over this oracle's lifetime.
    pub fn peak_resident_bytes(&self) -> usize {
        self.cache.borrow().peak_resident_bytes
    }

    /// Rows materialized so far (recomputations after eviction count again).
    pub fn rows_computed(&self) -> u64 {
        self.cache.borrow().rows_computed
    }

    /// What the retired dense-bitset closure would have allocated for this
    /// graph: one `n`-bit row per vertex.  Kept as the yardstick the bench
    /// output compares the banded cache against.
    pub fn dense_equivalent_bytes(n: usize) -> usize {
        n * n.div_ceil(64).max(1) * 8
    }
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
        let topo = g.topo_order_by(&[0; 5]).unwrap();
        assert_eq!(*topo.last().unwrap(), v);
    }

    #[test]
    fn topo_respects_edges_and_tie_break() {
        let g = diamond();
        let order = g.topo_order_by(&[0, 9, 1, 0]).unwrap();
        // 0 first, 3 last; hint prefers 2 over 1.
        assert_eq!(order, vec![0, 2, 1, 3]);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1) && pos(1) < pos(3));
    }

    #[test]
    fn cycles_are_detected_with_a_path() {
        let mut g = diamond();
        assert!(g.find_cycle().is_none());
        g.add_edge(3, 0);
        assert!(g.topo_order_by(&[0; 4]).is_none());
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
        assert!(g.topo_order_by(&[0, 0]).is_none());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle, vec![1, 1]);
    }

    #[test]
    fn reachability_matches_paths() {
        let g = diamond();
        let r = Reach::new(&g);
        assert!(r.contains(0, 3));
        assert!(r.contains(0, 1));
        assert!(r.contains(1, 3));
        assert!(!r.contains(3, 0));
        assert!(!r.contains(1, 2));
        assert!(!r.contains(0, 0));
    }

    #[test]
    fn reachability_scales_past_one_bitset_word() {
        // A chain of 200 vertices crosses three 64-bit words.
        let n = 200;
        let mut g = DiGraph::new(n);
        for v in 0..n as u32 - 1 {
            g.add_edge(v, v + 1);
        }
        let r = Reach::new(&g);
        assert!(r.contains(0, 199));
        assert!(r.contains(63, 64));
        assert!(r.contains(0, 127));
        assert!(!r.contains(199, 0));
        assert!(!r.contains(100, 50));
    }

    #[test]
    fn rows_are_lazy_and_reused() {
        let g = diamond();
        let r = Reach::new(&g);
        assert_eq!(r.rows_computed(), 0);
        assert_eq!(r.resident_bytes(), 0);
        assert!(r.contains(0, 3));
        assert_eq!(r.rows_computed(), 1);
        // Same source again: cached, no new row.
        assert!(r.contains(0, 1));
        assert_eq!(r.rows_computed(), 1);
        // A different source in the same band computes one more row only.
        assert!(r.contains(1, 3));
        assert_eq!(r.rows_computed(), 2);
        assert!(r.resident_bytes() > 0);
        assert!(r.peak_resident_bytes() >= r.resident_bytes());
    }

    #[test]
    fn eviction_keeps_memory_within_budget_and_answers_stay_correct() {
        // A 300-vertex chain spans 5 bands; budget of one band forces
        // eviction on every cross-band query.
        let n = 300;
        let mut g = DiGraph::new(n);
        for v in 0..n as u32 - 1 {
            g.add_edge(v, v + 1);
        }
        let band_bytes = 64 * n.div_ceil(64) * 8;
        let r = Reach::with_budget(&g, band_bytes);
        for (a, b, expect) in [(0, 299, true), (100, 299, true), (290, 10, false), (0, 299, true)] {
            assert_eq!(r.contains(a, b), expect, "{a} →+ {b}");
            assert!(r.resident_bytes() <= band_bytes, "budget respected");
        }
        // Recomputation after eviction happened (0's row was computed twice).
        assert!(r.rows_computed() >= 4);
    }

    #[test]
    fn refresh_keeps_clean_rows_and_invalidates_stale_ones() {
        // Two components: 0 → 1 and 2 → 3.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let mut r = Reach::new(&g);
        assert!(r.contains(0, 1));
        assert!(r.contains(2, 3));
        assert_eq!(r.rows_computed(), 2);
        // Append 3 → 4: only sources reaching 3 (i.e. 2 and 3) are stale.
        let v = g.add_vertex();
        g.add_edge(3, v);
        r.refresh_from(&g, &[false, false, true, true, false]);
        assert!(r.contains(0, 1), "clean row survives");
        assert_eq!(r.rows_computed(), 2, "no recomputation for the clean row");
        assert!(r.contains(2, 4), "stale row recomputes against the new edge");
        assert_eq!(r.rows_computed(), 3);
        assert!(!r.contains(0, 4));
    }

    #[test]
    fn dense_equivalent_is_quadratic() {
        assert_eq!(Reach::dense_equivalent_bytes(64), 64 * 8);
        let at_1e6 = Reach::dense_equivalent_bytes(1_000_000);
        assert!(at_1e6 > 100_000_000_000, "dense closure at 1e6 txns is a >100 GB wall");
    }
}
