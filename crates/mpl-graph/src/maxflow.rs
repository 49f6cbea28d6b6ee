//! Dinic's blocking-flow maximum-flow algorithm.

use crate::Graph;

const INF: i64 = i64::MAX / 4;

#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    capacity: i64,
    flow: i64,
}

/// A maximum-flow solver (Dinic's algorithm) over a directed flow network.
///
/// The decomposition flow uses max-flow in two places:
///
/// * directly, to compute minimum s–t cuts between candidate vertices, and
/// * inside the (K−1)-cut graph division — either via the full
///   [Gomory–Hu tree](crate::GomoryHuTree) or via the capped
///   [`threshold_components`](crate::threshold_components) partition, which
///   only asks "is the min cut at least K?" and therefore uses
///   [`MaxFlow::max_flow_capped`] to stop after at most K augmenting paths.
///
/// Undirected edges are modelled as two directed arcs of equal capacity, per
/// the standard reduction.  Adjacency is stored as a flat CSR over arc ids,
/// frozen on the first flow query and rebuilt automatically if edges are
/// added afterwards; [`MaxFlow::clear`] resets the network for a new graph
/// while keeping every buffer's capacity, so batch workloads build one
/// network per component without re-allocating.
///
/// Repeated queries on one network cost work near their endpoints, not the
/// whole graph:
///
/// * each query zeroes only the arcs the previous query pushed flow on
///   (a full zeroing happens only after an adjacency rebuild or an
///   explicit [`MaxFlow::reset`]);
/// * each Dinic BFS clears only the `level`/`iter` entries the previous
///   BFS labelled, and stops as soon as the sink is labelled.  Every
///   vertex closer to the source than the sink is labelled by then, so the
///   level graph still holds every shortest augmenting path and the pushed
///   flow is the same as with a full sweep.
///
/// A capped query whose source and sink are close therefore scans a ball
/// around them, while one that ends below its cap still pays for the final,
/// exhaustive BFS (and [`MaxFlow::min_cut_side`] for its reachability).
///
/// # Example
///
/// ```
/// use mpl_graph::MaxFlow;
///
/// // A 4-vertex diamond: two disjoint paths from 0 to 3.
/// let mut flow = MaxFlow::new(4);
/// flow.add_undirected_edge(0, 1, 1);
/// flow.add_undirected_edge(1, 3, 1);
/// flow.add_undirected_edge(0, 2, 1);
/// flow.add_undirected_edge(2, 3, 1);
/// assert_eq!(flow.max_flow(0, 3), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MaxFlow {
    vertex_count: usize,
    edges: Vec<FlowEdge>,
    /// CSR over arc ids: `arcs[offsets[v]..offsets[v + 1]]` are the arcs
    /// leaving `v`, in insertion order.  Rebuilt lazily when stale.
    offsets: Vec<usize>,
    arcs: Vec<usize>,
    adjacency_stale: bool,
    /// BFS levels, `-1` for every vertex outside `queue`.
    level: Vec<i32>,
    iter: Vec<usize>,
    /// The vertices the last BFS labelled, in BFS order.
    queue: Vec<usize>,
    /// Arcs whose pair was pushed on since the last reset (each pair listed
    /// by one of its arcs at least once).
    touched: Vec<usize>,
    augmenting_paths: u64,
    /// Arcs zeroed, or visited by BFS, DFS, residual reachability and
    /// [`MaxFlow::arc_heads`] — the locality gate's work counter.
    #[cfg(test)]
    arcs_scanned: std::cell::Cell<u64>,
}

impl Default for MaxFlow {
    /// An empty zero-vertex network (populate via [`MaxFlow::assign_unit_graph`]).
    fn default() -> Self {
        MaxFlow::new(0)
    }
}

impl MaxFlow {
    /// Creates an empty flow network with `n` vertices.
    pub fn new(n: usize) -> Self {
        MaxFlow {
            vertex_count: n,
            edges: Vec::new(),
            offsets: Vec::new(),
            arcs: Vec::new(),
            adjacency_stale: true,
            level: vec![-1; n],
            iter: vec![0; n],
            queue: Vec::new(),
            touched: Vec::new(),
            augmenting_paths: 0,
            #[cfg(test)]
            arcs_scanned: std::cell::Cell::new(0),
        }
    }

    /// Resets the network to `n` vertices and no edges, keeping the
    /// capacity of every internal buffer (and the cumulative
    /// [`MaxFlow::augmenting_paths`] counter).
    pub fn clear(&mut self, n: usize) {
        self.vertex_count = n;
        self.edges.clear();
        self.adjacency_stale = true;
        self.level.clear();
        self.level.resize(n, -1);
        self.iter.clear();
        self.iter.resize(n, 0);
        self.queue.clear();
        self.touched.clear();
    }

    /// Builds a unit-capacity flow network from an undirected [`Graph`];
    /// every graph edge becomes an undirected capacity-1 connection, so the
    /// resulting max-flow values are edge-connectivities, as required for the
    /// paper's (K−1)-cut detection.
    pub fn from_unit_graph(graph: &Graph) -> Self {
        let mut flow = MaxFlow::new(graph.vertex_count());
        flow.assign_unit_graph(graph.vertex_count(), graph.edges());
        flow
    }

    /// Re-initialises the network as the unit-capacity version of an
    /// undirected edge list, reusing buffers (see [`MaxFlow::clear`]).
    pub fn assign_unit_graph(&mut self, n: usize, edges: &[(usize, usize)]) {
        self.clear(n);
        for &(u, v) in edges {
            self.add_undirected_edge(u, v, 1);
        }
    }

    /// Number of vertices in the network.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Cumulative number of augmenting paths pushed by every flow query
    /// since construction (a hardware-independent work counter; survives
    /// [`MaxFlow::clear`]).
    pub fn augmenting_paths(&self) -> u64 {
        self.augmenting_paths
    }

    /// Cumulative arcs zeroed or visited since construction.
    #[cfg(test)]
    pub(crate) fn arcs_scanned(&self) -> u64 {
        self.arcs_scanned.get()
    }

    #[inline]
    fn count_arcs(&self, _arcs: usize) {
        #[cfg(test)]
        self.arcs_scanned
            .set(self.arcs_scanned.get() + _arcs as u64);
    }

    /// The heads of the arcs leaving `v`, in CSR order: for a unit graph,
    /// the neighbours of `v` (once per incident edge).  Builds the CSR
    /// first if edges changed.
    pub(crate) fn arc_heads(&mut self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.ensure_adjacency();
        let this = &*self;
        this.arcs[this.offsets[v]..this.offsets[v + 1]]
            .iter()
            .map(move |&e| {
                this.count_arcs(1);
                this.edges[e].to
            })
    }

    /// Adds a directed arc `from -> to` with the given capacity (and its
    /// zero-capacity reverse arc).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: i64) {
        assert!(
            from < self.vertex_count() && to < self.vertex_count(),
            "arc ({from}, {to}) out of range"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        self.adjacency_stale = true;
        self.edges.push(FlowEdge {
            to,
            capacity,
            flow: 0,
        });
        self.edges.push(FlowEdge {
            to: from,
            capacity: 0,
            flow: 0,
        });
    }

    /// Adds an undirected edge of the given capacity (capacity in both
    /// directions).
    pub fn add_undirected_edge(&mut self, u: usize, v: usize, capacity: i64) {
        assert!(
            u < self.vertex_count() && v < self.vertex_count(),
            "edge ({u}, {v}) out of range"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        self.adjacency_stale = true;
        self.edges.push(FlowEdge {
            to: v,
            capacity,
            flow: 0,
        });
        self.edges.push(FlowEdge {
            to: u,
            capacity,
            flow: 0,
        });
    }

    /// Rebuilds the arc CSR if edges changed since the last flow query.
    /// The rebuild already costs O(E), so it also zeroes every arc: after
    /// an edge change the flow state never rests on the touched-arc list.
    fn ensure_adjacency(&mut self) {
        if !self.adjacency_stale {
            return;
        }
        self.reset();
        let n = self.vertex_count;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        // The tail of arc `a` is the head of its paired reverse arc `a ^ 1`.
        for a in 0..self.edges.len() {
            let tail = self.edges[a ^ 1].to;
            self.offsets[tail + 1] += 1;
        }
        for v in 0..n {
            let base = self.offsets[v];
            self.offsets[v + 1] += base;
        }
        self.arcs.clear();
        self.arcs.resize(self.edges.len(), 0);
        for a in 0..self.edges.len() {
            let tail = self.edges[a ^ 1].to;
            self.arcs[self.offsets[tail]] = a;
            self.offsets[tail] += 1;
        }
        for v in (1..=n).rev() {
            self.offsets[v] = self.offsets[v - 1];
        }
        if n > 0 {
            self.offsets[0] = 0;
        }
        self.adjacency_stale = false;
    }

    fn residual(&self, edge: usize) -> i64 {
        self.edges[edge].capacity - self.edges[edge].flow
    }

    /// Labels the residual level graph from `source`, stopping as soon as
    /// `sink` is labelled, and rewinds the DFS cursor of every labelled
    /// vertex.  Only the previous BFS's labels are cleared first, so the
    /// cost is the size of the explored ball, not of the network.
    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        for &v in &self.queue {
            self.level[v] = -1;
        }
        self.queue.clear();
        self.level[source] = 0;
        self.queue.push(source);
        let mut head = 0;
        'sweep: while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for (scanned, &e) in self.arcs[self.offsets[u]..self.offsets[u + 1]]
                .iter()
                .enumerate()
            {
                let to = self.edges[e].to;
                if self.residual(e) > 0 && self.level[to] < 0 {
                    self.level[to] = self.level[u] + 1;
                    self.queue.push(to);
                    if to == sink {
                        self.count_arcs(scanned + 1);
                        break 'sweep;
                    }
                }
            }
            self.count_arcs(self.offsets[u + 1] - self.offsets[u]);
        }
        for &v in &self.queue {
            self.iter[v] = 0;
        }
        self.level[sink] >= 0
    }

    fn dfs(&mut self, u: usize, sink: usize, pushed: i64) -> i64 {
        if u == sink {
            return pushed;
        }
        while self.iter[u] < self.offsets[u + 1] - self.offsets[u] {
            let e = self.arcs[self.offsets[u] + self.iter[u]];
            self.count_arcs(1);
            let to = self.edges[e].to;
            if self.residual(e) > 0 && self.level[to] == self.level[u] + 1 {
                let amount = self.dfs(to, sink, pushed.min(self.residual(e)));
                if amount > 0 {
                    if self.edges[e].flow == 0 {
                        self.touched.push(e);
                    }
                    self.edges[e].flow += amount;
                    self.edges[e ^ 1].flow -= amount;
                    return amount;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Resets all flow to zero, allowing the network to be reused.
    pub fn reset(&mut self) {
        for edge in &mut self.edges {
            edge.flow = 0;
        }
        self.count_arcs(self.edges.len());
        self.touched.clear();
    }

    /// Zeroes the flow on the arcs the previous query pushed on: the same
    /// state as [`MaxFlow::reset`], at the cost of the previous query's
    /// paths instead of the whole network.
    fn reset_touched(&mut self) {
        self.count_arcs(2 * self.touched.len());
        for &e in &self.touched {
            self.edges[e].flow = 0;
            self.edges[e ^ 1].flow = 0;
        }
        self.touched.clear();
    }

    /// Computes the maximum flow (equivalently, the minimum cut value) from
    /// `source` to `sink`.  The flow state is retained so that
    /// [`MaxFlow::min_cut_side`] can recover the source side of a minimum cut.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        self.max_flow_capped(source, sink, INF)
    }

    /// Computes `min(max_flow(source, sink), cap)`, stopping as soon as
    /// `cap` units have been pushed.
    ///
    /// With unit capacities every augmenting path carries one unit, so the
    /// query performs at most `cap` augmentations — the early exit that
    /// turns the (K−1)-cut division's "is the min cut ≥ K?" questions from
    /// O(E·F) into O(E·K) each.  Only the arcs the previous query pushed on
    /// are zeroed first, and each BFS stops at the sink, so when `source`
    /// and `sink` are neighbours that reach `cap` the query's cost is the
    /// few BFS layers around them, not `E`.
    ///
    /// When the returned value is **less** than `cap` the flow is maximal
    /// and [`MaxFlow::min_cut_side`] is a genuine minimum cut; when it
    /// equals `cap` the flow may have stopped early and the residual
    /// reachability is meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink`, either endpoint is out of range, or
    /// `cap` is negative.
    pub fn max_flow_capped(&mut self, source: usize, sink: usize, cap: i64) -> i64 {
        assert!(source != sink, "source and sink must differ");
        assert!(
            source < self.vertex_count() && sink < self.vertex_count(),
            "source/sink out of range"
        );
        assert!(cap >= 0, "flow cap must be non-negative");
        self.ensure_adjacency();
        self.reset_touched();
        let mut total = 0;
        while total < cap && self.bfs(source, sink) {
            while total < cap {
                let pushed = self.dfs(source, sink, cap - total);
                if pushed == 0 {
                    break;
                }
                self.augmenting_paths += 1;
                total += pushed;
            }
        }
        total
    }

    /// After [`MaxFlow::max_flow`], returns the set of vertices reachable from
    /// `source` in the residual network — the source side of a minimum cut.
    pub fn min_cut_side(&self, source: usize) -> Vec<bool> {
        let mut side = vec![false; self.vertex_count()];
        self.min_cut_side_into(source, &mut side);
        side
    }

    /// Buffer-reusing variant of [`MaxFlow::min_cut_side`]: fills `side`
    /// (resized to the vertex count) with the residual reachability from
    /// `source`.
    pub fn min_cut_side_into(&self, source: usize, side: &mut Vec<bool>) {
        assert!(
            !self.adjacency_stale,
            "min_cut_side requires a preceding max_flow call"
        );
        side.clear();
        side.resize(self.vertex_count(), false);
        let mut stack = vec![source];
        side[source] = true;
        while let Some(u) = stack.pop() {
            self.count_arcs(self.offsets[u + 1] - self.offsets[u]);
            for &e in &self.arcs[self.offsets[u]..self.offsets[u + 1]] {
                let to = self.edges[e].to;
                if self.residual(e) > 0 && !side[to] {
                    side[to] = true;
                    stack.push(to);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_capacity_limits_flow() {
        let mut f = MaxFlow::new(3);
        f.add_edge(0, 1, 5);
        f.add_edge(1, 2, 3);
        assert_eq!(f.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut f = MaxFlow::new(4);
        f.add_edge(0, 1, 2);
        f.add_edge(1, 3, 2);
        f.add_edge(0, 2, 3);
        f.add_edge(2, 3, 1);
        assert_eq!(f.max_flow(0, 3), 3);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure 26.1-style network.
        let mut f = MaxFlow::new(6);
        f.add_edge(0, 1, 16);
        f.add_edge(0, 2, 13);
        f.add_edge(1, 2, 10);
        f.add_edge(2, 1, 4);
        f.add_edge(1, 3, 12);
        f.add_edge(3, 2, 9);
        f.add_edge(2, 4, 14);
        f.add_edge(4, 3, 7);
        f.add_edge(3, 5, 20);
        f.add_edge(4, 5, 4);
        assert_eq!(f.max_flow(0, 5), 23);
    }

    #[test]
    fn undirected_edge_connectivity_of_cycle_is_two() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn edge_connectivity_of_complete_graph() {
        let n = 5;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    assert_eq!(f.max_flow(s, t), (n - 1) as i64);
                }
            }
        }
    }

    #[test]
    fn capped_flow_agrees_with_full_flow_on_the_threshold_question() {
        // Deterministic pseudo-random unit graphs: for every pair, capped
        // flow at K must classify "min cut < K vs >= K" exactly like the
        // full flow, and must equal the full flow whenever it is below K.
        let mut seed: u64 = 0x0DDB1A5E5BAD5EED;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..10 {
            let n = 5 + (case % 4);
            let mut g = Graph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 100 < 55 {
                        g.add_edge(i, j);
                    }
                }
            }
            let mut full = MaxFlow::from_unit_graph(&g);
            let mut capped = MaxFlow::from_unit_graph(&g);
            for k in 1..=5i64 {
                for s in 0..n {
                    for t in (s + 1)..n {
                        let exact = full.max_flow(s, t);
                        let fast = capped.max_flow_capped(s, t, k);
                        assert_eq!(fast >= k, exact >= k, "case {case} k={k} pair ({s},{t})");
                        if fast < k {
                            assert_eq!(fast, exact, "case {case} k={k} pair ({s},{t})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn capped_flow_counts_at_most_cap_augmenting_paths_per_query() {
        let n = 8;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut f = MaxFlow::from_unit_graph(&g);
        let before = f.augmenting_paths();
        assert_eq!(f.max_flow_capped(0, 7, 4), 4);
        assert!(f.augmenting_paths() - before <= 4);
    }

    #[test]
    fn clear_reuses_the_network_for_a_new_graph() {
        let mut f = MaxFlow::new(4);
        f.add_undirected_edge(0, 1, 10);
        f.add_undirected_edge(1, 2, 1);
        f.add_undirected_edge(2, 3, 10);
        assert_eq!(f.max_flow(0, 3), 1);
        f.assign_unit_graph(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(f.vertex_count(), 3);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn min_cut_side_separates_source_from_sink() {
        let mut f = MaxFlow::new(4);
        // Bottleneck between 1 and 2.
        f.add_undirected_edge(0, 1, 10);
        f.add_undirected_edge(1, 2, 1);
        f.add_undirected_edge(2, 3, 10);
        assert_eq!(f.max_flow(0, 3), 1);
        let side = f.min_cut_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn disconnected_vertices_have_zero_flow() {
        let mut f = MaxFlow::new(4);
        f.add_undirected_edge(0, 1, 7);
        assert_eq!(f.max_flow(0, 3), 0);
        let side = f.min_cut_side(0);
        assert!(side[0] && side[1] && !side[2] && !side[3]);
    }

    #[test]
    fn reuse_after_reset_gives_same_answer() {
        let mut f = MaxFlow::new(3);
        f.add_undirected_edge(0, 1, 2);
        f.add_undirected_edge(1, 2, 3);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(2, 0), 2);
    }

    #[test]
    fn interleaved_queries_match_a_fresh_network() {
        // One network answers capped and full queries on random pairs, with
        // edges added between queries; each answer (value, paths pushed and
        // residual side) must equal that of a network built fresh from the
        // same edge list, so no flow, level or cursor state leaks between
        // queries.
        let mut seed: u64 = 0x5DEECE66D;
        let mut next = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        // (from, to, capacity, undirected)
        let fresh = |n: usize, edges: &[(usize, usize, i64, bool)]| {
            let mut f = MaxFlow::new(n);
            for &(u, v, c, undirected) in edges {
                if undirected {
                    f.add_undirected_edge(u, v, c);
                } else {
                    f.add_edge(u, v, c);
                }
            }
            f
        };
        for case in 0..12 {
            let n = 5 + case % 7;
            let mut edges = Vec::new();
            for _ in 0..2 * n {
                let (u, v) = (next(n), next(n));
                if u != v {
                    edges.push((u, v, 1 + next(3) as i64, next(4) != 0));
                }
            }
            let mut reused = fresh(n, &edges);
            for step in 0..60 {
                let s = next(n);
                let t = (s + 1 + next(n - 1)) % n;
                match next(6) {
                    0 => {
                        let (u, v) = (next(n), next(n));
                        if u != v {
                            let edge = (u, v, 1 + next(3) as i64, next(2) == 0);
                            edges.push(edge);
                            if edge.3 {
                                reused.add_undirected_edge(u, v, edge.2);
                            } else {
                                reused.add_edge(u, v, edge.2);
                            }
                        }
                        continue;
                    }
                    1 => reused.reset(),
                    _ => {}
                }
                let mut want = fresh(n, &edges);
                let full = next(3) == 0;
                let cap = 1 + next(5) as i64;
                let (before, got, expected) = if full {
                    (
                        reused.augmenting_paths(),
                        reused.max_flow(s, t),
                        want.max_flow(s, t),
                    )
                } else {
                    let before = reused.augmenting_paths();
                    let got = reused.max_flow_capped(s, t, cap);
                    (before, got, want.max_flow_capped(s, t, cap))
                };
                let at = format!("case {case} step {step} ({s}, {t}) full={full} cap={cap}");
                assert_eq!(got, expected, "{at}");
                assert_eq!(
                    reused.augmenting_paths() - before,
                    want.augmenting_paths(),
                    "{at}"
                );
                assert_eq!(reused.min_cut_side(s), want.min_cut_side(s), "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_and_sink_panics() {
        let mut f = MaxFlow::new(2);
        f.add_undirected_edge(0, 1, 1);
        let _ = f.max_flow(1, 1);
    }
}
