//! Threshold connectivity partition via capped max-flows.
//!
//! The paper's (K−1)-cut removal (Algorithm 3) only needs the partition of
//! a component into groups whose pairwise min-cut is at least K — the
//! *values* of the cuts below K are irrelevant.  Min-cut values obey the
//! ultrametric-like inequality `mincut(u, w) ≥ min(mincut(u, v),
//! mincut(v, w))`, so "min-cut ≥ K" is an equivalence relation and the
//! groups are exactly the components of the Gomory–Hu tree after removing
//! edges lighter than K ([`GomoryHuTree::components_after_removing`]).
//!
//! [`threshold_components`] computes that partition directly with **capped**
//! max-flows ([`MaxFlow::max_flow_capped`]): a flow query stops after K
//! augmenting paths, because reaching K already proves "≥ K".  Every query
//! either certifies one vertex into its representative's group (`f ≥ K`) or
//! yields a genuine cut splitting the working set (`f < K`, so the flow is
//! maximal and the residual side is a real min cut — and every pair across
//! it has min-cut < K).  Each query therefore consumes one of at most
//! `n − 1` certificates, and with unit capacities each pushes at most K
//! augmenting paths: O(n·K) augmentations total instead of the O(n·F) of
//! full Gusfield max-flows.  More precisely, with `g` groups the count is
//! at most `(n − g)·K` for certifications plus `(g − 1)·(K − 1)` for
//! splits.
//!
//! # Locality
//!
//! The queries are kept short, so their cost is work near the two
//! endpoints instead of the whole component:
//!
//! * **BFS order.**  Vertices are visited in one breadth-first order of the
//!   union graph, computed once per call, so a vertex usually has a
//!   neighbour earlier in the order.
//! * **Certified-neighbour sources.**  The query for `t` is sourced at any
//!   neighbour `u` of `t` already certified into the current group (the
//!   range's representative `s` when there is none).  This is exact: `u`
//!   certified means `mincut(s, u) ≥ K`, and since "min-cut ≥ K" is an
//!   equivalence relation, `mincut(u, t) ≥ K` exactly when
//!   `mincut(s, t) ≥ K`.  A failing query's cut has value `< K`, so it
//!   cannot separate `u` from `s` or from any other certified vertex, and
//!   the stable split keeps the certified prefix intact.  Below `K` the two
//!   cut values are even equal, so the augmenting-path count is the same
//!   as with `s` as the source.
//! * **Local flows.**  [`MaxFlow`] zeroes only the arcs the previous query
//!   pushed on and stops each BFS at the sink, so a certification between
//!   neighbours scans a small ball around them.
//!
//! On a 48×48 king-move lattice at K = 4 this takes a few hundred arc
//! visits per vertex, where sourcing every query at `s` with whole-network
//! resets took tens of thousands.  A failing query still pays for one
//! exhaustive BFS and one residual reachability pass: O(E) per split.
//!
//! [`GomoryHuTree::components_after_removing`]:
//! crate::GomoryHuTree::components_after_removing

use crate::{Graph, MaxFlow};

/// Reusable buffers for [`threshold_components_with`], so a batch of
/// components performs O(1) allocations per partition call.
#[derive(Debug, Clone, Default)]
pub struct ThresholdScratch {
    side: Vec<bool>,
    order: Vec<usize>,
    tmp: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    /// `certified[v]` is the stamp of the range that certified `v`
    /// (0 = none yet).
    certified: Vec<usize>,
    /// Queries sourced at a certified neighbour / at the representative.
    #[cfg(test)]
    neighbour_sources: u64,
    #[cfg(test)]
    fallback_sources: u64,
}

/// Partitions `0..n` into the groups of pairwise min-cut ≥ `threshold`
/// (unit capacities over the undirected `edges`), reusing `flow` and
/// `scratch` buffers.
///
/// Groups are returned with ascending vertex ids, ordered by their smallest
/// member — bit-identical to
/// [`GomoryHuTree::components_after_removing`](crate::GomoryHuTree::components_after_removing)
/// on the same graph (the partition is unique, and so is this ordering).
///
/// Vertices are visited in one BFS order of the union graph, and the query
/// for each vertex `t` is sourced at a neighbour of `t` already certified
/// into the current group, falling back to the group's representative.
/// This is exact because "min-cut ≥ threshold" is an equivalence relation:
/// a certified neighbour is ≥ threshold-connected to `t` exactly when the
/// representative is.  Neighbours come from `flow`'s own arc CSR.  With `g` groups at most
/// `(n − g)·threshold + (g − 1)·(threshold − 1)` augmenting paths are
/// pushed, and each certification between neighbours costs work near them
/// rather than across the whole graph.
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
pub fn threshold_components_with(
    flow: &mut MaxFlow,
    scratch: &mut ThresholdScratch,
    n: usize,
    edges: &[(usize, usize)],
    threshold: i64,
) -> Vec<Vec<usize>> {
    if n == 0 {
        return Vec::new();
    }
    if threshold <= 0 {
        // Even zero-weight (disconnected) tree edges survive a non-positive
        // threshold: everything stays together.
        return vec![(0..n).collect()];
    }
    flow.assign_unit_graph(n, edges);
    bfs_order(flow, scratch);
    scratch.certified.clear();
    scratch.certified.resize(n, 0);
    scratch.ranges.clear();
    scratch.ranges.push((0, n));
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut stamp = 0;

    while let Some((start, mut end)) = scratch.ranges.pop() {
        stamp += 1;
        let s = scratch.order[start];
        scratch.certified[s] = stamp;
        let mut i = start + 1;
        while i < end {
            let t = scratch.order[i];
            let certified = &scratch.certified;
            let neighbour = flow.arc_heads(t).find(|&w| certified[w] == stamp);
            #[cfg(test)]
            {
                let sources = match neighbour {
                    Some(_) => &mut scratch.neighbour_sources,
                    None => &mut scratch.fallback_sources,
                };
                *sources += 1;
            }
            let source = neighbour.unwrap_or(s);
            let f = flow.max_flow_capped(source, t, threshold);
            if f >= threshold {
                // Certified: mincut(source, t) ≥ threshold, and source is
                // in s's group, so t joins it too.
                scratch.certified[t] = stamp;
                i += 1;
                continue;
            }
            // The flow is maximal (f < cap), so the residual side is a
            // genuine minimum source–t cut of value < threshold: every
            // pair across it is separated for good.  Split the working
            // set, keeping the BFS order on both sides.  Everything
            // already certified, s included, sits on the source's side (a
            // cut < threshold cannot separate a pair with min-cut
            // ≥ threshold).
            flow.min_cut_side_into(source, &mut scratch.side);
            scratch.tmp.clear();
            scratch.tmp.extend(
                scratch.order[start..end]
                    .iter()
                    .copied()
                    .filter(|&v| scratch.side[v]),
            );
            let near = scratch.tmp.len();
            scratch.tmp.extend(
                scratch.order[start..end]
                    .iter()
                    .copied()
                    .filter(|&v| !scratch.side[v]),
            );
            scratch.order[start..end].copy_from_slice(&scratch.tmp);
            debug_assert!(near >= i - start, "a certified vertex crossed the cut");
            scratch.ranges.push((start + near, end));
            end = start + near;
            // `i` is unchanged: the certified vertices are exactly the set
            // members ordered before `t`, which the stable split keeps at
            // positions start+1 .. i.
        }
        let mut group = scratch.order[start..end].to_vec();
        group.sort_unstable();
        groups.push(group);
    }
    groups.sort_by_key(|group| group[0]);
    groups
}

/// Fills `scratch.order` with a breadth-first order of `flow`'s vertices,
/// rooting a new search at the smallest unvisited id of each connected
/// component.
fn bfs_order(flow: &mut MaxFlow, scratch: &mut ThresholdScratch) {
    let n = flow.vertex_count();
    let visited = &mut scratch.side;
    visited.clear();
    visited.resize(n, false);
    scratch.order.clear();
    for root in 0..n {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut head = scratch.order.len();
        scratch.order.push(root);
        while head < scratch.order.len() {
            let u = scratch.order[head];
            head += 1;
            for w in flow.arc_heads(u) {
                if !visited[w] {
                    visited[w] = true;
                    scratch.order.push(w);
                }
            }
        }
    }
}

/// Convenience wrapper over [`threshold_components_with`] with fresh
/// buffers.
pub fn threshold_components(graph: &Graph, threshold: i64) -> Vec<Vec<usize>> {
    let mut flow = MaxFlow::new(0);
    let mut scratch = ThresholdScratch::default();
    threshold_components_with(
        &mut flow,
        &mut scratch,
        graph.vertex_count(),
        graph.edges(),
        threshold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GomoryHuTree;

    fn assert_matches_gomory_hu(graph: &Graph, thresholds: std::ops::RangeInclusive<i64>) {
        let tree = GomoryHuTree::build(graph);
        for threshold in thresholds {
            let expected = tree.components_after_removing(threshold);
            let got = threshold_components(graph, threshold);
            assert_eq!(got, expected, "threshold {threshold} on {graph}");
        }
    }

    #[test]
    fn two_triangles_with_bridge_split_at_two() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 3);
        g.add_edge(2, 3);
        assert_matches_gomory_hu(&g, 0..=4);
    }

    #[test]
    fn k4_with_pendant_matches() {
        let mut g = Graph::new(5);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        g.add_edge(4, 0);
        g.add_edge(4, 1);
        g.add_edge(4, 2);
        assert_matches_gomory_hu(&g, 1..=5);
    }

    #[test]
    fn disconnected_and_empty_graphs() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_matches_gomory_hu(&g, 0..=2);
        assert!(threshold_components(&Graph::new(0), 4).is_empty());
        assert_eq!(threshold_components(&Graph::new(1), 4), vec![vec![0usize]]);
    }

    #[test]
    fn random_graphs_match_gomory_hu_for_every_threshold() {
        let mut seed: u64 = 0x243F6A8885A308D3;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for case in 0..12 {
            let n = 4 + case % 6;
            let mut g = Graph::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 100 < 45 {
                        g.add_edge(i, j);
                    }
                }
            }
            assert_matches_gomory_hu(&g, 0..=6);
        }
    }

    #[test]
    fn augmenting_paths_stay_under_n_times_k() {
        let n = 12;
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(i, j);
            }
        }
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        for k in 1..=5i64 {
            let before = flow.augmenting_paths();
            let groups = threshold_components_with(&mut flow, &mut scratch, n, g.edges(), k);
            assert_eq!(groups.len(), 1, "K{n} is {k}-connected");
            let pushed = flow.augmenting_paths() - before;
            assert!(
                pushed <= (n as u64) * (k as u64),
                "k={k}: {pushed} paths exceeds n*k"
            );
        }
    }

    /// The edges of a `side`×`side` king-move lattice (degree 8 inside,
    /// like a 70 nm contact lattice's conflict graph), with the site in row
    /// `r`, column `c` named `label[r * side + c]`.
    fn king_lattice_edges(side: usize, label: &[usize]) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let here = label[r * side + c];
                if c + 1 < side {
                    edges.push((here, label[r * side + c + 1]));
                }
                if r + 1 < side {
                    for cc in c.saturating_sub(1)..(c + 2).min(side) {
                        edges.push((here, label[(r + 1) * side + cc]));
                    }
                }
            }
        }
        edges
    }

    #[test]
    fn king_lattice_division_scans_arcs_near_each_query() {
        let (side, k) = (48, 4i64);
        let n = side * side;
        let row_major: Vec<usize> = (0..n).collect();
        let mut shuffled = row_major.clone();
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        for i in (1..n).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            shuffled.swap(i, (seed % (i as u64 + 1)) as usize);
        }
        for (name, label) in [("row-major", row_major), ("shuffled", shuffled)] {
            let edges = king_lattice_edges(side, &label);
            let mut flow = MaxFlow::new(0);
            let mut scratch = ThresholdScratch::default();
            let groups = threshold_components_with(&mut flow, &mut scratch, n, &edges, k);
            // The four degree-3 corners split off; the rest is 4-connected.
            let mut corners: Vec<usize> = [0, side - 1, n - side, n - 1]
                .iter()
                .map(|&site| label[site])
                .collect();
            corners.sort_unstable();
            let singles: Vec<usize> = groups
                .iter()
                .filter(|group| group.len() == 1)
                .map(|group| group[0])
                .collect();
            assert_eq!(groups.len(), 5, "{name}");
            assert_eq!(singles, corners, "{name}");
            let scanned = flow.arcs_scanned();
            assert!(
                scanned <= 1000 * n as u64,
                "{name}: {scanned} arcs scanned, {} per vertex",
                scanned / n as u64
            );
            let paths = flow.augmenting_paths();
            assert!(paths <= n as u64 * k as u64, "{name}: {paths} paths");
        }
    }

    #[test]
    fn neighbour_and_representative_sources_are_both_used() {
        // Two disjoint triangles: inside a triangle every query finds a
        // certified neighbour; the first query into the second triangle
        // finds none and falls back to the representative.
        let mut g = Graph::new(6);
        for base in [0, 3] {
            g.add_edge(base, base + 1);
            g.add_edge(base + 1, base + 2);
            g.add_edge(base + 2, base);
        }
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        let groups = threshold_components_with(&mut flow, &mut scratch, 6, g.edges(), 2);
        assert_eq!(groups, GomoryHuTree::build(&g).components_after_removing(2));
        assert!(scratch.neighbour_sources >= 4, "{scratch:?}");
        assert!(scratch.fallback_sources >= 1, "{scratch:?}");
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let mut flow = MaxFlow::new(0);
        let mut scratch = ThresholdScratch::default();
        let mut big = Graph::new(8);
        for i in 0..8 {
            big.add_edge(i, (i + 1) % 8);
        }
        let first = threshold_components_with(&mut flow, &mut scratch, 8, big.edges(), 2);
        assert_eq!(first.len(), 1);
        let second = threshold_components_with(&mut flow, &mut scratch, 3, &[(0, 1)], 2);
        assert_eq!(second, vec![vec![0], vec![1], vec![2]]);
    }
}
