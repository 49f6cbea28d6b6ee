//! Property-based tests for the graph substrate.
//!
//! The key invariants checked here back the correctness arguments of the
//! decomposition flow: the Gomory–Hu tree must report exactly the same
//! min-cut values as direct max-flow computations, and biconnected /
//! connected component structure must be consistent with reachability.
//! The capped-flow (K−1)-cut partition must equal the Gomory–Hu tree's
//! after removing edges lighter than K.

use mpl_graph::{
    connected_components, threshold_components, Biconnectivity, GomoryHuTree, Graph, MaxFlow,
};
use proptest::prelude::*;

/// A random graph on up to `max_n` vertices whose edge density, in
/// percent, is drawn from `percent`; low densities give sparse, often
/// disconnected graphs.
fn arb_graph(max_n: usize, percent: std::ops::RangeInclusive<u32>) -> impl Strategy<Value = Graph> {
    (2..=max_n, percent).prop_flat_map(|(n, percent)| {
        prop::collection::vec(0u32..100, n * (n - 1) / 2).prop_map(move |draws| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if draws[k] < percent {
                        g.add_edge(i, j);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// A king-move lattice (degree 8 inside, like a contact lattice's conflict
/// graph) of up to 6×6 sites with about 15 % of the sites vacant; vacant
/// sites stay in the graph as isolated vertices.
fn arb_vacant_lattice() -> impl Strategy<Value = Graph> {
    (2usize..=6, 2usize..=6).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(prop::bool::weighted(0.15), rows * cols).prop_map(move |vacant| {
            let mut g = Graph::new(rows * cols);
            for r in 0..rows {
                for c in 0..cols {
                    let here = r * cols + c;
                    let mut near = Vec::new();
                    if c + 1 < cols {
                        near.push(here + 1);
                    }
                    if r + 1 < rows {
                        near.extend(
                            (c.saturating_sub(1)..(c + 2).min(cols)).map(|cc| here + cols - c + cc),
                        );
                    }
                    for there in near {
                        if !vacant[here] && !vacant[there] {
                            g.add_edge(here, there);
                        }
                    }
                }
            }
            g
        })
    })
}

/// `graph` with its vertices renamed by a random permutation.
fn relabelled(graph: Graph) -> impl Strategy<Value = Graph> {
    let n = graph.vertex_count();
    prop::collection::vec(0u64..u64::MAX, n).prop_map(move |keys| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| keys[v]);
        let mut name = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            name[old] = new;
        }
        let mut g = Graph::new(n);
        for &(u, v) in graph.edges() {
            g.add_edge(name[u], name[v]);
        }
        g
    })
}

fn assert_division_parity(g: &Graph) -> Result<(), proptest::test_runner::TestCaseError> {
    let tree = GomoryHuTree::build(g);
    for k in 1..=8 {
        prop_assert_eq!(
            threshold_components(g, k),
            tree.components_after_removing(k),
            "threshold {} on {}",
            k,
            g
        );
    }
    Ok(())
}

// The division parity properties take their case count from
// `PROPTEST_CASES` (64 by default), so CI can run more of them in release.
// Disconnected graphs and vacancies give queries with no certified
// neighbour (the fallback to the group's representative); connected
// stretches give the neighbour-sourced queries.
proptest! {
    #[test]
    fn threshold_partition_matches_gomory_hu_on_random_graphs(
        g in arb_graph(30, 5..=60).prop_flat_map(relabelled)
    ) {
        assert_division_parity(&g)?;
    }

    #[test]
    fn threshold_partition_matches_gomory_hu_on_vacant_lattices(
        g in arb_vacant_lattice().prop_flat_map(relabelled)
    ) {
        assert_division_parity(&g)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gomory_hu_matches_direct_min_cuts(g in arb_graph(9, 45..=45)) {
        let tree = GomoryHuTree::build(&g);
        let mut flow = MaxFlow::from_unit_graph(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                prop_assert_eq!(tree.min_cut(u, v), flow.max_flow(u, v));
            }
        }
    }

    #[test]
    fn min_cut_zero_iff_different_components(g in arb_graph(10, 45..=45)) {
        let tree = GomoryHuTree::build(&g);
        let comps = connected_components(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                let same = comps.component_of(u) == comps.component_of(v);
                prop_assert_eq!(tree.min_cut(u, v) > 0, same);
            }
        }
    }

    #[test]
    fn cut_removal_groups_refine_connected_components(g in arb_graph(10, 45..=45), k in 1i64..5) {
        let tree = GomoryHuTree::build(&g);
        let comps = connected_components(&g);
        for group in tree.components_after_removing(k) {
            // All vertices in a surviving group are in the same connected
            // component (their pairwise min cut is >= k >= 1 > 0).
            if group.len() > 1 {
                let c0 = comps.component_of(group[0]);
                for &v in &group[1..] {
                    prop_assert_eq!(comps.component_of(v), c0);
                }
            }
        }
    }

    #[test]
    fn cut_removal_keeps_high_connectivity_pairs_together(g in arb_graph(8, 45..=45), k in 1i64..5) {
        let tree = GomoryHuTree::build(&g);
        let groups = tree.components_after_removing(k);
        let group_of = |v: usize| groups.iter().position(|grp| grp.contains(&v)).expect("covered");
        let mut flow = MaxFlow::from_unit_graph(&g);
        for u in 0..g.vertex_count() {
            for v in (u + 1)..g.vertex_count() {
                // Lemma 2 direction used by the paper: a pair with min cut >= k
                // must stay in the same group after (k-1)-cut removal.
                if flow.max_flow(u, v) >= k {
                    prop_assert_eq!(group_of(u), group_of(v));
                }
            }
        }
    }

    #[test]
    fn bridges_disconnect_their_endpoints(g in arb_graph(10, 45..=45)) {
        let bc = Biconnectivity::compute(&g);
        let comps_before = connected_components(&g).component_count();
        for &(u, v) in bc.bridges() {
            // Rebuild the graph without one copy of that bridge.
            let mut h = Graph::new(g.vertex_count());
            let mut skipped = false;
            for &(a, b) in g.edges() {
                if !skipped && ((a, b) == (u, v) || (a, b) == (v, u)) {
                    skipped = true;
                    continue;
                }
                h.add_edge(a, b);
            }
            let comps_after = connected_components(&h).component_count();
            prop_assert_eq!(comps_after, comps_before + 1);
        }
    }

    #[test]
    fn biconnected_components_partition_edges(g in arb_graph(10, 45..=45)) {
        let bc = Biconnectivity::compute(&g);
        let mut seen = vec![false; g.edge_count()];
        for comp in bc.components() {
            for &e in comp {
                prop_assert!(!seen[e], "edge {} appears in two components", e);
                seen[e] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every edge belongs to a component");
    }

    #[test]
    fn connected_components_agree_with_bfs_reachability(g in arb_graph(10, 45..=45)) {
        let comps = connected_components(&g);
        // BFS from vertex 0 and compare membership.
        let mut reach = vec![false; g.vertex_count()];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !reach[v] {
                    reach[v] = true;
                    stack.push(v);
                }
            }
        }
        for (v, &reachable) in reach.iter().enumerate() {
            prop_assert_eq!(reachable, comps.component_of(v) == comps.component_of(0));
        }
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph(10, 45..=45)) {
        let n = g.vertex_count();
        let subset: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        let (sub, original) = g.induced_subgraph(&subset);
        for i in 0..sub.vertex_count() {
            for j in 0..sub.vertex_count() {
                if i != j {
                    prop_assert_eq!(sub.has_edge(i, j), g.has_edge(original[i], original[j]));
                }
            }
        }
    }
}
