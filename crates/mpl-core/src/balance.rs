//! Mask density balancing (post-processing extension).
//!
//! Multiple-patterning steppers print best when the K masks carry roughly
//! equal pattern density; the follow-up work the paper cites (the balanced
//! density triple-patterning decomposer of Yu et al., ICCAD 2013) treats
//! this as an explicit objective.  This module provides the natural
//! post-processing variant for the K-patterning flow: after color
//! assignment, repeatedly move features from over-full masks to under-full
//! masks whenever doing so does not change the conflict count or the stitch
//! count.
//!
//! The pass is strictly cost-neutral — it only ever applies recolorings whose
//! conflict and stitch deltas are both zero — so it can be run after any
//! engine without degrading the Table 1 metrics.

use crate::verify::extract_masks;
use crate::{DecompositionGraph, VertexId};

/// The outcome of a balancing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceReport {
    /// Number of vertices whose mask changed.
    pub moves: usize,
    /// Max/min per-mask area ratio before the pass.
    pub imbalance_before: f64,
    /// Max/min per-mask area ratio after the pass.
    pub imbalance_after: f64,
}

/// Rebalances mask densities in place, without changing conflicts or
/// stitches.
///
/// Vertices are visited in decreasing area order; each is moved to the mask
/// with the smallest accumulated area among the masks that are *free* for it
/// (no conflict neighbour on that mask, and every stitch neighbour keeps its
/// relation: a stitch edge that currently pays nothing must stay unpaid, one
/// that is already paid may stay paid).
///
/// # Panics
///
/// Panics if `colors` has the wrong length or uses a color `≥ graph.k()`.
pub fn rebalance_masks(graph: &DecompositionGraph, colors: &mut [u8]) -> BalanceReport {
    assert_eq!(
        colors.len(),
        graph.vertex_count(),
        "coloring length mismatch"
    );
    let k = graph.k();
    assert!(
        colors.iter().all(|&c| (c as usize) < k),
        "coloring uses a color outside 0..{k}"
    );
    let masks = extract_masks(graph, colors);
    let imbalance_before = crate::verify::density_imbalance(&masks);
    let mut mask_area: Vec<i64> = masks.iter().map(|m| m.area).collect();

    // Visit the largest features first: moving them has the biggest effect.
    let mut order: Vec<usize> = (0..graph.vertex_count()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.rect(VertexId(v)).area()));

    let mut moves = 0usize;
    for &vertex in &order {
        let current = colors[vertex] as usize;
        let area = graph.rect(VertexId(vertex)).area();
        // Masks blocked by a conflict neighbour.
        let mut blocked = vec![false; k];
        for &neighbor in graph.conflict_neighbors(vertex) {
            blocked[colors[neighbor] as usize] = true;
        }
        // Masks that would newly pay a stitch.
        for &neighbor in graph.stitch_neighbors(vertex) {
            if colors[neighbor] == colors[vertex] {
                // This stitch edge is currently free; moving the vertex to a
                // different mask would pay it, so only the neighbour's mask
                // stays allowed for this edge.
                for (mask, slot) in blocked.iter_mut().enumerate() {
                    if mask != colors[neighbor] as usize {
                        *slot = true;
                    }
                }
            }
        }
        if blocked[current] {
            // The current assignment already conflicts (an unresolved
            // conflict); leave it untouched — balancing must not disturb the
            // optimisation result.
            continue;
        }
        let target = (0..k)
            .filter(|&mask| !blocked[mask])
            .min_by_key(|&mask| mask_area[mask]);
        if let Some(target) = target {
            if target != current && mask_area[target] + area < mask_area[current] {
                mask_area[current] -= area;
                mask_area[target] += area;
                colors[vertex] = target as u8;
                moves += 1;
            }
        }
    }

    let masks_after = extract_masks(graph, colors);
    BalanceReport {
        moves,
        imbalance_before,
        imbalance_after: crate::verify::density_imbalance(&masks_after),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coloring_cost, ColorAlgorithm, Decomposer, DecomposerConfig, StitchConfig};
    use mpl_layout::{gen, Technology};

    fn tech() -> Technology {
        Technology::nm20()
    }

    #[test]
    fn balancing_never_changes_conflicts_or_stitches() {
        let layout = gen::generate_row_layout(&gen::RowLayoutConfig::small("bal", 31), &tech());
        let config = DecomposerConfig::quadruple(tech()).with_algorithm(ColorAlgorithm::Linear);
        let decomposer = Decomposer::new(config);
        let result = decomposer.decompose(&layout).expect("valid config");
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &decomposer.config().stitch);
        let before = coloring_cost(&graph, result.colors(), 0.1);
        let mut colors = result.colors().to_vec();
        let report = rebalance_masks(&graph, &mut colors);
        let after = coloring_cost(&graph, &colors, 0.1);
        assert_eq!(before.conflicts, after.conflicts);
        assert_eq!(before.stitches, after.stitches);
        assert!(report.imbalance_after <= report.imbalance_before + 1e-9);
    }

    #[test]
    fn skewed_assignment_gets_more_balanced() {
        // Four isolated contacts far apart: any coloring is conflict-free, so
        // the balancer is free to spread an all-on-one-mask assignment out.
        let mut builder = mpl_layout::Layout::builder("skewed");
        for i in 0..4 {
            builder.add_contact(
                mpl_geometry::Nm(i * 500),
                mpl_geometry::Nm(0),
                mpl_geometry::Nm(20),
            );
        }
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        let mut colors = vec![0u8; 4];
        let report = rebalance_masks(&graph, &mut colors);
        assert!(report.moves > 0);
        assert!(report.imbalance_after <= report.imbalance_before);
        // All four masks end up carrying exactly one contact.
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn stitch_free_edges_stay_free() {
        // A split wire whose two halves share a mask must keep sharing one.
        let mut builder = mpl_layout::Layout::builder("wire");
        builder.add_rect(mpl_geometry::Rect::new(
            mpl_geometry::Nm(0),
            mpl_geometry::Nm(0),
            mpl_geometry::Nm(400),
            mpl_geometry::Nm(20),
        ));
        builder.add_contact(
            mpl_geometry::Nm(0),
            mpl_geometry::Nm(80),
            mpl_geometry::Nm(20),
        );
        let layout = builder.build();
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        assert_eq!(graph.stitch_edges().len(), 1);
        let mut colors = vec![1u8; graph.vertex_count()];
        // Make the contact a different color so the layout is conflict-free.
        let contact_vertex = (0..graph.vertex_count())
            .find(|&v| graph.conflict_degree(v) == 1 && graph.stitch_degree(v) == 0)
            .expect("contact vertex exists");
        colors[contact_vertex] = 0;
        let before = coloring_cost(&graph, &colors, 0.1);
        rebalance_masks(&graph, &mut colors);
        let after = coloring_cost(&graph, &colors, 0.1);
        assert_eq!(before.stitches, after.stitches);
        assert_eq!(after.conflicts, 0);
    }

    #[test]
    #[should_panic(expected = "coloring length mismatch")]
    fn wrong_length_panics() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        let mut colors = vec![0u8; 2];
        let _ = rebalance_masks(&graph, &mut colors);
    }
}
