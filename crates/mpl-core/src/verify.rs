//! Mask extraction and decomposition verification.
//!
//! After color assignment each decomposition-graph vertex carries a mask
//! index.  This module turns that assignment back into manufacturing-facing
//! artefacts and checks it independently of the cost bookkeeping used during
//! optimisation:
//!
//! * [`extract_masks`] groups the vertex geometry per mask and reports
//!   per-mask statistics (feature count, total area) — the input a mask shop
//!   would receive.
//! * [`verify_spacing`] re-checks the *geometric* same-mask spacing rule
//!   from scratch: any two features of different layout shapes that share a
//!   mask and lie closer than the coloring distance are reported as
//!   violations.  By construction the number of violating pairs equals the
//!   conflict count reported by the decomposer, which gives an end-to-end
//!   consistency check exercised by the integration tests.

use crate::{DecompositionGraph, VertexId};
use mpl_geometry::{GridIndex, Nm};
use std::fmt;

/// The geometry assigned to one mask (one exposure).
#[derive(Debug, Clone)]
pub struct Mask {
    /// Mask index in `0..K`.
    pub index: usize,
    /// The decomposition-graph vertices on this mask.
    pub vertices: Vec<VertexId>,
    /// Total feature area on this mask (upper bound, in nm²).
    pub area: i64,
}

impl Mask {
    /// Number of features on the mask.
    pub fn feature_count(&self) -> usize {
        self.vertices.len()
    }
}

/// A same-mask spacing violation: two features of different layout shapes on
/// the same mask closer than the minimum coloring distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpacingViolation {
    /// First vertex.
    pub a: VertexId,
    /// Second vertex.
    pub b: VertexId,
    /// The mask both features sit on.
    pub mask: usize,
    /// Squared distance between the features, in nm².
    pub distance_squared: i64,
}

impl fmt::Display for SpacingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mask {}: {} and {} are {:.1} nm apart",
            self.mask,
            self.a,
            self.b,
            (self.distance_squared as f64).sqrt()
        )
    }
}

/// Groups the decomposition-graph vertices by mask.
///
/// # Panics
///
/// Panics if `colors` has the wrong length or uses a color `≥ graph.k()`.
pub fn extract_masks(graph: &DecompositionGraph, colors: &[u8]) -> Vec<Mask> {
    assert_eq!(
        colors.len(),
        graph.vertex_count(),
        "coloring length mismatch"
    );
    assert!(
        colors.iter().all(|&c| (c as usize) < graph.k()),
        "coloring uses a color outside 0..{}",
        graph.k()
    );
    let mut masks: Vec<Mask> = (0..graph.k())
        .map(|index| Mask {
            index,
            vertices: Vec::new(),
            area: 0,
        })
        .collect();
    for (vertex, &color) in colors.iter().enumerate() {
        let mask = &mut masks[color as usize];
        mask.vertices.push(VertexId(vertex));
        mask.area += graph.rect(VertexId(vertex)).area();
    }
    masks
}

/// The imbalance of a mask decomposition: the ratio between the largest and
/// the smallest per-mask area (1.0 is perfectly balanced).  Masks with zero
/// area are ignored unless every mask is empty, in which case 1.0 is
/// returned.
pub fn density_imbalance(masks: &[Mask]) -> f64 {
    let areas: Vec<i64> = masks.iter().map(|m| m.area).filter(|&a| a > 0).collect();
    if areas.is_empty() {
        return 1.0;
    }
    let max = *areas.iter().max().expect("non-empty") as f64;
    let min = *areas.iter().min().expect("non-empty") as f64;
    max / min
}

/// Independently re-checks the same-mask spacing rule, returning every
/// violating pair (each unordered pair reported once).
///
/// # Panics
///
/// Panics if `colors` has the wrong length or uses a color `≥ graph.k()`.
pub fn verify_spacing(
    graph: &DecompositionGraph,
    colors: &[u8],
    min_s: Nm,
) -> Vec<SpacingViolation> {
    assert_eq!(
        colors.len(),
        graph.vertex_count(),
        "coloring length mismatch"
    );
    assert!(
        colors.iter().all(|&c| (c as usize) < graph.k()),
        "coloring uses a color outside 0..{}",
        graph.k()
    );
    // Rebuild a spatial index from scratch rather than trusting the graph's
    // conflict edges: the whole point is an independent check.
    let rect = |vertex| graph.rect(VertexId(vertex));
    let index = GridIndex::build(
        min_s.max(Nm(1)),
        (0..graph.vertex_count()).map(|vertex| (vertex, rect(vertex))),
    );
    let mut violations = Vec::new();
    for vertex in 0..graph.vertex_count() {
        index.visit_within(&rect(vertex), min_s, |other, _, distance_squared| {
            if other <= vertex
                || graph.shape_of(VertexId(other)) == graph.shape_of(VertexId(vertex))
                || colors[other] != colors[vertex]
            {
                return;
            }
            violations.push(SpacingViolation {
                a: VertexId(vertex),
                b: VertexId(other),
                mask: colors[vertex] as usize,
                distance_squared,
            });
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorAlgorithm, Decomposer, DecomposerConfig, StitchConfig};
    use mpl_layout::{gen, Technology};

    fn tech() -> Technology {
        Technology::nm20()
    }

    #[test]
    fn masks_partition_the_vertices() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        let colors = vec![0, 1, 2, 3];
        let masks = extract_masks(&graph, &colors);
        assert_eq!(masks.len(), 4);
        assert!(masks.iter().all(|m| m.feature_count() == 1));
        assert!(masks.iter().all(|m| m.area == 400));
        assert_eq!(density_imbalance(&masks), 1.0);
    }

    #[test]
    fn clean_decomposition_has_no_spacing_violations() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        let violations = verify_spacing(&graph, &[0, 1, 2, 3], tech().coloring_distance(4));
        assert!(violations.is_empty());
    }

    #[test]
    fn violation_count_matches_conflict_count() {
        let layout = gen::k5_cluster_layout(&tech());
        let config = DecomposerConfig::quadruple(tech()).with_algorithm(ColorAlgorithm::Ilp);
        let decomposer = Decomposer::new(config);
        let result = decomposer.decompose(&layout).expect("valid config");
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &decomposer.config().stitch);
        let violations = verify_spacing(&graph, result.colors(), tech().coloring_distance(4));
        assert_eq!(violations.len(), result.conflicts());
        assert_eq!(violations.len(), 1);
        let report = violations[0].to_string();
        assert!(report.contains("mask"));
        assert!(violations[0].distance_squared < tech().coloring_distance(4).squared());
    }

    #[test]
    fn generated_circuit_decomposition_is_internally_consistent() {
        let layout = gen::generate_row_layout(&gen::RowLayoutConfig::small("verify", 21), &tech());
        let config = DecomposerConfig::quadruple(tech()).with_algorithm(ColorAlgorithm::Linear);
        let decomposer = Decomposer::new(config);
        let result = decomposer.decompose(&layout).expect("valid config");
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &decomposer.config().stitch);
        let violations = verify_spacing(&graph, result.colors(), tech().coloring_distance(4));
        assert_eq!(violations.len(), result.conflicts());
        let masks = extract_masks(&graph, result.colors());
        let total: usize = masks.iter().map(Mask::feature_count).sum();
        assert_eq!(total, graph.vertex_count());
    }

    #[test]
    fn empty_masks_are_ignored_by_the_imbalance_metric() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        // Everything on mask 0.
        let masks = extract_masks(&graph, &[0, 0, 0, 0]);
        assert_eq!(density_imbalance(&masks), 1.0);
        assert_eq!(masks[0].feature_count(), 4);
        assert_eq!(masks[1].feature_count(), 0);
    }

    #[test]
    #[should_panic(expected = "coloring length mismatch")]
    fn wrong_coloring_length_panics() {
        let layout = gen::fig1_contact_clique(&tech());
        let graph = DecompositionGraph::build(&layout, &tech(), 4, &StitchConfig::default());
        let _ = extract_masks(&graph, &[0, 1]);
    }
}
