//! Glue between the pipeline and the translation-canonical memo cache
//! ([`mpl_memo`]).
//!
//! The batch engine ([`crate::DecompositionSession`]) consults an attached
//! [`MemoCache`](mpl_memo::MemoCache) before enqueueing a component task:
//! the task is canonicalized here (geometry normalized to the component's
//! bounding-box origin, vertices sorted into canonical order, edges
//! relabeled through the permutation), the cache is probed with the
//! resulting [`Signature`](mpl_memo::Signature), and on a miss the engine
//! colors the **canonical** problem built by [`canonical_problem`] so the
//! stored coloring — and therefore every stamped copy, warm or cold — is a
//! pure function of the signature.

use crate::{ComponentProblem, ComponentTask, DecomposerConfig, DecompositionPlan, VertexId};
use mpl_memo::{canonicalize, CanonicalComponent, ComponentView, Signature};

/// Renders everything of `config` that influences coloring beyond the
/// component itself into the signature's fingerprint: the engine, the SDP
/// merge threshold, the division flags and the exact-engine time limit.
///
/// K and α are part of the signature proper; the technology only shapes
/// graph construction (it is already encoded in the component's geometry
/// and edges), and the stitch parameters only shape the graph too.
pub(crate) fn config_fingerprint(config: &DecomposerConfig) -> String {
    let division = &config.division;
    format!(
        "engine={};tth={:016x};div={}{}{}{};ilp_ns={}",
        config.algorithm.name(),
        config.sdp_merge_threshold.to_bits(),
        u8::from(division.independent_components),
        u8::from(division.low_degree_removal),
        u8::from(division.biconnected_split),
        u8::from(division.ghtree_cut_removal),
        config.ilp_time_limit.as_nanos(),
    )
}

/// Canonicalizes one component task of `plan`, pulling each vertex's
/// geometry from the plan's decomposition graph.
pub(crate) fn canonicalize_task(
    plan: &DecompositionPlan,
    task: &ComponentTask,
    fingerprint: &str,
) -> CanonicalComponent {
    let problem = task.problem();
    let geometry: Vec<Vec<mpl_memo::RectNm>> = task
        .to_global()
        .iter()
        .map(|&global| {
            let rect = plan.graph().rect(VertexId(global));
            vec![(rect.xlo().0, rect.ylo().0, rect.xhi().0, rect.yhi().0)]
        })
        .collect();
    canonicalize(&ComponentView {
        fingerprint,
        k: problem.k(),
        alpha: problem.alpha(),
        geometry: &geometry,
        conflict_edges: problem.conflict_edges(),
        stitch_edges: problem.stitch_edges(),
        friendly_pairs: problem.color_friendly_pairs(),
    })
}

/// Builds the canonical [`ComponentProblem`] a cache miss colors: the same
/// component as the live task, relabeled into canonical vertex order.
pub(crate) fn canonical_problem(signature: &Signature) -> ComponentProblem {
    let mut problem =
        ComponentProblem::new(signature.vertex_count(), signature.k(), signature.alpha());
    for &(u, v) in signature.conflict_edges() {
        problem.add_conflict(u as usize, v as usize);
    }
    for &(u, v) in signature.stitch_edges() {
        problem.add_stitch(u as usize, v as usize);
    }
    for &(u, v) in signature.friendly_pairs() {
        problem.add_color_friendly(u as usize, v as usize);
    }
    problem
}

/// The canonical signature of every component task of `plan`, in task
/// order — the keys an attached cache would be probed with.
///
/// Exposed for tests and inspection: translated copies of a component
/// produce equal signatures, so a layout shifted as a whole yields the
/// same signature list.
pub fn component_signatures(plan: &DecompositionPlan) -> Vec<Signature> {
    let fingerprint = config_fingerprint(plan.config());
    plan.tasks()
        .iter()
        .map(|task| canonicalize_task(plan, task, &fingerprint).signature)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorAlgorithm, Decomposer, DivisionConfig};
    use mpl_layout::{gen, Technology};

    fn plan_for(layout: &mpl_layout::Layout) -> DecompositionPlan {
        let config =
            DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(ColorAlgorithm::Linear);
        Decomposer::new(config).plan(layout).expect("valid config")
    }

    #[test]
    fn fingerprints_separate_configurations() {
        let tech = Technology::nm20();
        let base = DecomposerConfig::quadruple(tech);
        let linear = base.clone().with_algorithm(ColorAlgorithm::Linear);
        let no_division = base.clone().with_division(DivisionConfig::none());
        let fp = config_fingerprint(&base);
        assert_ne!(fp, config_fingerprint(&linear));
        assert_ne!(fp, config_fingerprint(&no_division));
        assert_eq!(fp, config_fingerprint(&base.clone()));
    }

    #[test]
    fn translated_layouts_share_component_signatures() {
        let tech = Technology::nm20();
        let layout = gen::fig1_contact_clique(&tech);
        let mut builder = mpl_layout::Layout::builder("translated");
        for shape in layout.shapes() {
            builder.add_polygon(
                shape
                    .polygon()
                    .translated(mpl_geometry::Nm(12_345), mpl_geometry::Nm(-6_789)),
            );
        }
        let translated = builder.build();

        let original = component_signatures(&plan_for(&layout));
        let moved = component_signatures(&plan_for(&translated));
        assert_eq!(original, moved);
    }

    #[test]
    fn canonical_problem_round_trips_the_signature() {
        let tech = Technology::nm20();
        let plan = plan_for(&gen::k5_cluster_layout(&tech));
        let fingerprint = config_fingerprint(plan.config());
        for task in plan.tasks() {
            let canonical = canonicalize_task(&plan, task, &fingerprint);
            let problem = canonical_problem(&canonical.signature);
            assert_eq!(problem.vertex_count(), task.problem().vertex_count());
            assert_eq!(
                problem.conflict_edges().len(),
                task.problem().conflict_edges().len()
            );
            assert_eq!(
                problem.stitch_edges().len(),
                task.problem().stitch_edges().len()
            );
            // Any canonical coloring evaluates identically on the live
            // problem after stamping: the edge sets are the same up to the
            // permutation.
            let colors: Vec<u8> = (0..problem.vertex_count()).map(|v| (v % 4) as u8).collect();
            let live = mpl_memo::stamp(&colors, &canonical.perm);
            assert_eq!(problem.evaluate(&colors), task.problem().evaluate(&live));
        }
    }
}
