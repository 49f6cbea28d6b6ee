//! The end-to-end decomposition flow (Fig. 2 of the paper).
//!
//! The flow is staged: [`Decomposer::plan`] builds the decomposition graph
//! and materialises the independent components as [`ComponentTask`]s, which
//! then color through a pluggable [`Executor`](crate::Executor) — either
//! alone ([`DecompositionPlan::execute`]) or batched with other layouts'
//! tasks in a [`DecompositionSession`](crate::DecompositionSession).
//! [`Decomposer::decompose`] is the one-call convenience wrapper that plans
//! and executes serially.

use crate::assign::{assigner_for, ColorAssigner};
use crate::coloring_cost;
use crate::division::{
    biconnected_blocks_with, ghtree_pieces_with, merge_with_rotation_with, peel_low_degree_with,
    permute_to_match_anchors, with_division_scratch, DivisionScratch,
};
use crate::pipeline::{ComponentStats, ComponentTask, DecompositionPlan};
use crate::{
    ColoringCost, ComponentProblem, DecomposeError, DecomposerConfig, DecompositionGraph,
    SerialExecutor, VertexId,
};
use mpl_geometry::Nm;
use mpl_layout::Layout;
use std::time::{Duration, Instant};

/// The result of decomposing a layout: one mask per decomposition-graph
/// vertex plus the statistics reported in the paper's tables, a
/// per-component breakdown, and the colored geometry itself.
#[derive(Debug, Clone)]
pub struct DecompositionResult {
    layout_name: String,
    algorithm: &'static str,
    executor: String,
    k: usize,
    colors: Vec<u8>,
    cost: ColoringCost,
    vertex_count: usize,
    conflict_edge_count: usize,
    stitch_edge_count: usize,
    components: Vec<ComponentStats>,
    /// Shared (not copied) with the plan that produced this result; used
    /// for the geometry lookups of [`DecompositionResult::mask_layouts`].
    graph: std::sync::Arc<DecompositionGraph>,
    graph_time: Duration,
    color_time: Duration,
}

impl DecompositionResult {
    /// Assembles a result from an executed plan (crate-internal; see
    /// [`DecompositionPlan::execute`]).
    pub(crate) fn from_execution(
        plan: &DecompositionPlan,
        executor: &str,
        colors: Vec<u8>,
        cost: ColoringCost,
        components: Vec<ComponentStats>,
        color_time: Duration,
    ) -> Self {
        let graph = plan.graph();
        DecompositionResult {
            layout_name: plan.layout_name().to_string(),
            algorithm: graph_algorithm_name(plan),
            executor: executor.to_string(),
            k: graph.k(),
            colors,
            cost,
            vertex_count: graph.vertex_count(),
            conflict_edge_count: graph.conflict_edges().len(),
            stitch_edge_count: graph.stitch_edges().len(),
            components,
            // An Arc clone: the graph (and its geometry) is shared with the
            // plan, never copied per execution.
            graph: plan.graph_arc().clone(),
            graph_time: plan.graph_time(),
            color_time,
        }
    }

    /// Assembles a result from a full-layout coloring produced outside the
    /// plan's own batch engine — [`run_partitioned`](crate::run_partitioned)
    /// builds its merged results through this.
    ///
    /// `colors` must assign one color per graph vertex; the conflict/stitch
    /// cost is recomputed here over the whole graph with the plan's α, so
    /// the reported conflict count always agrees with what
    /// [`verify_spacing`](crate::verify_spacing) would find.  `components`
    /// follows the same per-task convention as an executed plan.
    pub(crate) fn assemble(
        plan: &DecompositionPlan,
        executor: &str,
        colors: Vec<u8>,
        components: Vec<ComponentStats>,
        color_time: Duration,
    ) -> Self {
        assert_eq!(
            colors.len(),
            plan.graph().vertex_count(),
            "assembled coloring must cover every graph vertex"
        );
        let cost = coloring_cost(plan.graph(), &colors, plan.config().alpha);
        DecompositionResult::from_execution(plan, executor, colors, cost, components, color_time)
    }

    /// The layout this result was computed for.
    pub fn layout_name(&self) -> &str {
        &self.layout_name
    }

    /// The color-assignment engine used.
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// The executor that ran the component tasks (e.g. `"serial"` or
    /// `"threads:4"`).
    pub fn executor(&self) -> &str {
        &self.executor
    }

    /// The number of masks K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The mask assigned to every decomposition-graph vertex.
    pub fn colors(&self) -> &[u8] {
        &self.colors
    }

    /// Number of unresolved conflicts (the paper's `cn#`).
    pub fn conflicts(&self) -> usize {
        self.cost.conflicts
    }

    /// Number of stitches actually inserted (the paper's `st#`).
    pub fn stitches(&self) -> usize {
        self.cost.stitches
    }

    /// The weighted objective `conflicts + α · stitches`.
    pub fn cost(&self) -> f64 {
        self.cost.cost
    }

    /// Number of decomposition-graph vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of conflict edges.
    pub fn conflict_edge_count(&self) -> usize {
        self.conflict_edge_count
    }

    /// Number of stitch edges (stitch candidates).
    pub fn stitch_edge_count(&self) -> usize {
        self.stitch_edge_count
    }

    /// Per-component conflict/stitch/time breakdown, in task order.
    pub fn component_stats(&self) -> &[ComponentStats] {
        &self.components
    }

    /// Number of independent components that were colored.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Splits the decomposed geometry into K colored layouts, one per mask
    /// (mask `m` is named `<layout>.mask<m>`) — the artefact a mask shop
    /// would receive, ready for GDS export or per-mask verification.
    pub fn mask_layouts(&self) -> Vec<Layout> {
        let mut builders: Vec<_> = (0..self.k)
            .map(|mask| Layout::builder(format!("{}.mask{mask}", self.layout_name)))
            .collect();
        for (vertex, &color) in self.colors.iter().enumerate() {
            builders[color as usize].add_rect(self.graph.rect(VertexId(vertex)));
        }
        builders
            .into_iter()
            .map(|builder| builder.build())
            .collect()
    }

    /// Number of components whose colors were stamped from the memo cache
    /// (a cache hit or an in-batch duplicate), or `None` when the run had
    /// no cache attached.
    pub fn memo_hits(&self) -> Option<usize> {
        self.memo_count(true)
    }

    /// Number of components the engine actually colored under an attached
    /// memo cache, or `None` when the run had no cache attached.
    pub fn memo_misses(&self) -> Option<usize> {
        self.memo_count(false)
    }

    fn memo_count(&self, hit: bool) -> Option<usize> {
        if self.components.iter().any(|s| s.memo_hit.is_some()) {
            Some(
                self.components
                    .iter()
                    .filter(|s| s.memo_hit == Some(hit))
                    .count(),
            )
        } else {
            None
        }
    }

    /// Vertices hidden by iterated graph simplification, summed over
    /// components.
    pub fn hidden_vertices(&self) -> usize {
        self.components.iter().map(|s| s.hidden_vertices).sum()
    }

    /// Kernel vertices handed to the engines after simplification, summed
    /// over components that were simplified.
    pub fn kernel_vertices(&self) -> usize {
        self.components.iter().map(|s| s.kernel_vertices).sum()
    }

    /// Hide/cut rounds run by iterated simplification, summed over
    /// components.
    pub fn simplify_rounds(&self) -> usize {
        self.components.iter().map(|s| s.simplify_rounds).sum()
    }

    /// Clique-expansion steps that strengthened the exact engine's lower
    /// bound, summed over components.
    pub fn bound_improvements(&self) -> u64 {
        self.components.iter().map(|s| s.bound_improvements).sum()
    }

    /// Whether an explicit [`CancelToken`](crate::CancelToken) cancellation
    /// touched any component of this result: an engine stopped mid-search
    /// or a task skipped outright.  The colors are still complete and legal
    /// — the touched components just carry incumbents (or placeholders)
    /// instead of their engine's full-effort answer.
    pub fn cancelled(&self) -> bool {
        self.components.iter().any(|s| s.cancelled)
    }

    /// Whether a request deadline was observed expired on any component.
    pub fn deadline_exceeded(&self) -> bool {
        self.components.iter().any(|s| s.deadline_exceeded)
    }

    /// Components that reached an engine (i.e. were not skipped).  Equals
    /// the component count on an uncancelled run.
    pub fn components_completed(&self) -> usize {
        self.components.iter().filter(|s| !s.skipped).count()
    }

    /// Components whose task was skipped because the request was cancelled
    /// (or past its deadline) before the task started.
    pub fn components_skipped(&self) -> usize {
        self.components.iter().filter(|s| s.skipped).count()
    }

    /// Time spent constructing the decomposition graph.
    pub fn graph_time(&self) -> Duration {
        self.graph_time
    }

    /// Time spent in graph division and color assignment (the paper's
    /// `CPU(s)` column measures this phase).
    pub fn color_time(&self) -> Duration {
        self.color_time
    }
}

/// The engine name recorded on results for a plan.
fn graph_algorithm_name(plan: &DecompositionPlan) -> &'static str {
    plan.config().algorithm.name()
}

/// The layout decomposer: decomposition-graph construction, graph division
/// and color assignment, as orchestrated in Fig. 2 of the paper.
#[derive(Debug, Clone)]
pub struct Decomposer {
    config: DecomposerConfig,
}

impl Decomposer {
    /// Creates a decomposer with the given configuration.
    ///
    /// The configuration is validated lazily by [`Decomposer::plan`], so
    /// construction never fails.
    pub fn new(config: DecomposerConfig) -> Self {
        Decomposer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecomposerConfig {
        &self.config
    }

    /// Builds the decomposition plan for a layout: validates the
    /// configuration and the layout, constructs the decomposition graph,
    /// and materialises one [`ComponentTask`] per independent component.
    /// The plan can be executed directly or submitted to a
    /// [`DecompositionSession`](crate::DecompositionSession) to run batched
    /// with other layouts on one shared executor.
    ///
    /// # Errors
    ///
    /// Returns [`DecomposeError::Config`] when the configuration is invalid
    /// (mask count outside `2..=255`, non-finite or negative α, merge
    /// threshold outside `[-1, 1]`) and [`DecomposeError::DegenerateShape`]
    /// when a layout shape has no geometry or a zero-area rectangle.  An
    /// *empty* layout is not an error: it plans zero tasks and decomposes
    /// trivially.
    pub fn plan(&self, layout: &Layout) -> Result<DecompositionPlan, DecomposeError> {
        self.config.validate()?;
        for shape in layout.iter() {
            let rects = shape.polygon().rects();
            if rects.is_empty()
                || rects
                    .iter()
                    .any(|r| r.width() <= Nm(0) || r.height() <= Nm(0))
            {
                return Err(DecomposeError::DegenerateShape {
                    shape: shape.id().index(),
                });
            }
        }
        let graph_start = Instant::now();
        let graph = DecompositionGraph::build(
            layout,
            &self.config.technology,
            self.config.k,
            &self.config.stitch,
        );
        let components = self.graph_components(&graph);
        let tasks = component_problems(&graph, components, &self.config)
            .into_iter()
            .enumerate()
            .map(|(index, (problem, to_global))| ComponentTask::new(index, problem, to_global))
            .collect();
        let graph_time = graph_start.elapsed();
        Ok(DecompositionPlan::new(
            self.clone(),
            layout.name().to_string(),
            graph,
            tasks,
            graph_time,
        ))
    }

    /// Decomposes a layout into K masks: a thin convenience wrapper that
    /// plans and executes on the [`SerialExecutor`].
    ///
    /// # Errors
    ///
    /// Propagates the planning errors of [`Decomposer::plan`].
    pub fn decompose(&self, layout: &Layout) -> Result<DecompositionResult, DecomposeError> {
        Ok(self.plan(layout)?.execute(&SerialExecutor))
    }

    /// Colors an already-built decomposition graph (exposed for harnesses
    /// that want to time color assignment separately from graph
    /// construction).
    ///
    /// # Errors
    ///
    /// Returns [`DecomposeError::Config`] when the configuration is invalid
    /// (same validation as [`Decomposer::plan`]).
    pub fn color_graph(&self, graph: &DecompositionGraph) -> Result<Vec<u8>, DecomposeError> {
        self.config.validate()?;
        let assigner = assigner_for(self.config.algorithm, &self.config);
        let mut colors = vec![0u8; graph.vertex_count()];
        let components = self.graph_components(graph);
        for (problem, original) in component_problems(graph, components, &self.config) {
            let local_colors = self.color_problem(&problem, assigner.as_ref());
            for (local, &global) in original.iter().enumerate() {
                colors[global] = local_colors[local];
            }
        }
        Ok(colors)
    }

    /// The component partition both [`Decomposer::plan`] and
    /// [`Decomposer::color_graph`] color: independent components, or the
    /// whole graph as one component when that division technique is
    /// disabled (the ablation knob).
    fn graph_components(&self, graph: &DecompositionGraph) -> Vec<Vec<usize>> {
        if self.config.division.independent_components {
            graph.independent_components()
        } else if graph.vertex_count() == 0 {
            Vec::new()
        } else {
            vec![(0..graph.vertex_count()).collect()]
        }
    }

    /// Colors a [`ComponentProblem`] with division applied, returning local
    /// colors.
    pub(crate) fn color_problem(
        &self,
        problem: &ComponentProblem,
        assigner: &dyn ColorAssigner,
    ) -> Vec<u8> {
        self.color_problem_metered(problem, assigner).0
    }

    /// Colors a [`ComponentProblem`] with division applied, returning local
    /// colors plus the component's work counters.  Scratch buffers live in a
    /// per-thread [`DivisionScratch`], so each executor worker re-uses the
    /// same allocations for every component it colors.
    pub(crate) fn color_problem_metered(
        &self,
        problem: &ComponentProblem,
        assigner: &dyn ColorAssigner,
    ) -> (Vec<u8>, ColorMetrics) {
        self.color_problem_metered_cancellable(problem, assigner, None)
    }

    /// Like [`Decomposer::color_problem_metered`], but every engine run
    /// additionally polls `cancel`; once the token stops, the remaining
    /// engine work degrades to fast incumbents and the metrics carry
    /// [`ColorMetrics::cancelled`].
    pub(crate) fn color_problem_metered_cancellable(
        &self,
        problem: &ComponentProblem,
        assigner: &dyn ColorAssigner,
        cancel: Option<&crate::CancelToken>,
    ) -> (Vec<u8>, ColorMetrics) {
        with_division_scratch(|scratch| self.color_problem_in(problem, assigner, scratch, cancel))
    }

    fn color_problem_in(
        &self,
        problem: &ComponentProblem,
        assigner: &dyn ColorAssigner,
        scratch: &mut DivisionScratch,
        cancel: Option<&crate::CancelToken>,
    ) -> (Vec<u8>, ColorMetrics) {
        let n = problem.vertex_count();
        let k = problem.k() as u8;
        let division = self.config.division;
        let mut metrics = ColorMetrics::default();
        let paths_before = scratch.augmenting_paths();
        let bound_before = scratch.augmenting_path_bound();
        let allocs_before = scratch.alloc_events();

        // ---- Iterated simplification (hide + cut to a fixed point). ----
        // The hide and cut passes reuse the ablation gates of the one-shot
        // techniques they generalise; a trivial fixed point (nothing hidden
        // or cut) falls through to the one-shot path below bit-identically.
        if division.iterated_simplify && n > 0 {
            let division_start = Instant::now();
            let simplification = mpl_graph::simplify(
                n,
                problem.conflict_edges(),
                problem.stitch_edges(),
                problem.k(),
                division.low_degree_removal,
                division.biconnected_split,
            );
            metrics.division_time += division_start.elapsed();
            if !simplification.is_trivial() {
                let colors = self.color_simplified(
                    problem,
                    assigner,
                    scratch,
                    &simplification,
                    &mut metrics,
                    cancel,
                );
                metrics.augmenting_paths = scratch.augmenting_paths() - paths_before;
                metrics.augmenting_path_bound = scratch.augmenting_path_bound() - bound_before;
                metrics.scratch_allocs = scratch.alloc_events() - allocs_before;
                return (colors, metrics);
            }
        }
        let mut colors = vec![u8::MAX; n];

        // ---- Low-degree peeling. ----
        let division_start = Instant::now();
        let (kernel, stack) = if division.low_degree_removal {
            let peeling = peel_low_degree_with(problem, scratch);
            (peeling.kernel, peeling.stack)
        } else {
            ((0..n).collect(), Vec::new())
        };
        metrics.division_time += division_start.elapsed();

        // ---- Kernel coloring, block by block. ----
        if !kernel.is_empty() {
            let division_start = Instant::now();
            let blocks = if division.biconnected_split {
                biconnected_blocks_with(problem, &kernel, scratch)
            } else {
                vec![kernel.clone()]
            };
            metrics.division_time += division_start.elapsed();
            for block in blocks {
                // Remember which block vertices were colored before (shared
                // articulation vertices) so the block can be permuted to
                // agree with them afterwards.
                let anchors: Vec<usize> = block
                    .iter()
                    .copied()
                    .filter(|&v| colors[v] != u8::MAX)
                    .collect();
                let anchor_colors: Vec<u8> = anchors.iter().map(|&v| colors[v]).collect();

                if division.ghtree_cut_removal {
                    let division_start = Instant::now();
                    let pieces = ghtree_pieces_with(problem, &block, scratch);
                    metrics.division_time += division_start.elapsed();
                    for piece in &pieces {
                        self.color_piece(
                            problem,
                            piece,
                            assigner,
                            &mut colors,
                            &mut metrics,
                            cancel,
                        );
                    }
                    if pieces.len() > 1 {
                        let division_start = Instant::now();
                        merge_with_rotation_with(problem, &pieces, &mut colors, scratch);
                        metrics.division_time += division_start.elapsed();
                    }
                } else {
                    self.color_piece(problem, &block, assigner, &mut colors, &mut metrics, cancel);
                }

                // Reconcile with every previously colored articulation
                // vertex at once: the color permutation minimising the total
                // anchor mismatch is free (permutations preserve the block's
                // internal conflicts and stitches).
                permute_to_match_anchors(&block, &mut colors, &anchors, &anchor_colors, k);
            }
        }

        // ---- Pop the peeled vertices, cheapest legal color first. ----
        let conflict_adj = problem.conflict_adjacency();
        let stitch_adj = problem.stitch_adjacency();
        let mut penalty = vec![0.0f64; k as usize];
        for &v in stack.iter().rev() {
            penalty.iter_mut().for_each(|slot| *slot = 0.0);
            for &u in conflict_adj.neighbors(v) {
                if colors[u] != u8::MAX {
                    penalty[colors[u] as usize] += 1.0;
                }
            }
            for &u in stitch_adj.neighbors(v) {
                if colors[u] != u8::MAX {
                    for (color, slot) in penalty.iter_mut().enumerate() {
                        if color != colors[u] as usize {
                            *slot += problem.alpha();
                        }
                    }
                }
            }
            colors[v] = penalty
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(c, _)| c as u8)
                .unwrap_or(0);
        }
        for color in colors.iter_mut() {
            if *color == u8::MAX {
                *color = 0;
            }
        }
        metrics.augmenting_paths = scratch.augmenting_paths() - paths_before;
        metrics.augmenting_path_bound = scratch.augmenting_path_bound() - bound_before;
        metrics.scratch_allocs = scratch.alloc_events() - allocs_before;
        (colors, metrics)
    }

    /// Colors a component through a non-trivial [`mpl_graph::simplify`]
    /// fixed point: color only the kernel (with the cut edges removed),
    /// then replay the op stack in reverse — rotating each cut side onto
    /// its far endpoint and greedily coloring each hidden vertex.
    ///
    /// Safety of the replay: a hidden vertex had fewer than K active
    /// conflict neighbours when hidden, and every neighbour hidden *before*
    /// it is still uncolored (recovered later) while every edge cut before
    /// its hide is still cut (recovered later), so a conflict-free color
    /// always exists.  A cut side's vertices were all active at cut time,
    /// hence kernel vertices or vertices hidden later — both already
    /// colored when the cut is recovered — and no edge between two such
    /// vertices crosses the side boundary except the cut edge itself, so
    /// the rotation is free.
    fn color_simplified(
        &self,
        problem: &ComponentProblem,
        assigner: &dyn ColorAssigner,
        scratch: &mut DivisionScratch,
        simplification: &mpl_graph::Simplification,
        metrics: &mut ColorMetrics,
        cancel: Option<&crate::CancelToken>,
    ) -> Vec<u8> {
        use mpl_graph::SimplifyOp;
        let n = problem.vertex_count();
        let k = problem.k();
        metrics.hidden_vertices = simplification.hidden_count();
        metrics.kernel_vertices = simplification.kernel.len();
        metrics.simplify_rounds = simplification.rounds;
        let mut colors = vec![u8::MAX; n];

        // The kernel is itself at a simplification fixed point, so this
        // recursion takes the one-shot division path (blocks, GH-tree
        // pieces, rotation merging) exactly once.  An empty kernel skips
        // the engine entirely — simplification already solved the
        // component.
        if !simplification.kernel.is_empty() {
            let (sub, original) = problem.induced_without(
                &simplification.kernel,
                &simplification.cut_conflicts,
                &simplification.cut_stitches,
            );
            let (sub_colors, sub_metrics) = self.color_problem_in(&sub, assigner, scratch, cancel);
            metrics.division_time += sub_metrics.division_time;
            metrics.bnb_nodes += sub_metrics.bnb_nodes;
            metrics.hit_time_limit |= sub_metrics.hit_time_limit;
            metrics.bound_improvements += sub_metrics.bound_improvements;
            metrics.cancelled |= sub_metrics.cancelled;
            for (local, &global) in original.iter().enumerate() {
                colors[global] = sub_colors[local];
            }
        }

        // Edges cut but not yet recovered must not constrain the greedy
        // hide recovery; each Cut replay removes its edge from this set.
        let mut still_cut: std::collections::HashSet<(usize, usize, bool)> = simplification
            .cut_conflicts
            .iter()
            .map(|&(u, v)| (u, v, true))
            .chain(
                simplification
                    .cut_stitches
                    .iter()
                    .map(|&(u, v)| (u, v, false)),
            )
            .collect();
        let conflict_adj = problem.conflict_adjacency();
        let stitch_adj = problem.stitch_adjacency();
        let mut penalty = vec![0.0f64; k];
        for op in simplification.ops.iter().rev() {
            match op {
                SimplifyOp::Cut {
                    u,
                    v,
                    conflict,
                    side,
                } => {
                    still_cut.remove(&(*u.min(v), *u.max(v), *conflict));
                    let cu = colors[*u] as usize;
                    let cv = colors[*v] as usize;
                    debug_assert!(cu < k && cv < k, "cut endpoints colored before recovery");
                    let rotation = if *conflict {
                        // Any rotation except the one mapping cv onto cu;
                        // prefer the no-op.
                        if cv == cu {
                            1
                        } else {
                            0
                        }
                    } else {
                        // Align the stitch endpoints (no α cost).
                        (cu + k - cv) % k
                    };
                    if rotation != 0 {
                        for &w in side {
                            debug_assert_ne!(colors[w], u8::MAX, "side colored before recovery");
                            colors[w] = ((colors[w] as usize + rotation) % k) as u8;
                        }
                    }
                }
                SimplifyOp::Hide(v) => {
                    penalty.iter_mut().for_each(|slot| *slot = 0.0);
                    for &u in conflict_adj.neighbors(*v) {
                        if colors[u] == u8::MAX || still_cut.contains(&(u.min(*v), u.max(*v), true))
                        {
                            continue;
                        }
                        penalty[colors[u] as usize] += 1.0;
                    }
                    for &u in stitch_adj.neighbors(*v) {
                        if colors[u] == u8::MAX
                            || still_cut.contains(&(u.min(*v), u.max(*v), false))
                        {
                            continue;
                        }
                        for (color, slot) in penalty.iter_mut().enumerate() {
                            if color != colors[u] as usize {
                                *slot += problem.alpha();
                            }
                        }
                    }
                    colors[*v] = penalty
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                        .map(|(c, _)| c as u8)
                        .unwrap_or(0);
                }
            }
        }
        debug_assert!(
            colors.iter().all(|&c| c != u8::MAX),
            "every vertex is kernel or hidden"
        );
        colors
    }

    /// Runs the engine on the sub-problem induced by `piece` and writes the
    /// colors back (skipping nothing: pieces are disjoint by construction).
    fn color_piece(
        &self,
        problem: &ComponentProblem,
        piece: &[usize],
        assigner: &dyn ColorAssigner,
        colors: &mut [u8],
        metrics: &mut ColorMetrics,
        cancel: Option<&crate::CancelToken>,
    ) {
        if piece.is_empty() {
            return;
        }
        let (sub, original) = problem.induced(piece);
        let outcome = assigner.assign_with_stats_cancellable(&sub, cancel);
        metrics.bnb_nodes += outcome.bnb_nodes;
        metrics.hit_time_limit |= outcome.hit_time_limit;
        metrics.bound_improvements += outcome.bound_improvements;
        metrics.cancelled |= outcome.cancelled;
        for (local, &global) in original.iter().enumerate() {
            colors[global] = outcome.colors[local];
        }
    }
}

/// Work counters accumulated while coloring one component (the per-task
/// portion of [`ComponentStats`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ColorMetrics {
    /// Time spent inside graph division (peeling, biconnectivity, (K−1)-cut
    /// partition and rotation merging).
    pub division_time: Duration,
    /// Branch-and-bound nodes expanded by the exact engine.
    pub bnb_nodes: u64,
    /// Whether any piece's exact solve was truncated by its time limit.
    pub hit_time_limit: bool,
    /// Max-flow augmenting paths pushed by the (K−1)-cut division.
    pub augmenting_paths: u64,
    /// The certified `n · K` ceiling for `augmenting_paths`.
    pub augmenting_path_bound: u64,
    /// Scratch-buffer growth events (≈ heap allocations on the hot path).
    pub scratch_allocs: u64,
    /// Vertices hidden by iterated simplification (zero when the component
    /// took the one-shot division path).
    pub hidden_vertices: usize,
    /// Vertices left in the simplification kernel handed to the engine.
    pub kernel_vertices: usize,
    /// Simplification rounds that made progress before the fixed point.
    pub simplify_rounds: usize,
    /// Clique-expansion steps that strengthened the exact engine's lower
    /// bound past the vertex-disjoint clique cover.
    pub bound_improvements: u64,
    /// Whether a [`CancelToken`](crate::CancelToken) stopped an engine run
    /// on some piece of this component.
    pub cancelled: bool,
}

/// Extracts every component's [`ComponentProblem`] from the decomposition
/// graph in **one pass over the edge lists** (the seed code filtered the
/// full edge list once per component, an O(components · E) planning cost),
/// returning each with its local → global vertex mapping, in component
/// order.
fn component_problems(
    graph: &DecompositionGraph,
    components: Vec<Vec<usize>>,
    config: &DecomposerConfig,
) -> Vec<(ComponentProblem, Vec<usize>)> {
    let n = graph.vertex_count();
    let mut local = vec![usize::MAX; n];
    let mut component_of = vec![usize::MAX; n];
    let mut problems: Vec<ComponentProblem> = Vec::with_capacity(components.len());
    for (index, component) in components.iter().enumerate() {
        for (position, &v) in component.iter().enumerate() {
            debug_assert_eq!(local[v], usize::MAX, "components must be disjoint");
            local[v] = position;
            component_of[v] = index;
        }
        problems.push(ComponentProblem::new(
            component.len(),
            config.k,
            config.alpha,
        ));
    }
    for &(u, v) in graph.conflict_edges() {
        let component = component_of[u];
        if component != usize::MAX && component_of[v] == component {
            problems[component].add_conflict(local[u], local[v]);
        }
    }
    for &(u, v) in graph.stitch_edges() {
        let component = component_of[u];
        if component != usize::MAX && component_of[v] == component {
            problems[component].add_stitch(local[u], local[v]);
        }
    }
    for &(u, v) in graph.color_friendly_pairs() {
        let component = component_of[u];
        if component != usize::MAX && component_of[v] == component {
            problems[component].add_color_friendly(local[u], local[v]);
        }
    }
    problems.into_iter().zip(components).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColorAlgorithm, ConfigError, DivisionConfig, ThreadPoolExecutor};
    use mpl_layout::{gen, Technology};

    fn quad_config(algorithm: ColorAlgorithm) -> DecomposerConfig {
        DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm)
    }

    #[test]
    fn fig1_clique_is_clean_under_quadruple_patterning() {
        for algorithm in ColorAlgorithm::ALL {
            let layout = gen::fig1_contact_clique(&Technology::nm20());
            let result = Decomposer::new(quad_config(algorithm))
                .decompose(&layout)
                .expect("valid config");
            assert_eq!(result.conflicts(), 0, "{algorithm}");
            assert_eq!(result.stitches(), 0, "{algorithm}");
            assert_eq!(result.vertex_count(), 4);
            assert_eq!(result.k(), 4);
            assert_eq!(result.executor(), "serial");
        }
    }

    #[test]
    fn k5_cluster_forces_one_conflict_under_quadruple_patterning() {
        for algorithm in ColorAlgorithm::ALL {
            let layout = gen::k5_cluster_layout(&Technology::nm20());
            let result = Decomposer::new(quad_config(algorithm))
                .decompose(&layout)
                .expect("valid config");
            assert_eq!(result.conflicts(), 1, "{algorithm}");
        }
    }

    #[test]
    fn k5_cluster_is_clean_under_pentuple_patterning() {
        let layout = gen::k5_cluster_layout(&Technology::nm20());
        let config = DecomposerConfig::pentuple(Technology::nm20())
            .with_algorithm(ColorAlgorithm::SdpBacktrack);
        let result = Decomposer::new(config)
            .decompose(&layout)
            .expect("valid config");
        assert_eq!(result.conflicts(), 0);
        assert_eq!(result.k(), 5);
    }

    #[test]
    fn reported_cost_matches_recomputation() {
        let layout = gen::generate_row_layout(
            &gen::RowLayoutConfig::small("verify", 3),
            &Technology::nm20(),
        );
        for algorithm in [ColorAlgorithm::Linear, ColorAlgorithm::SdpGreedy] {
            let decomposer = Decomposer::new(quad_config(algorithm));
            let result = decomposer.decompose(&layout).expect("valid config");
            let graph = DecompositionGraph::build(
                &layout,
                &Technology::nm20(),
                4,
                &decomposer.config().stitch,
            );
            let recomputed = coloring_cost(&graph, result.colors(), 0.1);
            assert_eq!(recomputed.conflicts, result.conflicts());
            assert_eq!(recomputed.stitches, result.stitches());
        }
    }

    #[test]
    fn division_does_not_change_small_circuit_results_much() {
        // On a small layout the exact engine must reach the same optimum
        // with and without division (division is cost-preserving).
        let layout =
            gen::generate_row_layout(&gen::RowLayoutConfig::small("div", 5), &Technology::nm20());
        let with_division = Decomposer::new(quad_config(ColorAlgorithm::Ilp))
            .decompose(&layout)
            .expect("valid config");
        let without_division =
            Decomposer::new(quad_config(ColorAlgorithm::Ilp).with_division(DivisionConfig::none()))
                .decompose(&layout)
                .expect("valid config");
        assert_eq!(with_division.conflicts(), without_division.conflicts());
    }

    #[test]
    fn engine_quality_ordering_holds_on_the_small_benchmark() {
        // The generated small layout embeds at least one K5 cluster (plus
        // whatever native conflicts the dense routing creates), so the exact
        // engine reports a non-zero conflict count; the heuristics may not
        // beat it and SDP+Backtrack stays within a small gap of the optimum,
        // mirroring the quality ordering of the paper's Table 1.
        let layout = gen::generate_row_layout(
            &gen::RowLayoutConfig::small("agree", 9),
            &Technology::nm20(),
        );
        let exact = Decomposer::new(quad_config(ColorAlgorithm::Ilp))
            .decompose(&layout)
            .expect("valid config");
        let backtrack = Decomposer::new(quad_config(ColorAlgorithm::SdpBacktrack))
            .decompose(&layout)
            .expect("valid config");
        let linear = Decomposer::new(quad_config(ColorAlgorithm::Linear))
            .decompose(&layout)
            .expect("valid config");
        assert!(exact.conflicts() >= 1);
        assert!(backtrack.conflicts() >= exact.conflicts());
        assert!(backtrack.conflicts() <= exact.conflicts() + 2);
        assert!(linear.conflicts() >= exact.conflicts());
    }

    #[test]
    fn empty_layout_decomposes_trivially() {
        let layout = Layout::builder("empty").build();
        let result = Decomposer::new(quad_config(ColorAlgorithm::Linear))
            .decompose(&layout)
            .expect("an empty layout is not an error");
        assert_eq!(result.vertex_count(), 0);
        assert_eq!(result.conflicts(), 0);
        assert_eq!(result.stitches(), 0);
        assert_eq!(result.layout_name(), "empty");
        assert_eq!(result.algorithm(), "Linear");
        assert_eq!(result.component_count(), 0);
        assert!(result.mask_layouts().iter().all(|mask| mask.is_empty()));
    }

    #[test]
    fn timings_are_populated() {
        let layout = gen::fig1_contact_clique(&Technology::nm20());
        let result = Decomposer::new(quad_config(ColorAlgorithm::Linear))
            .decompose(&layout)
            .expect("valid config");
        // Durations are always non-negative; just ensure the accessors work
        // and the graph statistics are plausible.
        assert!(result.graph_time() >= Duration::ZERO);
        assert!(result.color_time() >= Duration::ZERO);
        assert_eq!(result.conflict_edge_count(), 6);
        assert_eq!(result.stitch_edge_count(), 0);
        assert!(result.cost() >= 0.0);
    }

    #[test]
    fn invalid_mask_count_is_a_typed_error() {
        let layout = gen::fig1_contact_clique(&Technology::nm20());
        for k in [0usize, 1, 300] {
            let config = DecomposerConfig::k_patterning(k, Technology::nm20());
            let error = Decomposer::new(config).decompose(&layout).unwrap_err();
            assert_eq!(error, DecomposeError::Config(ConfigError::MaskCount { k }));
        }
    }

    #[test]
    fn invalid_alpha_is_a_typed_error() {
        let layout = gen::fig1_contact_clique(&Technology::nm20());
        let config = DecomposerConfig::quadruple(Technology::nm20()).with_alpha(-1.0);
        let error = Decomposer::new(config).plan(&layout).unwrap_err();
        assert_eq!(
            error,
            DecomposeError::Config(ConfigError::Alpha { alpha: -1.0 })
        );
    }

    #[test]
    fn degenerate_shapes_are_a_typed_error() {
        use mpl_geometry::Rect;
        let mut builder = Layout::builder("degenerate");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        builder.add_rect(Rect::new(Nm(100), Nm(0), Nm(100), Nm(20))); // zero width
        let layout = builder.build();
        let error = Decomposer::new(quad_config(ColorAlgorithm::Linear))
            .decompose(&layout)
            .unwrap_err();
        assert_eq!(error, DecomposeError::DegenerateShape { shape: 1 });
    }

    #[test]
    fn plan_exposes_component_tasks_with_vertex_maps() {
        use mpl_geometry::Rect;
        let mut builder = Layout::builder("two-islands");
        builder.add_contact(Nm(0), Nm(0), Nm(20));
        builder.add_contact(Nm(40), Nm(0), Nm(20));
        builder.add_rect(Rect::new(Nm(1000), Nm(0), Nm(1020), Nm(20)));
        let layout = builder.build();
        let plan = Decomposer::new(quad_config(ColorAlgorithm::Linear))
            .plan(&layout)
            .expect("valid config");
        assert_eq!(plan.layout_name(), "two-islands");
        assert_eq!(plan.tasks().len(), 2);
        assert_eq!(plan.tasks()[0].to_global(), &[0, 1]);
        assert_eq!(plan.tasks()[1].to_global(), &[2]);
        assert_eq!(plan.tasks()[0].problem().conflict_edges(), &[(0, 1)]);
        // Every graph vertex is covered exactly once.
        let mut covered: Vec<usize> = plan
            .tasks()
            .iter()
            .flat_map(|t| t.to_global().iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn execute_matches_the_convenience_wrapper_and_reports_components() {
        let layout = gen::generate_row_layout(
            &gen::RowLayoutConfig::small("staged", 5),
            &Technology::nm20(),
        );
        let decomposer = Decomposer::new(quad_config(ColorAlgorithm::Linear));
        let plan = decomposer.plan(&layout).expect("valid config");
        let serial = plan.execute(&SerialExecutor);
        let pooled = plan.execute(&ThreadPoolExecutor::new(4).expect("non-zero threads"));
        let wrapper = decomposer.decompose(&layout).expect("valid config");
        assert_eq!(serial.colors(), wrapper.colors());
        assert_eq!(serial.colors(), pooled.colors());
        assert_eq!(pooled.executor(), "threads:4");
        assert_eq!(serial.component_count(), plan.tasks().len());
        // Component stats sum to the totals.
        let sum_conflicts: usize = serial.component_stats().iter().map(|s| s.conflicts).sum();
        let sum_vertices: usize = serial
            .component_stats()
            .iter()
            .map(|s| s.vertex_count)
            .sum();
        assert_eq!(sum_conflicts, serial.conflicts());
        assert_eq!(sum_vertices, serial.vertex_count());
    }

    #[test]
    fn mask_layouts_partition_the_geometry() {
        let layout = gen::fig1_contact_clique(&Technology::nm20());
        let result = Decomposer::new(quad_config(ColorAlgorithm::Ilp))
            .decompose(&layout)
            .expect("valid config");
        let masks = result.mask_layouts();
        assert_eq!(masks.len(), 4);
        let total: usize = masks.iter().map(|mask| mask.shape_count()).sum();
        assert_eq!(total, result.vertex_count());
        // The clique needs all four masks, one contact each.
        assert!(masks.iter().all(|mask| mask.shape_count() == 1));
        assert!(masks[0].name().starts_with("fig1"));
        assert!(masks[3].name().ends_with(".mask3"));
    }

    /// Colors local vertices `0, 1, 2, …` in ascending order, wrapping at K
    /// — a deterministic stand-in engine so block colorings (and therefore
    /// anchor targets) are fully predictable in reconciliation tests.
    struct IdentityAssigner;

    impl ColorAssigner for IdentityAssigner {
        fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
            (0..problem.vertex_count())
                .map(|v| (v % problem.k()) as u8)
                .collect()
        }

        fn name(&self) -> &'static str {
            "identity"
        }
    }

    /// Reports fixed fake work counters per piece, to audit the metric
    /// aggregation of `color_problem_metered`.
    struct CountingAssigner;

    impl ColorAssigner for CountingAssigner {
        fn assign(&self, problem: &ComponentProblem) -> Vec<u8> {
            vec![0; problem.vertex_count()]
        }

        fn assign_with_stats(&self, problem: &ComponentProblem) -> crate::assign::AssignOutcome {
            crate::assign::AssignOutcome {
                colors: vec![0; problem.vertex_count()],
                bnb_nodes: 7,
                hit_time_limit: true,
                bound_improvements: 3,
                cancelled: false,
            }
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn engine_work_counters_flow_into_color_metrics() {
        // A K5: peeling keeps it whole, so the engine colors exactly one
        // piece and its counters surface unchanged.
        let mut problem = ComponentProblem::new(5, 4, 0.1);
        for i in 0..5 {
            for j in (i + 1)..5 {
                problem.add_conflict(i, j);
            }
        }
        let decomposer = Decomposer::new(quad_config(ColorAlgorithm::Linear));
        let (colors, metrics) = decomposer.color_problem_metered(&problem, &CountingAssigner);
        assert_eq!(colors.len(), 5);
        assert_eq!(metrics.bnb_nodes, 7);
        assert_eq!(metrics.bound_improvements, 3);
        assert!(metrics.hit_time_limit);
        // A K5 is at the simplification fixed point already: nothing hides
        // (every degree is 4 ≥ K) and a clique has no bridges, so the
        // one-shot path ran and the simplify counters stay zero.
        assert_eq!(metrics.hidden_vertices, 0);
        assert_eq!(metrics.kernel_vertices, 0);
        assert_eq!(metrics.simplify_rounds, 0);
        // The K5 is 4-edge-connected... in fact every pair has min-cut 4 ≥ K
        // = 4, so division ran real capped max-flows under the n·K bound.
        assert!(metrics.augmenting_paths > 0);
        assert!(metrics.augmenting_paths <= metrics.augmenting_path_bound);
    }

    #[test]
    fn component_stats_carry_the_work_counters() {
        // The dense strips keep exact-engine work inside the layout, so the
        // per-component stats must report branch-and-bound nodes and the
        // division counters, with every augmenting-path count under its
        // certified ceiling.
        let layout = gen::generate_row_layout(
            &gen::RowLayoutConfig {
                dense_strips: 2,
                ..gen::RowLayoutConfig::small("counters", 13)
            },
            &Technology::nm20(),
        );
        let result = Decomposer::new(quad_config(ColorAlgorithm::Ilp))
            .decompose(&layout)
            .expect("valid config");
        let stats = result.component_stats();
        assert!(stats.iter().map(|s| s.bnb_nodes).sum::<u64>() > 0);
        for s in stats {
            assert!(
                s.augmenting_paths <= s.augmenting_path_bound,
                "component {}: {} paths over bound {}",
                s.index,
                s.augmenting_paths,
                s.augmenting_path_bound
            );
            assert!(!s.hit_time_limit, "component {}", s.index);
        }
    }

    /// Panics if ever invoked — proves a code path skipped the engine.
    struct PanickingAssigner;

    impl ColorAssigner for PanickingAssigner {
        fn assign(&self, _problem: &ComponentProblem) -> Vec<u8> {
            panic!("the engine must not be invoked on an empty kernel");
        }

        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    /// A path graph: every vertex has conflict degree ≤ 2 < 4, so iterated
    /// simplification hides everything and the kernel is empty.
    fn path_problem(n: usize) -> ComponentProblem {
        let mut problem = ComponentProblem::new(n, 4, 0.1);
        for v in 0..n.saturating_sub(1) {
            problem.add_conflict(v, v + 1);
        }
        problem
    }

    #[test]
    fn empty_kernel_skips_the_engine_entirely() {
        // The guard itself, independent of any engine's behaviour on a
        // 0-vertex problem: the assigner is never called.
        let decomposer = Decomposer::new(quad_config(ColorAlgorithm::Linear));
        let (colors, metrics) =
            decomposer.color_problem_metered(&path_problem(6), &PanickingAssigner);
        let (conflicts, _, _) = path_problem(6).evaluate(&colors);
        assert_eq!(conflicts, 0);
        assert_eq!(metrics.hidden_vertices, 6);
        assert_eq!(metrics.kernel_vertices, 0);
        assert_eq!(metrics.bnb_nodes, 0);
        assert!(metrics.simplify_rounds >= 1);
    }

    #[test]
    fn empty_kernel_is_clean_under_every_engine() {
        // Satellite guard: each real engine's pipeline entry point handles
        // the everything-hidden case (no 0-vertex problem reaches it).
        let problem = path_problem(7);
        for algorithm in ColorAlgorithm::ALL {
            let decomposer = Decomposer::new(quad_config(algorithm));
            let assigner = assigner_for(algorithm, decomposer.config());
            let (colors, metrics) = decomposer.color_problem_metered(&problem, assigner.as_ref());
            let (conflicts, _, _) = problem.evaluate(&colors);
            assert_eq!(conflicts, 0, "{algorithm}");
            assert_eq!(metrics.kernel_vertices, 0, "{algorithm}");
            assert_eq!(metrics.bnb_nodes, 0, "{algorithm}: engine was invoked");
        }
    }

    #[test]
    fn simplified_bridge_recovery_is_conflict_free() {
        // Two K5s joined by a bridge: the cut splits the kernel, the exact
        // engine colors each K5 (one forced conflict each), and the side
        // rotation satisfies the bridge for free — total conflicts 2, the
        // same optimum as the unsimplified whole.
        let mut problem = ComponentProblem::new(10, 4, 0.1);
        for clique in [[0usize, 1, 2, 3, 4], [5, 6, 7, 8, 9]] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    problem.add_conflict(clique[i], clique[j]);
                }
            }
        }
        problem.add_conflict(4, 5);
        let decomposer = Decomposer::new(quad_config(ColorAlgorithm::Ilp));
        let assigner = assigner_for(ColorAlgorithm::Ilp, decomposer.config());
        let (colors, metrics) = decomposer.color_problem_metered(&problem, assigner.as_ref());
        let (conflicts, _, _) = problem.evaluate(&colors);
        assert_eq!(conflicts, 2);
        assert_eq!(metrics.kernel_vertices, 10);
        assert_eq!(metrics.hidden_vertices, 0);
        // Crucially the bridge itself is clean: the rotation satisfied it.
        assert_ne!(colors[4], colors[5]);
    }

    #[test]
    fn simplified_path_matches_unsimplified_quality() {
        // K5 with pendant paths: simplification hides the fringe and colors
        // only the K5; the result must match the legacy path's conflict
        // count (the K5's forced single conflict) with zero fringe damage.
        let mut problem = ComponentProblem::new(9, 4, 0.1);
        for i in 0..5 {
            for j in (i + 1)..5 {
                problem.add_conflict(i, j);
            }
        }
        for (u, v) in [(4, 5), (5, 6), (0, 7), (7, 8)] {
            problem.add_conflict(u, v);
        }
        let on = Decomposer::new(quad_config(ColorAlgorithm::Ilp));
        let off = Decomposer::new(
            quad_config(ColorAlgorithm::Ilp).with_division(DivisionConfig {
                iterated_simplify: false,
                ..DivisionConfig::default()
            }),
        );
        let assigner = assigner_for(ColorAlgorithm::Ilp, on.config());
        let (colors_on, metrics_on) = on.color_problem_metered(&problem, assigner.as_ref());
        let (colors_off, _) = off.color_problem_metered(&problem, assigner.as_ref());
        let (conflicts_on, _, _) = problem.evaluate(&colors_on);
        let (conflicts_off, _, _) = problem.evaluate(&colors_off);
        assert_eq!(conflicts_on, 1);
        assert_eq!(conflicts_off, 1);
        assert_eq!(metrics_on.hidden_vertices, 4);
        assert_eq!(metrics_on.kernel_vertices, 5);
    }

    #[test]
    fn chain_with_two_articulation_anchors_reconciles_cleanly() {
        // Regression test for multi-anchor reconciliation: a middle K4 block
        // whose two articulation vertices are colored by *other* blocks
        // first.  The biconnected-component DFS starts at vertex 0, so
        // putting vertex 0 in the middle K4 makes both pendant K4s pop (and
        // get colored) before the middle one, which then has two previously
        // colored anchors.  Block vertex lists are sorted, so with the
        // identity engine the anchor targets are predictable: vertex 1 is
        // first in its pendant block (target color 0) and vertex 9 is second
        // in its pendant block (target color 1).  Reconciling only the first
        // anchor (the old behaviour) leaves vertex 9 on color 3 and costs a
        // conflict inside the right pendant; the permutation matching *both*
        // anchors reaches the optimum of zero conflicts.
        let mut problem = ComponentProblem::new(12, 4, 0.1);
        let middle = [0usize, 1, 8, 9];
        let left = [1usize, 4, 5, 6]; // articulation vertex 1, local id 0
        let right = [2usize, 9, 10, 11]; // articulation vertex 9, local id 1
        for clique in [&middle, &left, &right] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    problem.add_conflict(clique[i], clique[j]);
                }
            }
        }
        // Disable peeling (every K4 vertex has conflict degree 3 < K and
        // would peel away) so the biconnected reconciliation path runs.
        let division = DivisionConfig {
            independent_components: true,
            low_degree_removal: false,
            biconnected_split: true,
            ghtree_cut_removal: false,
            iterated_simplify: false,
        };
        let config = quad_config(ColorAlgorithm::Linear).with_division(division);
        let decomposer = Decomposer::new(config);
        let colors = decomposer.color_problem(&problem, &IdentityAssigner);
        let (conflicts, _, _) = problem.evaluate(&colors);
        assert_eq!(conflicts, 0, "colors: {colors:?}");
        // Both anchors kept the colors their pendant blocks assumed.
        assert_eq!(colors[1], 0);
        assert_eq!(colors[9], 1);
    }
}
