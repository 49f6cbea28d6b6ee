//! Partitioned runs: color pieces of a component independently, then merge
//! them back by color permutation.
//!
//! A partitioner — spatial windows in `mpl-tile`, cell instances in
//! `mpl-hier` — describes each submitted layout as a [`Partition`]: the
//! component tasks it leaves whole, and for every other component the
//! [`Piece`]s it is colored in.  [`run_partitioned`] holds the rest of the
//! divide → color → merge pipeline, once for every partitioner:
//!
//! 1. **Submit** — each layout's resident tasks (as one batch) and every
//!    piece (as the sub-problem its vertices induce) go to one inner
//!    [`DecompositionSession`], so the executor's queue, the memo cache and
//!    the outer request's cancel token cover all of them.
//! 2. **Scatter** — resident colors and statistics land in their layout
//!    unchanged, so resident components are bit-identical to an
//!    unpartitioned run.
//! 3. **Reconcile** — each split component's pieces are fixed in piece
//!    order.  Every piece is rotated by the color permutation that best
//!    agrees with the vertices already fixed, which is free because
//!    permutations keep every conflict and stitch inside the piece; a
//!    bounded, strictly improving greedy repair then recolors vertices on
//!    seams between pieces.
//! 4. **Assemble** — one [`DecompositionResult`] per layout over its full
//!    graph, so the conflict count always agrees with
//!    [`verify_spacing`](crate::verify_spacing).
//!
//! Reconciliation is a pure function of the piece colorings, so the merged
//! result inherits the batch engine's schedule independence.

use crate::division::best_color_permutation;
use crate::{
    CancelToken, ComponentProblem, ComponentStats, Decomposer, DecompositionObserver,
    DecompositionPlan, DecompositionResult, DecompositionSession, Executor, LayoutId, MemoCache,
    ProgressSink,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on greedy repair sweeps over the seam vertices.  Each sweep
/// only applies strictly improving recolorings, so the loop usually stops
/// after one or two sweeps; the cap keeps the worst case obvious.
const MAX_REPAIR_SWEEPS: usize = 8;

/// One piece of a split component, in component-local vertex ids.
#[derive(Debug)]
pub struct Piece {
    /// Every vertex the piece is colored over, ascending.
    pub locals: Vec<usize>,
    /// The vertices whose colors the merge keeps from this piece: a subset
    /// of `locals`, ascending.  Every vertex of the component is owned by
    /// exactly one piece.
    pub owned: Vec<usize>,
}

/// A component colored piece by piece.
#[derive(Debug)]
pub struct SplitComponent {
    /// Index of the component's task in its plan.
    pub task_index: usize,
    /// The pieces, in the order the reconciler fixes them.
    pub pieces: Vec<Piece>,
}

/// How a partitioner divides one layout's plan.
#[derive(Debug, Default)]
pub struct Partition {
    /// Task indices colored whole, exactly as an unpartitioned run would.
    pub resident: Vec<usize>,
    /// Components colored piece by piece and reconciled.
    pub split: Vec<SplitComponent>,
}

/// What reconciliation did to the split components of one layout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Pieces rotated by a non-identity color permutation.
    pub permuted_pieces: usize,
    /// Strictly improving recolorings applied by the repair pass.
    pub recolored_vertices: usize,
    /// Conflicts between vertices owned by different pieces, right after
    /// the permutation pass.
    pub cross_conflicts_before: usize,
    /// The same count after repair (what the final coloring pays).
    pub cross_conflicts_after: usize,
}

/// Turns inner sub-plan completions into per-layout progress ticks.
struct PieceObserver<'a> {
    progress: &'a dyn ProgressSink,
    /// Inner submission → (outer id, outer slot).
    map: Vec<(LayoutId, usize)>,
    /// Inner submissions per outer slot.
    totals: Vec<usize>,
    done: Vec<AtomicUsize>,
}

impl DecompositionObserver for PieceObserver<'_> {
    fn execution_finished(&self, inner: LayoutId, _result: &DecompositionResult) {
        let (outer, slot) = self.map[inner.index()];
        let done = self.done[slot].fetch_add(1, Ordering::Relaxed) + 1;
        self.progress.component_done(outer, done, self.totals[slot]);
    }
}

/// Runs the session's batch with each layout divided as `partitions` says
/// (one partition per submitted plan, in submission order) and returns one
/// merged result per layout, in submission order.
///
/// Every inner sub-plan runs on `executor` through one inner session that
/// memoizes through `memo`, when given.  `progress` hears one
/// [`component_done`](ProgressSink::component_done) per finished inner
/// sub-plan — a layout's resident batch or one piece — counted against the
/// layout's total of those.
///
/// # Panics
///
/// When `partitions` does not hold one entry per submitted plan, or a
/// partition names a task its plan does not have.
pub fn run_partitioned(
    session: &DecompositionSession,
    executor: &dyn Executor,
    progress: &dyn ProgressSink,
    memo: Option<Arc<MemoCache>>,
    partitions: &[Partition],
) -> Vec<(LayoutId, DecompositionResult, ReconcileStats)> {
    let plans: Vec<(LayoutId, &DecompositionPlan)> = session.plans().collect();
    assert_eq!(
        plans.len(),
        partitions.len(),
        "one partition per submitted plan"
    );

    let mut inner = DecompositionSession::new();
    inner.set_memo(memo);
    // Inner submission order: (outer slot, the split piece it colors, or
    // `None` for the slot's resident batch).
    let mut submissions: Vec<(usize, Option<(usize, usize)>)> = Vec::new();
    for (slot, (&(outer, plan), partition)) in plans.iter().zip(partitions).enumerate() {
        // The outer request's cancel token covers every sub-plan carved out
        // of it: resident batches and pieces alike skip (or stop
        // mid-search) once it fires.
        let cancel = session.cancel_token(outer);
        if !partition.resident.is_empty() {
            let subproblems = partition
                .resident
                .iter()
                .map(|&index| {
                    let task = &plan.tasks()[index];
                    (task.problem().clone(), task.to_global().to_vec())
                })
                .collect();
            let name = plan.layout_name().to_string();
            submit_inner(&mut inner, plan, cancel, name, subproblems);
            submissions.push((slot, None));
        }
        for (split, component) in partition.split.iter().enumerate() {
            let task = &plan.tasks()[component.task_index];
            for (index, piece) in component.pieces.iter().enumerate() {
                let (problem, original) = task.problem().induced(&piece.locals);
                debug_assert_eq!(original, piece.locals);
                let to_global = piece
                    .locals
                    .iter()
                    .map(|&local| task.to_global()[local])
                    .collect();
                let name = format!("{}/c{}p{index}", plan.layout_name(), component.task_index);
                submit_inner(&mut inner, plan, cancel, name, vec![(problem, to_global)]);
                submissions.push((slot, Some((split, index))));
            }
        }
    }

    let mut totals = vec![0usize; plans.len()];
    for &(slot, _) in &submissions {
        totals[slot] += 1;
    }
    let observer = PieceObserver {
        progress,
        map: submissions
            .iter()
            .map(|&(slot, _)| (plans[slot].0, slot))
            .collect(),
        done: totals.iter().map(|_| AtomicUsize::new(0)).collect(),
        totals,
    };
    let inner_results = inner.run_observed(executor, &observer);

    // Scatter: resident colors and stats go straight to their layout;
    // piece colors and stats wait for their component's reconciliation.
    let mut assemblies: Vec<Assembly> = plans
        .iter()
        .zip(partitions)
        .map(|(&(_, plan), partition)| Assembly {
            colors: vec![0u8; plan.graph().vertex_count()],
            components: vec![None; plan.tasks().len()],
            piece_colors: vec![Vec::new(); partition.split.len()],
            piece_stats: vec![Vec::new(); partition.split.len()],
            color_time: Duration::ZERO,
        })
        .collect();
    for (&(slot, piece), (_, result)) in submissions.iter().zip(inner_results) {
        let plan = plans[slot].1;
        let assembly = &mut assemblies[slot];
        assembly.color_time = assembly.color_time.max(result.color_time());
        match piece {
            None => {
                for (position, &index) in partitions[slot].resident.iter().enumerate() {
                    for &global in plan.tasks()[index].to_global() {
                        assembly.colors[global] = result.colors()[global];
                    }
                    let mut stats = result.component_stats()[position].clone();
                    stats.index = index;
                    assembly.components[index] = Some(stats);
                }
            }
            Some((split, index)) => {
                let component = &partitions[slot].split[split];
                let task = &plan.tasks()[component.task_index];
                let colors = component.pieces[index]
                    .locals
                    .iter()
                    .map(|&local| result.colors()[task.to_global()[local]])
                    .collect();
                assembly.piece_colors[split].push(colors);
                assembly.piece_stats[split].push(result.component_stats()[0].clone());
            }
        }
    }

    // Reconcile every split component and assemble one result per layout.
    let memo_attached = inner.memo().is_some();
    plans
        .iter()
        .zip(partitions)
        .zip(assemblies)
        .map(|((&(id, plan), partition), mut assembly)| {
            let mut reconciled = ReconcileStats::default();
            for (split, component) in partition.split.iter().enumerate() {
                let task = &plan.tasks()[component.task_index];
                let problem = task.problem();
                let piece_colors = &assembly.piece_colors[split];
                let (merged, outcome) = reconcile(problem, &component.pieces, piece_colors);
                for (local, &global) in task.to_global().iter().enumerate() {
                    assembly.colors[global] = merged[local];
                }
                reconciled.permuted_pieces += outcome.permuted_pieces;
                reconciled.recolored_vertices += outcome.recolored_vertices;
                reconciled.cross_conflicts_before += outcome.cross_conflicts_before;
                reconciled.cross_conflicts_after += outcome.cross_conflicts_after;
                // Quality is re-evaluated on the merged coloring; work is
                // summed over the pieces.
                let pieces = &assembly.piece_stats[split];
                let mut stats = ComponentStats::evaluated(component.task_index, problem, &merged);
                for piece in pieces {
                    stats.add_work(piece);
                }
                stats.memo_hit =
                    memo_attached.then(|| pieces.iter().all(|piece| piece.memo_hit == Some(true)));
                assembly.components[component.task_index] = Some(stats);
            }
            let components = assembly
                .components
                .into_iter()
                .map(|stats| stats.expect("every task is resident or split"))
                .collect();
            let result = DecompositionResult::assemble(
                plan,
                executor.name(),
                assembly.colors,
                components,
                assembly.color_time,
            );
            (id, result, reconciled)
        })
        .collect()
}

/// Per-layout scratch while scattering inner results back.
struct Assembly {
    colors: Vec<u8>,
    components: Vec<Option<ComponentStats>>,
    /// `piece_colors[split][piece]`: the piece's colors, indexed like its
    /// `locals`.
    piece_colors: Vec<Vec<Vec<u8>>>,
    /// `piece_stats[split][piece]`: the piece's inner statistics.
    piece_stats: Vec<Vec<ComponentStats>>,
    color_time: Duration,
}

/// Submits one inner sub-plan of `plan` under the outer request's token.
fn submit_inner(
    inner: &mut DecompositionSession,
    plan: &DecompositionPlan,
    cancel: Option<&CancelToken>,
    name: String,
    subproblems: Vec<(ComponentProblem, Vec<usize>)>,
) {
    let id = inner.submit(DecompositionPlan::for_subproblems(
        Decomposer::new(plan.config().clone()),
        name,
        Arc::clone(plan.graph_arc()),
        subproblems,
    ));
    inner.set_cancel(id, cancel.cloned());
}

/// Merges `piece_colors` (one coloring per piece, each indexed like the
/// piece's `locals`) into one coloring of `problem`.
///
/// Pieces are fixed in order.  Each is rotated by the color permutation π
/// maximising `Σ weight[c][π(c)]`, where `weight[c][t]` gains
///
/// - +1 for each piece vertex of color `c` already fixed to `t` by an
///   earlier piece (an *anchor*, as in a tile halo), and
/// - α or −1 for each stitch or conflict edge from an owned vertex of
///   color `c` to a vertex outside the piece already fixed to `t`.
///
/// A piece with a single anchor and no such edge takes the two-color swap
/// that matches its anchor exactly.  Then a bounded greedy repair recolors
/// vertices whose edges cross between owners.
pub(crate) fn reconcile(
    problem: &ComponentProblem,
    pieces: &[Piece],
    piece_colors: &[Vec<u8>],
) -> (Vec<u8>, ReconcileStats) {
    debug_assert_eq!(pieces.len(), piece_colors.len());
    let n = problem.vertex_count();
    let k = problem.k();
    let conflicts = problem.conflict_adjacency();
    let stitches = problem.stitch_adjacency();
    let mut owner = vec![usize::MAX; n];
    for (index, piece) in pieces.iter().enumerate() {
        for &local in &piece.owned {
            debug_assert_eq!(owner[local], usize::MAX, "vertex {local} owned twice");
            owner[local] = index;
        }
    }
    debug_assert!(owner.iter().all(|&index| index != usize::MAX));

    let mut stats = ReconcileStats::default();
    let mut merged = vec![u8::MAX; n];
    let mut fixed = vec![false; n];
    let mut in_piece = vec![false; n];
    let mut colors = vec![0u8; n];
    for (piece, coloring) in pieces.iter().zip(piece_colors) {
        debug_assert_eq!(piece.locals.len(), coloring.len());
        for (&local, &color) in piece.locals.iter().zip(coloring) {
            in_piece[local] = true;
            colors[local] = color;
        }
        let mut weight = vec![0.0f64; k * k];
        let anchors: Vec<usize> = piece
            .locals
            .iter()
            .copied()
            .filter(|&local| fixed[local])
            .collect();
        for &anchor in &anchors {
            weight[colors[anchor] as usize * k + merged[anchor] as usize] += 1.0;
        }
        let mut crossed = false;
        for &local in &piece.owned {
            let row = colors[local] as usize * k;
            for (neighbours, gain) in [(conflicts, -1.0), (stitches, problem.alpha())] {
                for &u in neighbours.neighbors(local) {
                    if fixed[u] && !in_piece[u] {
                        weight[row + merged[u] as usize] += gain;
                        crossed = true;
                    }
                }
            }
        }
        let permutation = match anchors[..] {
            [anchor] if !crossed => {
                let (from, to) = (colors[anchor], merged[anchor]);
                let mut swap: Vec<u8> = (0..k as u8).collect();
                swap.swap(from as usize, to as usize);
                swap
            }
            _ => best_color_permutation(&weight, k),
        };
        if permutation
            .iter()
            .enumerate()
            .any(|(c, &t)| c != t as usize)
        {
            stats.permuted_pieces += 1;
        }
        for &local in &piece.owned {
            merged[local] = permutation[colors[local] as usize];
            fixed[local] = true;
        }
        for &local in &piece.locals {
            in_piece[local] = false;
        }
    }

    stats.cross_conflicts_before = cross_conflicts(problem, &owner, &merged);
    stats.recolored_vertices = repair_boundary(problem, &owner, &mut merged);
    stats.cross_conflicts_after = cross_conflicts(problem, &owner, &merged);
    (merged, stats)
}

/// Conflict edges between vertices of different owners that ended up on
/// the same mask.
fn cross_conflicts(problem: &ComponentProblem, owner: &[usize], colors: &[u8]) -> usize {
    problem
        .conflict_edges()
        .iter()
        .filter(|&&(u, v)| owner[u] != owner[v] && colors[u] == colors[v])
        .count()
}

/// Greedy local repair of the seam: re-colors a vertex with a neighbour of
/// another owner only when that strictly lowers its incident cost, sweeping
/// the seam in ascending vertex order until a sweep changes nothing.
///
/// Returns the number of recolorings applied.
fn repair_boundary(problem: &ComponentProblem, owner: &[usize], colors: &mut [u8]) -> usize {
    let conflicts = problem.conflict_adjacency();
    let stitches = problem.stitch_adjacency();
    let seam: Vec<usize> = (0..problem.vertex_count())
        .filter(|&v| {
            conflicts
                .neighbors(v)
                .iter()
                .chain(stitches.neighbors(v))
                .any(|&u| owner[u] != owner[v])
        })
        .collect();

    // A conflict neighbour on the same mask costs 1, a stitch neighbour on
    // a different mask costs α.
    let incident_cost = |v: usize, color: u8, colors: &[u8]| -> f64 {
        let same = conflicts
            .neighbors(v)
            .iter()
            .filter(|&&u| colors[u] == color)
            .count();
        let split = stitches
            .neighbors(v)
            .iter()
            .filter(|&&u| colors[u] != color)
            .count();
        same as f64 + problem.alpha() * split as f64
    };

    let k = problem.k() as u8;
    let mut recolored = 0;
    for _ in 0..MAX_REPAIR_SWEEPS {
        let mut changed = false;
        for &v in &seam {
            let current = incident_cost(v, colors[v], colors);
            let best = (0..k)
                .filter(|&color| color != colors[v])
                .map(|color| (color, incident_cost(v, color, colors)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            if let Some((color, cost)) = best {
                if cost < current {
                    colors[v] = color;
                    recolored += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    recolored
}
