//! Sharding one oversized component into halo-expanded tile pieces.
//!
//! A component task whose vertices all share one owner window is *resident*
//! and never sharded — it flows through the ordinary batch engine, which is
//! what makes tiled runs bit-identical to untiled ones on layouts where
//! every component fits a tile.  A component spanning several windows is a
//! *giant*: each occupied window becomes one [`Piece`] holding the
//! window's owned vertices plus two kinds of context,
//!
//! - the **geometric halo**: every vertex whose polygon bounding box lies
//!   within the halo distance of the window's core rectangle, and
//! - the **edge closure**: every direct conflict/stitch neighbour of an
//!   owned vertex, which guarantees each edge of the component is fully
//!   visible to the piece owning either endpoint even when a long shape's
//!   geometry overhangs its owner window.

use crate::grid::TileGrid;
use mpl_core::{ComponentTask, DecompositionGraph, Piece, SplitComponent, VertexId};
use mpl_geometry::Nm;
use std::collections::BTreeMap;

/// The owner window of every vertex of `task`, via its polygon-bbox center.
pub(crate) fn owners(
    grid: &TileGrid,
    graph: &DecompositionGraph,
    task: &ComponentTask,
) -> Vec<(usize, usize)> {
    task.to_global()
        .iter()
        .map(|&global| grid.tile_of(graph.rect(VertexId(global)).center()))
        .collect()
}

/// Shards `task` into one piece per occupied window, in row-major `(iy,
/// ix)` order — the deterministic order the reconciler fixes them in.
///
/// The caller has already established that the task spans several windows
/// (`owner` is not constant).
pub(crate) fn shard_giant(
    grid: &TileGrid,
    graph: &DecompositionGraph,
    task: &ComponentTask,
    owner: &[(usize, usize)],
    halo: Nm,
) -> SplitComponent {
    let problem = task.problem();
    let n = problem.vertex_count();

    // Occupied windows in row-major order, each with its owned vertices
    // (ascending, because locals are visited in order).
    let mut owned: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (local, &(ix, iy)) in owner.iter().enumerate() {
        owned.entry((iy, ix)).or_default().push(local);
    }

    let bboxes: Vec<mpl_geometry::Rect> = task
        .to_global()
        .iter()
        .map(|&global| graph.rect(VertexId(global)))
        .collect();

    let mut in_piece = vec![false; n];
    let pieces = owned
        .into_iter()
        .map(|((iy, ix), owned)| {
            let core = grid.core(ix, iy);
            in_piece.iter_mut().for_each(|flag| *flag = false);
            for &local in &owned {
                in_piece[local] = true;
                // Edge closure: neighbours of owned vertices, even when the
                // geometric halo misses their (far-away) bbox center side.
                let neighbours = problem.conflict_adjacency().neighbors(local).iter();
                for &neighbour in neighbours.chain(problem.stitch_adjacency().neighbors(local)) {
                    in_piece[neighbour] = true;
                }
            }
            // Geometric halo: context within `halo` of the core window.
            // `within_distance` is strict, matching the strict conflict
            // predicate: anything that can conflict into the window from
            // outside sits strictly closer than the coloring distance.
            for (local, bbox) in bboxes.iter().enumerate() {
                if !in_piece[local] && bbox.within_distance(&core, halo) {
                    in_piece[local] = true;
                }
            }
            let locals = (0..n).filter(|&local| in_piece[local]).collect();
            Piece { locals, owned }
        })
        .collect();

    SplitComponent {
        task_index: task.index(),
        pieces,
    }
}
