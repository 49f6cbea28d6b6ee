//! Pins the tile and hierarchical reconcilers bit for bit: an FNV-1a digest
//! of each merged coloring plus the four reconcile counters (permuted
//! pieces, recolored vertices, cross conflicts before and after repair).
//!
//! Both cases run at K = 4, where the permutation solver enumerates every
//! permutation, and at K = 8, where it assigns greedily, on the serial
//! executor and on a two-thread pool:
//!
//! - **tile** — a 14×14 contact lattice at 70 nm pitch under 310 nm
//!   windows.  The lattice does not line up with the window grid, so each
//!   window's halo carries several anchors whose demands contradict, and
//!   the bounded repair pass recolors boundary vertices.
//! - **hier** — a 5×4 `Merged` bit-cell array: one giant component split
//!   into 20 instance pieces plus the residual piece of cross-instance
//!   links.  Its cross edges are all conflicts (the links are untagged
//!   whole), so every permutation weight is −1 and the greedy K = 8 branch
//!   keeps every piece as colored.

use mpl_core::{
    ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionSession, Executor, SerialExecutor,
    ThreadPoolExecutor, TileConfig,
};
use mpl_geometry::Nm;
use mpl_hier::fixtures::{bit_cell_array, BitArrayStyle};
use mpl_layout::{gen, Technology};
use std::sync::Arc;

/// Digest of the merged colors plus `[permuted, recolored, cross before,
/// cross after]`.
type Pin = (u64, [usize; 4]);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn decomposer(k: usize) -> Decomposer {
    Decomposer::new(
        DecomposerConfig::k_patterning(k, Technology::nm20())
            .with_algorithm(ColorAlgorithm::Linear),
    )
}

fn tile_pin(k: usize, executor: &dyn Executor) -> Pin {
    let layout = gen::contact_array(&Technology::nm20(), 14, 14, Nm(70));
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(310)));
    session
        .submit_layout(&decomposer(k), &layout)
        .expect("valid config");
    let results = mpl_tile::run_tiled(&session, executor).expect("valid tiling");
    let tiled = &results[0].1;
    assert_eq!((tiled.stats.tiled_components, tiled.stats.tiles), (1, 9));
    let stats = tiled.stats;
    (
        fnv1a(tiled.result.colors()),
        [
            stats.permuted_tiles,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after,
        ],
    )
}

fn hier_pin(k: usize, executor: &dyn Executor) -> Pin {
    let (layout, hierarchy) = bit_cell_array(5, 4, BitArrayStyle::Merged);
    let mut session = DecompositionSession::new();
    let id = session
        .submit_layout(&decomposer(k), &layout)
        .expect("valid config");
    session.set_hierarchy(id, Some(Arc::new(hierarchy)));
    let results = mpl_hier::run_hier(&session, executor).expect("no tiling");
    let hier = &results[0].1;
    assert_eq!(hier.stats.split_components, 1);
    assert_eq!(hier.stats.instance_pieces, 20);
    assert!(hier.stats.boundary_vertices > 0, "a residual piece exists");
    let stats = hier.stats;
    (
        fnv1a(hier.result.colors()),
        [
            stats.permuted_pieces,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after,
        ],
    )
}

fn check(name: &str, pin: fn(usize, &dyn Executor) -> Pin, expected: [(usize, Pin); 2]) {
    let pool = ThreadPoolExecutor::new(2).expect("non-zero threads");
    let executors: [&dyn Executor; 2] = [&SerialExecutor, &pool];
    for (k, expected) in expected {
        for executor in executors {
            assert_eq!(
                pin(k, executor),
                expected,
                "{name} K={k} on {}",
                executor.name()
            );
        }
    }
}

#[test]
fn tiled_giant_reconciliation_is_pinned() {
    check(
        "tile",
        tile_pin,
        [
            (4, (0xc28e_dd9e_4664_729e, [6, 5, 10, 4])),
            (8, (0x8ee2_6217_209d_9799, [8, 8, 8, 0])),
        ],
    );
}

#[test]
fn merged_hier_array_reconciliation_is_pinned() {
    check(
        "hier",
        hier_pin,
        [
            (4, (0x2e2c_95ee_ebee_322d, [1, 4, 16, 8])),
            (8, (0xaeb1_3a81_55ba_dbf0, [0, 89, 196, 7])),
        ],
    );
}
