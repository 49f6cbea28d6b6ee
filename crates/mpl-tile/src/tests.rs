//! End-to-end tests of the tiled driver against the untiled batch engine.

use crate::{run_tiled, run_tiled_observed};
use mpl_core::verify::verify_spacing;
use mpl_core::{
    ColorAlgorithm, ConfigError, Decomposer, DecomposerConfig, DecompositionSession, LayoutId,
    MemoCache, ProgressSink, SerialExecutor, ThreadPoolExecutor, TileConfig,
};
use mpl_geometry::Nm;
use mpl_layout::{gen, Technology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
    Decomposer::new(DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm))
}

/// A 12×12 contact lattice at 70 nm pitch: one connected component (every
/// orthogonal and diagonal neighbour pair sits under the 80 nm coloring
/// distance) spanning an 840 nm square — several 300 nm tiles.
fn connected_lattice() -> mpl_layout::Layout {
    gen::contact_array(&Technology::nm20(), 12, 12, Nm(70))
}

#[test]
fn one_window_layouts_are_bit_identical_to_untiled_for_every_engine() {
    let layout = gen::fig1_contact_clique(&Technology::nm20());
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = decomposer(algorithm);
        let mut session = DecompositionSession::new();
        session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        let untiled = session.run(&SerialExecutor);
        // A tile far larger than the layout: every component is resident.
        session.set_tiling(Some(TileConfig::new(Nm(1_000_000))));
        let tiled = run_tiled(&session, &SerialExecutor).expect("valid tiling");
        assert_eq!(
            tiled[0].1.result.colors(),
            untiled[0].1.colors(),
            "{algorithm}"
        );
        assert_eq!(tiled[0].1.stats.tiled_components, 0);
        assert_eq!(tiled[0].1.stats.tiles, 0);
        assert_eq!(
            tiled[0].1.stats.resident_components,
            untiled[0].1.component_count()
        );
        assert_eq!((tiled[0].1.stats.grid_x, tiled[0].1.stats.grid_y), (1, 1));
    }
}

#[test]
fn sharded_components_verify_spacing_clean_and_report_consistent_conflicts() {
    let layout = connected_lattice();
    for algorithm in ColorAlgorithm::ALL {
        let decomposer = decomposer(algorithm);
        let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(300)));
        session
            .submit_layout(&decomposer, &layout)
            .expect("valid config");
        let tiled = run_tiled(&session, &SerialExecutor).expect("valid tiling");
        let (id, tiled) = &tiled[0];
        let result = &tiled.result;
        let stats = &tiled.stats;
        assert_eq!(stats.tiled_components, 1, "{algorithm}");
        assert!(stats.tiles > 1, "{algorithm}");
        assert!(stats.shared_vertices > 0, "{algorithm}");
        // The reconciled conflict count is recomputed over the full graph,
        // so the independent geometric checker must agree exactly.
        let violations = verify_spacing(
            session.plan(*id).expect("current batch").graph(),
            result.colors(),
            Technology::nm20().coloring_distance(4),
        );
        assert_eq!(violations.len(), result.conflicts(), "{algorithm}");
    }
}

#[test]
fn tiled_runs_are_schedule_independent() {
    let layout = connected_lattice();
    let decomposer = decomposer(ColorAlgorithm::SdpBacktrack);
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(250)));
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    let serial = run_tiled(&session, &SerialExecutor).expect("valid tiling");
    let pooled = run_tiled(
        &session,
        &ThreadPoolExecutor::new(4).expect("non-zero threads"),
    )
    .expect("valid tiling");
    assert_eq!(serial[0].1.result.colors(), pooled[0].1.result.colors());
    assert_eq!(serial[0].1.stats, pooled[0].1.stats);
    assert_eq!(pooled[0].1.result.executor(), "threads:4");
}

#[test]
fn warm_memo_tiled_runs_are_bit_identical_and_all_hits() {
    let layout = connected_lattice();
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(300)));
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    session.set_memo(Some(Arc::new(MemoCache::new(4096))));
    let cold = run_tiled(&session, &SerialExecutor).expect("valid tiling");
    let warm = run_tiled(
        &session,
        &ThreadPoolExecutor::new(3).expect("non-zero threads"),
    )
    .expect("valid tiling");
    assert_eq!(cold[0].1.result.colors(), warm[0].1.result.colors());
    // Every piece of the warm run is stamped from the cache, so the merged
    // component reports an aggregate hit.
    assert!(warm[0]
        .1
        .result
        .component_stats()
        .iter()
        .all(|stats| stats.memo_hit == Some(true)));
}

#[test]
fn sessions_without_tiling_fall_back_to_the_untiled_run() {
    let layout = gen::k5_cluster_layout(&Technology::nm20());
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new();
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    let untiled = session.run(&SerialExecutor);
    let tiled = run_tiled(&session, &SerialExecutor).expect("no tiling requested");
    assert_eq!(tiled[0].1.result.colors(), untiled[0].1.colors());
    assert_eq!(tiled[0].1.stats.tiles, 0);
    assert_eq!(
        tiled[0].1.stats.resident_components,
        untiled[0].1.component_count()
    );
}

#[test]
fn invalid_tiling_is_rejected_with_typed_errors() {
    let layout = gen::fig1_contact_clique(&Technology::nm20());
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(0)));
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    assert_eq!(
        run_tiled(&session, &SerialExecutor).unwrap_err(),
        ConfigError::TileSize { size: 0 }
    );

    // A halo below the coloring distance would hide cross-window conflicts.
    session.set_tiling(Some(TileConfig::new(Nm(300)).with_halo(Nm(40))));
    assert_eq!(
        run_tiled(&session, &SerialExecutor).unwrap_err(),
        ConfigError::TileHalo { halo: 40 }
    );

    // The coloring distance itself is an acceptable explicit halo.
    session.set_tiling(Some(TileConfig::new(Nm(300)).with_halo(Nm(80))));
    assert!(run_tiled(&session, &SerialExecutor).is_ok());
}

#[test]
fn progress_reports_one_tick_per_inner_decomposition() {
    struct Counting {
        ticks: AtomicUsize,
        last: AtomicUsize,
        total: AtomicUsize,
    }
    impl ProgressSink for Counting {
        fn component_done(&self, layout: LayoutId, done: usize, total: usize) {
            assert_eq!(layout.index(), 0);
            assert!(done <= total);
            self.ticks.fetch_add(1, Ordering::Relaxed);
            self.last.fetch_max(done, Ordering::Relaxed);
            self.total.store(total, Ordering::Relaxed);
        }
    }
    let layout = connected_lattice();
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(300)));
    session
        .submit_layout(&decomposer, &layout)
        .expect("valid config");
    let progress = Counting {
        ticks: AtomicUsize::new(0),
        last: AtomicUsize::new(0),
        total: AtomicUsize::new(0),
    };
    let tiled = run_tiled_observed(&session, &SerialExecutor, &progress).expect("valid tiling");
    let expected = tiled[0].1.stats.tiles + usize::from(tiled[0].1.stats.resident_components > 0);
    assert_eq!(progress.ticks.load(Ordering::Relaxed), expected);
    assert_eq!(progress.last.load(Ordering::Relaxed), expected);
    assert_eq!(progress.total.load(Ordering::Relaxed), expected);
}

#[test]
fn mixed_batches_keep_per_layout_results_in_submission_order() {
    let decomposer = decomposer(ColorAlgorithm::Linear);
    let mut session = DecompositionSession::new().with_tiling(TileConfig::new(Nm(300)));
    let a = session
        .submit_layout(&decomposer, &connected_lattice())
        .expect("valid config");
    let b = session
        .submit_layout(&decomposer, &gen::fig1_contact_clique(&Technology::nm20()))
        .expect("valid config");
    let results =
        run_tiled(&session, &ThreadPoolExecutor::new(2).expect("threads")).expect("valid tiling");
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].0, a);
    assert_eq!(results[1].0, b);
    assert!(results[0].1.stats.tiled_components > 0);
    assert_eq!(results[1].1.stats.tiled_components, 0);
    // The small layout fits one window, so its colors still match its own
    // untiled run even inside a mixed tiled batch.
    let mut alone = DecompositionSession::new();
    alone
        .submit_layout(&decomposer, &gen::fig1_contact_clique(&Technology::nm20()))
        .expect("valid config");
    assert_eq!(
        results[1].1.result.colors(),
        alone.run(&SerialExecutor)[0].1.colors()
    );
}
