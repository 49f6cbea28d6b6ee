//! The in-process path a CLI user waits on: layout bytes in memory →
//! parse → plan → color → verify → colored masks written as GDS.

use crate::inputs::{LayoutInput, Source};
use crate::trace::{ComponentSpans, Layer, Trace};
use mpl_core::{
    component_signatures, extract_masks, verify_spacing, ColorAlgorithm, ComponentStats,
    Decomposer, DecomposerConfig, DecompositionGraph, DecompositionResult, DecompositionSession,
    MemoCache, ThreadPoolExecutor, TileConfig,
};
use mpl_gds::{layout_from_library, library_from_masks, GdsLibrary, LayerMap, ReadOptions};
use mpl_layout::{io, Layout, Technology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mask count: quadruple patterning.
pub const K: usize = 4;
/// Colored exports put mask `k` on GDS layer `100 + k`, as the CLI does.
const COLORED_BASE_LAYER: i16 = 100;

/// Deterministic per-item counters, summed over a pass.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one item did, as seen from outside the program.
#[derive(Debug, Default)]
pub struct ItemRun {
    /// Bytes in memory → colored GDS bytes written.
    pub turnaround: f64,
    /// The decomposition call itself: `plan` plus the session run.
    pub request: f64,
    pub shapes: usize,
    pub counts: Counts,
    /// Per-layer seconds for this item, keyed by metric name.
    pub timings: Vec<(&'static str, f64)>,
    /// Σ component coloring time and the wall time of the run that held it.
    pub component_busy: f64,
    pub execute_wall: f64,
    pub failures: Vec<String>,
}

/// Parses layout bytes the way the CLI reads a file.
pub fn ingest(source: &Source) -> Result<Layout, String> {
    match source {
        Source::Text(text) => io::from_text(text).map_err(|e| format!("parse: {e}")),
        Source::Gds(bytes) => GdsLibrary::from_bytes(bytes)
            .and_then(|library| {
                layout_from_library(&library, &LayerMap::all(), &ReadOptions::default())
            })
            .map_err(|e| format!("gds: {e}")),
    }
}

fn decomposer(algorithm: ColorAlgorithm) -> Decomposer {
    Decomposer::new(DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(algorithm))
}

/// What a CLI run builds before it takes its first input: decomposer,
/// pool and memo cache.  Runs in a child process started with `--ready`.
pub fn ready(threads: usize) {
    black_box((
        decomposer(ColorAlgorithm::SdpBacktrack),
        ThreadPoolExecutor::new(threads).expect("at least one thread"),
        DecompositionSession::new()
            .with_memo(Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY))),
    ));
}

/// Output checks shared with the served path; each failure is one line.
pub fn check_result(result: &DecompositionResult, violations: Option<usize>) -> Vec<String> {
    let mut failures = Vec::new();
    let name = result.layout_name();
    if result
        .colors()
        .iter()
        .any(|&c| usize::from(c) >= result.k())
    {
        failures.push(format!("{name}: a color lies outside 0..{}", result.k()));
    }
    if let Some(violations) = violations {
        if violations != result.conflicts() {
            failures.push(format!(
                "{name}: verify_spacing found {violations} violations, {} conflicts reported",
                result.conflicts()
            ));
        }
    }
    if result.component_stats().iter().any(|s| s.hit_time_limit) {
        failures.push(format!("{name}: a component hit the engine time limit"));
    }
    if result.cancelled() || result.deadline_exceeded() || result.components_skipped() > 0 {
        failures.push(format!("{name}: the run was cut short"));
    }
    failures
}

/// Engine and division counters of a result's components.
pub fn component_counts(stats: &[ComponentStats], counts: &mut Counts) {
    for s in stats {
        *counts.entry("division.augmenting_paths").or_default() += s.augmenting_paths;
        *counts.entry("division.path_bound").or_default() += s.augmenting_path_bound;
        *counts.entry("division.hidden_vertices").or_default() += s.hidden_vertices as u64;
        if s.memo_hit != Some(true) {
            *counts.entry("engine.components").or_default() += 1;
            *counts.entry("engine.bnb_nodes").or_default() += s.bnb_nodes;
        }
    }
}

/// Σ division time and Σ engine time (component time minus division) over
/// the components an engine colored.
pub fn busy(stats: &[ComponentStats]) -> (f64, f64) {
    stats
        .iter()
        .filter(|s| s.memo_hit != Some(true))
        .fold((0.0, 0.0), |(division, engine), s| {
            let d = s.division_time.as_secs_f64();
            (division + d, engine + (s.time.as_secs_f64() - d).max(0.0))
        })
}

pub fn result_counts(result: &DecompositionResult, counts: &mut Counts) {
    let mut add = |name, value: usize| *counts.entry(name).or_default() += value as u64;
    add("conflicts", result.conflicts());
    add("stitches", result.stitches());
    add("graph.vertices", result.vertex_count());
    add("graph.conflict_edges", result.conflict_edge_count());
    add("graph.stitch_edges", result.stitch_edge_count());
    add("plan.components", result.component_count());
    add("memo.hits", result.memo_hits().unwrap_or(0));
    add("memo.misses", result.memo_misses().unwrap_or(0));
    component_counts(result.component_stats(), counts);
}

/// Runs one item; with `trace`, records its spans under item id `item`.
pub fn run_item(
    input: &LayoutInput,
    pool: &ThreadPoolExecutor,
    trace: Option<&Trace>,
    item: u64,
) -> ItemRun {
    let mut run = ItemRun {
        shapes: input.shapes,
        ..ItemRun::default()
    };
    // Per-run set-up, outside the turnaround: a fresh memo per layout.
    let decomposer = decomposer(input.algorithm);
    let memo = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
    let mut session = DecompositionSession::new().with_memo(Arc::clone(&memo));
    if let Some(tile) = input.tile {
        session = session.with_tiling(TileConfig::new(tile));
    }

    let t0 = Instant::now();
    let root = trace.map(|t| t.open("turnaround", None, t0, None, item));
    let layout = match ingest(&input.source) {
        Ok(layout) => layout,
        Err(error) => {
            run.failures.push(error);
            return run;
        }
    };
    let t1 = Instant::now();
    let plan = match decomposer.plan(&layout) {
        Ok(plan) => plan,
        Err(error) => {
            run.failures
                .push(format!("{}: plan: {error}", layout.name()));
            return run;
        }
    };
    let t2 = Instant::now();
    let execute = trace.map(|t| {
        let layer = if input.tile.is_some() {
            Layer::Tile
        } else {
            Layer::Executor
        };
        t.open("execute", Some(layer), t2, root, item)
    });
    let id = session.submit(plan);
    let (result, tile_stats) = if input.tile.is_some() {
        match mpl_tile::run_tiled(&session, pool) {
            Ok(mut results) => {
                let (_, tiled) = results.pop().expect("one layout submitted");
                (tiled.result, Some(tiled.stats))
            }
            Err(error) => {
                run.failures
                    .push(format!("{}: tile: {error}", layout.name()));
                return run;
            }
        }
    } else {
        let mut results = match (trace, execute) {
            (Some(t), Some(parent)) => {
                session.run_observed(pool, &ComponentSpans::new(t, parent, item))
            }
            _ => session.run(pool),
        };
        (results.pop().expect("one layout submitted").1, None)
    };
    let t3 = Instant::now();
    let plan = session.plan(id).expect("the session keeps its plans");
    let graph = plan.graph();
    let colors_ok = result.colors().iter().all(|&c| usize::from(c) < K);
    let violations = colors_ok.then(|| {
        verify_spacing(
            graph,
            result.colors(),
            Technology::nm20().coloring_distance(K),
        )
        .len()
    });
    let t4 = Instant::now();
    let mut per_mask = vec![Vec::new(); K];
    if colors_ok {
        for mask in extract_masks(graph, result.colors()) {
            for &vertex in &mask.vertices {
                per_mask[mask.index].push(graph.polygon(vertex).clone());
            }
        }
    }
    let written = library_from_masks(layout.name(), &per_mask, COLORED_BASE_LAYER)
        .and_then(|library| library.to_bytes());
    let t5 = Instant::now();

    run.turnaround = (t5 - t0).as_secs_f64();
    run.request = (t3 - t1).as_secs_f64();
    run.execute_wall = (t3 - t2).as_secs_f64();
    run.component_busy = result
        .component_stats()
        .iter()
        .map(|s| s.time.as_secs_f64())
        .sum();
    run.failures.extend(check_result(&result, violations));
    match &written {
        Ok(bytes) => *run.counts.entry("write.bytes").or_default() += bytes.len() as u64,
        Err(error) => run
            .failures
            .push(format!("{}: write: {error}", layout.name())),
    }
    result_counts(&result, &mut run.counts);
    *run.counts.entry("ingest.bytes").or_default() += input.source.len() as u64;
    *run.counts.entry("verify.violations").or_default() += violations.unwrap_or(0) as u64;
    *run.counts.entry("memo.evictions").or_default() += memo.stats().evictions;
    if let Some(stats) = tile_stats {
        *run.counts.entry("tile.tiles").or_default() += stats.tiles as u64;
        *run.counts.entry("tile.permuted").or_default() += stats.permuted_tiles as u64;
        *run.counts.entry("tile.recolored").or_default() += stats.recolored_vertices as u64;
        *run.counts.entry("tile.cross_conflicts_after").or_default() +=
            stats.cross_conflicts_after as u64;
        if stats.cross_conflicts_after != 0 {
            run.failures.push(format!(
                "{}: {} cross-window conflicts after reconciliation",
                layout.name(),
                stats.cross_conflicts_after
            ));
        }
    }

    let (Some(t), Some(root), Some(execute)) = (trace, root, execute) else {
        return run;
    };
    // Spans around the calls made above, then the attributed ones: the
    // graph build inside `plan`, the memo canonicalization inside the
    // session run, and — for tiled items, which take no observer — the
    // components' division and engine time as pool-wall equivalents.
    t.span("ingest", Some(Layer::Ingest), (t0, t1), Some(root), item);
    let plan_span = t.span("plan", Some(Layer::Plan), (t1, t2), Some(root), item);
    t.close(execute, t3);
    t.span("verify", Some(Layer::Verify), (t3, t4), Some(root), item);
    t.span("write", Some(Layer::Write), (t4, t5), Some(root), item);
    t.close(root, t5);

    let replay = Instant::now();
    black_box(DecompositionGraph::build(
        &layout,
        &Technology::nm20(),
        K,
        &decomposer.config().stitch,
    ));
    let graph_time = replay.elapsed();
    t.attribute("graph.build", Layer::Graph, plan_span, 0.0, graph_time);
    let replay = Instant::now();
    black_box(component_signatures(plan));
    let memo_time = replay.elapsed();
    t.attribute("memo.canonicalize", Layer::Memo, execute, 0.0, memo_time);
    let (division, engine) = busy(result.component_stats());
    if input.tile.is_some() {
        let threads = pool.threads() as f64;
        let offset = memo_time.as_secs_f64();
        let division = Duration::from_secs_f64(division / threads);
        t.attribute("division", Layer::Division, execute, offset, division);
        let offset = offset + division.as_secs_f64();
        let engine = Duration::from_secs_f64(engine / threads);
        t.attribute("engine", Layer::Engine, execute, offset, engine);
        run.timings.push(("tile.run_s", run.execute_wall));
    }
    run.timings.extend([
        ("ingest.parse_s", (t1 - t0).as_secs_f64()),
        ("graph.build_s", graph_time.as_secs_f64()),
        (
            "plan.problems_s",
            ((t2 - t1) - graph_time.min(t2 - t1)).as_secs_f64(),
        ),
        ("division.busy_s", division),
        ("engine.busy_s", engine),
        ("verify.spacing_s", (t4 - t3).as_secs_f64()),
        ("write.gds_s", (t5 - t4).as_secs_f64()),
    ]);
    run
}
