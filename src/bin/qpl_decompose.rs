//! `qpl-decompose` — command-line front end to the decomposition flow.
//!
//! Decomposes one or more layouts (text-format layout files, GDSII files —
//! freely mixed — or named synthetic benchmark circuits) into K masks and
//! reports conflicts, stitches, per-mask statistics and optional same-mask
//! spacing verification.  Results can be exported as *colored* GDSII files
//! with one layer per mask, ready to open in a layout viewer.
//!
//! All inputs are decomposed as **one batch** through a
//! [`DecompositionSession`]: every layout's independent components enter a
//! single largest-first queue, so `--threads N` keeps one shared pool busy
//! across layouts instead of parallelising each layout alone.  `--progress`
//! streams per-component progress (tagged with the layout) to stderr, and
//! `--json` replaces the human-readable summary with a machine-readable
//! one.  Invalid configurations are reported as typed errors, not panics.
//!
//! ```text
//! Usage:
//!   qpl-decompose FILE [FILE ...] [options]        # format auto-detected
//!   qpl-decompose --circuit C6288 [options]
//!   qpl-decompose --layout path/to/layout.txt [options]
//!   qpl-decompose --gds path/to/layout.gds [--layer L[:D] ...] [options]
//!   qpl-decompose --connect HOST:PORT FILE [FILE ...] [options]
//!   qpl-decompose --connect HOST:PORT --shutdown
//!
//! Inputs (repeatable and mixable; all decompose as one batch):
//!   FILE                 a text layout or GDSII file (auto-detected)
//!   --circuit <NAME>     a named synthetic benchmark circuit
//!   --layout <PATH>      a layout file (same auto-detection as positional)
//!   --gds <PATH>         a GDSII file (rejects non-GDS inputs)
//!
//! Options:
//!   --k <N>              number of masks (default 4)
//!   --algorithm <NAME>   ilp | sdp-backtrack | sdp-greedy | linear (default sdp-backtrack)
//!   --alpha <F>          stitch weight (default 0.1)
//!   --threads <N>        color the batch on N shared worker threads
//!   --progress           report per-component progress on stderr
//!   --json               print a machine-readable JSON summary on stdout
//!   --no-stitches        disable stitch-candidate generation
//!   --balance            rebalance mask densities after coloring
//!   --verify             re-check same-mask spacing from scratch
//!   --memo               memoize translation-identical components (default on)
//!   --no-memo            color every component from scratch
//!   --memo-capacity <N>  cap the memo cache at N entries (default 65536)
//!   --tile-size <NM>     decompose through the halo-aware tiler with
//!                        square windows of this edge length (in nm)
//!   --halo <NM>          explicit halo width in nm (default: the
//!                        technology's color-friendly distance; must be at
//!                        least the coloring distance)
//!   --no-tile            explicitly disable tiling (contradicts
//!                        --tile-size/--halo)
//!   --hier               decompose GDS inputs hierarchically: color each
//!                        distinct cell body once, stamp every instance
//!                        and reconcile the inter-instance boundaries.
//!                        Always memoizes (a transient cache stands in
//!                        under --no-memo); inputs without a hierarchy
//!                        (text layouts, circuits) degenerate to the
//!                        ordinary memoized run.  Contradicts
//!                        --tile-size/--halo.
//!   --no-hier            explicitly disable hierarchical decomposition
//!                        (contradicts --hier)
//!   --output <PATH>      write the mask assignment (one `shape segment mask` line per vertex)
//!   --layer <L[:D]>      import only this GDS layer (repeatable; applies to every GDS input)
//!   --top <NAME>         flatten from this GDS structure (default: the unique top)
//!   --output-gds <PATH>  write the colored decomposition: mask k on GDS layer 100+k
//!
//! Client mode (`--connect`): inputs are streamed to a running `qpl-serve`
//! instead of being decomposed in-process — text layouts and circuits
//! inline, GDSII files as base64 — and results stream back per layout.
//!   --connect <ADDR>     submit to the server at ADDR (HOST:PORT)
//!   --executor <NAME>    serial | pool: which server executor drains the
//!                        submissions (default pool)
//!   --shutdown           after the results (or alone: immediately), ask
//!                        the server to shut down
//!   --deadline-ms <MS>   soft per-submission deadline: the server stops
//!                        colouring at the next engine poll once MS
//!                        milliseconds have passed and returns a partial
//!                        result flagged `deadline_exceeded` (completed
//!                        components keep their colors; skipped ones are
//!                        zeroed and counted)
//! Interactive cancellation (Ctrl-C) is not wired up: installing a signal
//! handler portably needs platform code outside std, so the supported
//! ways to bound a run from this CLI are `--deadline-ms` or speaking the
//! protocol's `cancel` frame directly.
//! `--verify` maps to server-side spacing re-verification,
//! `--tile-size`/`--halo` travel on the submit frame (the server tiles and
//! streams `tile_progress` events) and so does `--hier` (the server
//! decomposes hierarchically and streams `hier_progress` events);
//! `--threads`, `--balance`,
//! `--no-stitches`, `--memo`/`--no-memo`/`--memo-capacity` (the server
//! always memoizes with its own shared cache), `--layer`, `--top`,
//! `--output` and `--output-gds` are local-mode-only and rejected with
//! `--connect`.
//!
//! With more than one input, `--output`/`--output-gds` write one file per
//! layout, inserting the batch index before the extension (`out.gds` →
//! `out.0.gds`, `out.1.gds`, …).
//! ```

use mpl_core::{
    extract_masks, json_escape, rebalance_masks, verify_spacing, ColorAlgorithm, ComponentStats,
    ComponentTask, ConfigError, Decomposer, DecomposerConfig, DecompositionObserver,
    DecompositionPlan, DecompositionResult, DecompositionSession, Executor, LayoutId, MemoCache,
    MemoStats, ProgressSink, SerialExecutor, StitchConfig, ThreadPoolExecutor, TileConfig,
    VertexId,
};
use mpl_gds::{LayerMap, ReadOptions};
use mpl_geometry::Nm;
use mpl_hier::HierStats;
use mpl_layout::{gen::IscasCircuit, io::LayoutFormat, Layout, LayoutHierarchy, Technology};
use mpl_serve::{
    Client, ExecutorChoice, Json, LayoutSource, Request, Response, ResultPayload, SubmitRequest,
};
use mpl_tile::TileStats;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// GDS layer holding mask 0 in `--output-gds` files (mask k lands on
/// `COLORED_BASE_LAYER + k`).
const COLORED_BASE_LAYER: i16 = 100;

struct Options {
    inputs: Vec<InputSpec>,
    gds_input: GdsInputOptions,
    k: usize,
    algorithm: ColorAlgorithm,
    alpha: f64,
    threads: Option<usize>,
    progress: bool,
    json: bool,
    stitches: bool,
    balance: bool,
    verify: bool,
    memo: bool,
    memo_capacity: usize,
    /// Validated `--tile-size` in nm (`None` = untiled).
    tile_size: Option<i64>,
    /// Validated `--halo` in nm (requires `tile_size`).
    halo: Option<i64>,
    /// `--hier`: cell-level hierarchical decomposition (contradicts
    /// tiling).
    hier: bool,
    output: Option<String>,
    output_gds: Option<String>,
    connect: Option<String>,
    executor_choice: ExecutorChoice,
    shutdown: bool,
    /// `--deadline-ms`: soft per-submission deadline forwarded on the
    /// submit frame (connect-mode only).
    deadline_ms: Option<u64>,
}

/// Reads a layout file through the shared format-dispatching loader
/// ([`mpl_gds::load_layout_file`]), reporting whether the input was GDSII.
/// `force_gds` (the `--gds` flag) rejects inputs that are not GDSII; in a
/// mixed batch, `--layer`/`--top` apply to the GDS inputs and leave text
/// inputs untouched (the caller rejects batches where they would apply to
/// nothing).  With `want_hierarchy` (`--hier`), GDSII inputs additionally
/// return their cell-instance provenance; text inputs have none.
fn read_layout(
    path: &str,
    options: &GdsInputOptions,
    force_gds: bool,
    want_hierarchy: bool,
) -> Result<(Layout, Option<LayoutHierarchy>, bool), String> {
    let layer_specs = options.layer_specs.as_slice();
    let map = LayerMap::from_specs(layer_specs).map_err(|e| e.to_string())?;
    let is_gds = {
        // Sniff only the 4-byte HEADER, not the whole file.
        use std::io::Read;
        let mut head = [0u8; 4];
        let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut filled = 0usize;
        // A single read() may legally return short; loop until the 4-byte
        // header is filled or EOF.
        while filled < head.len() {
            match file.read(&mut head[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("cannot read {path}: {e}")),
            }
        }
        LayoutFormat::detect(path, &head[..filled]) == LayoutFormat::Gds
    };
    if force_gds && !is_gds {
        return Err(format!(
            "{path} is not a GDSII stream (missing HEADER record)"
        ));
    }
    let read_options = ReadOptions {
        top: options.top.clone(),
        ..ReadOptions::default()
    };
    if is_gds && want_hierarchy {
        let (layout, hierarchy) =
            mpl_gds::read_layout_file_with_hierarchy(path, &map, &read_options)
                .map_err(|e| format!("{path}: {e}"))?;
        return Ok((layout, Some(hierarchy), true));
    }
    let layout = mpl_gds::load_layout_file(path, &map, &read_options).map_err(|e| e.to_string())?;
    Ok((layout, None, is_gds))
}

/// GDS-specific input selection collected from the command line.
#[derive(Default)]
struct GdsInputOptions {
    layer_specs: Vec<String>,
    top: Option<String>,
}

/// One requested input, before loading.
enum InputSpec {
    Circuit(IscasCircuit),
    Path { path: String, force_gds: bool },
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut inputs: Vec<InputSpec> = Vec::new();
    let mut gds_input = GdsInputOptions::default();
    let mut k = 4usize;
    let mut algorithm = ColorAlgorithm::SdpBacktrack;
    let mut alpha = 0.1f64;
    let mut threads: Option<usize> = None;
    let mut progress = false;
    let mut json = false;
    let mut stitches = true;
    let mut balance = false;
    let mut verify = false;
    let mut memo: Option<bool> = None;
    let mut memo_capacity: Option<usize> = None;
    let mut tile_size: Option<i64> = None;
    let mut halo: Option<i64> = None;
    let mut no_tile = false;
    let mut hier = false;
    let mut no_hier = false;
    let mut output = None;
    let mut output_gds = None;
    let mut connect: Option<String> = None;
    let mut executor_choice: Option<ExecutorChoice> = None;
    let mut shutdown = false;
    let mut deadline_ms: Option<u64> = None;

    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--circuit" => {
                let name = value("--circuit")?;
                inputs.push(InputSpec::Circuit(
                    IscasCircuit::ALL
                        .into_iter()
                        .find(|c| c.name().eq_ignore_ascii_case(&name))
                        .ok_or_else(|| format!("unknown circuit {name:?}"))?,
                ));
            }
            "--layout" => inputs.push(InputSpec::Path {
                path: value("--layout")?,
                force_gds: false,
            }),
            "--gds" => inputs.push(InputSpec::Path {
                path: value("--gds")?,
                force_gds: true,
            }),
            "--layer" => gds_input.layer_specs.push(value("--layer")?),
            "--top" => gds_input.top = Some(value("--top")?),
            "--k" => {
                k = value("--k")?
                    .parse()
                    .map_err(|e| format!("invalid --k value: {e}"))?;
            }
            "--algorithm" => algorithm = ColorAlgorithm::from_cli_name(&value("--algorithm")?)?,
            "--alpha" => {
                alpha = value("--alpha")?
                    .parse()
                    .map_err(|e| format!("invalid --alpha value: {e}"))?;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("invalid --threads value: {e}"))?,
                );
            }
            "--progress" => progress = true,
            "--json" => json = true,
            "--no-stitches" => stitches = false,
            "--balance" => balance = true,
            "--verify" => verify = true,
            "--memo" => memo = Some(true),
            "--no-memo" => memo = Some(false),
            "--memo-capacity" => {
                memo_capacity = Some(
                    value("--memo-capacity")?
                        .parse()
                        .map_err(|e| format!("invalid --memo-capacity value: {e}"))?,
                );
            }
            "--tile-size" => {
                tile_size = Some(
                    value("--tile-size")?
                        .parse()
                        .map_err(|e| format!("invalid --tile-size value: {e}"))?,
                );
            }
            "--halo" => {
                halo = Some(
                    value("--halo")?
                        .parse()
                        .map_err(|e| format!("invalid --halo value: {e}"))?,
                );
            }
            "--no-tile" => no_tile = true,
            "--hier" => hier = true,
            "--no-hier" => no_hier = true,
            "--output" => output = Some(value("--output")?),
            "--output-gds" => output_gds = Some(value("--output-gds")?),
            "--connect" => connect = Some(value("--connect")?),
            "--executor" => {
                executor_choice = Some(match value("--executor")?.as_str() {
                    "serial" => ExecutorChoice::Serial,
                    "pool" => ExecutorChoice::Pool,
                    other => return Err(format!("unknown executor {other:?}")),
                })
            }
            "--shutdown" => shutdown = true,
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("invalid --deadline-ms value: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qpl-decompose FILE [FILE ...] | --circuit <NAME> | --layout <FILE> \
                            | --gds <FILE> (inputs repeat and mix; one shared batch) \
                            [--layer L[:D] ...] [--top NAME] [--k N] \
                            [--algorithm ilp|sdp-backtrack|sdp-greedy|linear] \
                            [--alpha F] [--threads N] [--progress] [--json] \
                            [--no-stitches] [--balance] [--verify] \
                            [--memo | --no-memo] [--memo-capacity N] \
                            [--tile-size NM [--halo NM] | --no-tile] \
                            [--hier | --no-hier] \
                            [--output FILE] [--output-gds FILE] \
                            | --connect HOST:PORT [--executor serial|pool] \
                            [--deadline-ms MS] [--shutdown]"
                        .to_string(),
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            path => inputs.push(InputSpec::Path {
                path: path.to_string(),
                force_gds: false,
            }),
        }
    }
    if connect.is_none() {
        // Serve-only flags make no sense locally.
        if shutdown {
            return Err("--shutdown only applies to --connect mode".to_string());
        }
        if executor_choice.is_some() {
            return Err(
                "--executor only applies to --connect mode (use --threads locally)".to_string(),
            );
        }
        if deadline_ms.is_some() {
            return Err("--deadline-ms only applies to --connect mode".to_string());
        }
    } else {
        // Local-only post-processing cannot run on the server.
        for (set, flag) in [
            (threads.is_some(), "--threads"),
            (balance, "--balance"),
            (!stitches, "--no-stitches"),
            (memo.is_some(), "--memo/--no-memo"),
            (memo_capacity.is_some(), "--memo-capacity"),
            (output.is_some(), "--output"),
            (output_gds.is_some(), "--output-gds"),
            (!gds_input.layer_specs.is_empty(), "--layer"),
            (gds_input.top.is_some(), "--top"),
        ] {
            if set {
                return Err(format!("{flag} does not apply to --connect mode"));
            }
        }
    }
    if inputs.is_empty() && !(connect.is_some() && shutdown) {
        return Err(
            "at least one input is required: FILE, --circuit, --layout or --gds".to_string(),
        );
    }
    // Memoization defaults to on; capacity tweaks without memoization (and
    // a zero-entry cache) are contradictions, reported as the pipeline's
    // typed configuration errors.
    let memo = memo.unwrap_or(true);
    if let Some(capacity) = memo_capacity {
        if !memo {
            return Err(ConfigError::MemoCapacityWithoutMemo.to_string());
        }
        if capacity == 0 {
            return Err(ConfigError::MemoCapacity { capacity }.to_string());
        }
    }
    // Tiling contradictions are the pipeline's typed configuration errors.
    if no_tile && (tile_size.is_some() || halo.is_some()) {
        return Err(ConfigError::TileFlagsWithNoTile.to_string());
    }
    if halo.is_some() && tile_size.is_none() {
        return Err(ConfigError::TileHaloWithoutTiling.to_string());
    }
    if let Some(size) = tile_size {
        let mut tiling = TileConfig::new(Nm(size));
        if let Some(halo) = halo {
            tiling = tiling.with_halo(Nm(halo));
        }
        tiling.validate().map_err(|error| error.to_string())?;
    }
    // Hierarchy contradictions use the same typed vocabulary.
    if hier && no_hier {
        return Err(ConfigError::HierFlagsWithNoHier.to_string());
    }
    if hier && (tile_size.is_some() || halo.is_some()) {
        return Err(ConfigError::HierWithTiling.to_string());
    }
    Ok(Options {
        inputs,
        gds_input,
        k,
        algorithm,
        alpha,
        threads,
        progress,
        json,
        stitches,
        balance,
        verify,
        memo,
        memo_capacity: memo_capacity.unwrap_or(MemoCache::DEFAULT_CAPACITY),
        tile_size,
        halo,
        hier,
        output,
        output_gds,
        connect,
        executor_choice: executor_choice.unwrap_or_default(),
        shutdown,
        deadline_ms,
    })
}

/// A loaded input: the flat layout plus, with `--hier`, its GDSII
/// cell-instance hierarchy.
type LoadedLayout = (Layout, Option<Arc<LayoutHierarchy>>);

/// Loads every input as a [`Layout`] for local decomposition (the
/// pre-`--connect` behaviour): circuits generate, files load through the
/// shared format-dispatching reader.  With `--hier`, GDSII inputs carry
/// their cell-instance provenance alongside (other inputs get `None` and
/// degenerate to the memoized flat run).
fn load_local_layouts(options: &Options, tech: &Technology) -> Result<Vec<LoadedLayout>, String> {
    let mut layouts = Vec::with_capacity(options.inputs.len());
    let mut any_gds = false;
    for input in &options.inputs {
        let (layout, hierarchy) = match input {
            InputSpec::Circuit(circuit) => (circuit.generate(tech), None),
            InputSpec::Path { path, force_gds } => {
                let (layout, hierarchy, is_gds) =
                    read_layout(path, &options.gds_input, *force_gds, options.hier)?;
                any_gds |= is_gds;
                (layout, hierarchy.map(Arc::new))
            }
        };
        if layout.is_empty() {
            return Err(format!("input {:?} contains no shapes", layout.name()));
        }
        layouts.push((layout, hierarchy));
    }
    // A --layer/--top selection that never met a GDS input would be a
    // silent no-op; reject it (the GDS loads above already applied it).
    if (!options.gds_input.layer_specs.is_empty() || options.gds_input.top.is_some()) && !any_gds {
        return Err(
            "--layer/--top only apply to GDSII inputs, but no input is a GDSII file".to_string(),
        );
    }
    Ok(layouts)
}

/// Streams one stderr line per finished component (`--progress`), tagged
/// with the layout it belongs to.
///
/// Parallel executors call the observer from worker threads, so the counter
/// is atomic.
struct StderrProgress {
    names: Vec<String>,
    total: usize,
    finished: AtomicUsize,
}

impl DecompositionObserver for StderrProgress {
    fn batch_started(&self, layouts: usize, tasks: usize) {
        if layouts > 1 {
            eprintln!("batch: {layouts} layouts, {tasks} component tasks in one shared queue");
        }
    }

    fn component_started(&self, layout: LayoutId, task: &ComponentTask) {
        if task.vertex_count() >= 1000 {
            eprintln!(
                "{}: component {} started ({} vertices)",
                self.names[layout.index()],
                task.index(),
                task.vertex_count()
            );
        }
    }

    fn component_finished(&self, layout: LayoutId, task: &ComponentTask, stats: &ComponentStats) {
        let finished = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[{finished}/{}] {}: component {}: {} vertices, cn#={} st#={} in {:.3}s",
            self.total,
            self.names[layout.index()],
            task.index(),
            stats.vertex_count,
            stats.conflicts,
            stats.stitches,
            stats.time.as_secs_f64()
        );
    }

    fn batch_finished(&self, results: &[(LayoutId, DecompositionResult)]) {
        if results.len() > 1 {
            eprintln!("batch: all {} layouts finished", results.len());
        }
    }
}

/// Streams one stderr line per finished piece of a partitioned run
/// (`--progress` with `--tile-size` or `--hier`), tagged with the
/// partitioner and the layout it belongs to.
struct StderrPieceProgress {
    kind: &'static str,
    names: Vec<String>,
}

impl ProgressSink for StderrPieceProgress {
    fn component_done(&self, layout: LayoutId, done: usize, total: usize) {
        eprintln!(
            "[{} {done}/{total}] {}",
            self.kind,
            self.names[layout.index()]
        );
    }
}

/// Renders the machine-readable summary of one layout's decomposition.
///
/// `conflicts`/`stitches`/`cost`/`component_breakdown` describe the raw
/// decomposition; when `balance` is present, `masks` (and
/// `spacing_violations`, if verification ran) describe the *rebalanced*
/// coloring, and the `balance` object records the difference.
///
/// With memoization on, `memo_hits`/`memo_misses` count this layout's
/// components stamped from (respectively colored into) the cache, and
/// `memo_cache` snapshots the run-wide cache — the same snapshot on every
/// layout of a batch, since the batch shares one cache.
///
/// With `--tile-size`, a nested `tiles` object reports the tiler's grid
/// and reconciliation statistics; with `--hier`, a nested `hierarchy`
/// object reports the hierarchical driver's split and reconciliation
/// statistics.
#[allow(clippy::too_many_arguments)]
fn render_json(
    result: &DecompositionResult,
    masks: &[mpl_core::Mask],
    violations: Option<usize>,
    balance: Option<&mpl_core::BalanceReport>,
    memo_stats: Option<&MemoStats>,
    tile: Option<&TileStats>,
    hier: Option<&HierStats>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"layout\": \"{}\",\n",
        json_escape(result.layout_name())
    ));
    out.push_str(&format!("  \"algorithm\": \"{}\",\n", result.algorithm()));
    out.push_str(&format!(
        "  \"executor\": \"{}\",\n",
        json_escape(result.executor())
    ));
    out.push_str(&format!("  \"k\": {},\n", result.k()));
    out.push_str(&format!("  \"vertices\": {},\n", result.vertex_count()));
    out.push_str(&format!(
        "  \"conflict_edges\": {},\n",
        result.conflict_edge_count()
    ));
    out.push_str(&format!(
        "  \"stitch_edges\": {},\n",
        result.stitch_edge_count()
    ));
    out.push_str(&format!(
        "  \"components\": {},\n",
        result.component_count()
    ));
    out.push_str(&format!("  \"conflicts\": {},\n", result.conflicts()));
    out.push_str(&format!("  \"stitches\": {},\n", result.stitches()));
    out.push_str(&format!("  \"cost\": {},\n", result.cost()));
    out.push_str(&format!(
        "  \"graph_seconds\": {},\n",
        result.graph_time().as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"color_seconds\": {},\n",
        result.color_time().as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"simplify\": {{\"hidden_vertices\": {}, \"kernel_vertices\": {}, \
         \"rounds\": {}}},\n",
        result.hidden_vertices(),
        result.kernel_vertices(),
        result.simplify_rounds()
    ));
    out.push_str(&format!(
        "  \"bound_improvements\": {},\n",
        result.bound_improvements()
    ));
    if let Some(stats) = tile {
        out.push_str(&format!(
            "  \"tiles\": {{\"grid_x\": {}, \"grid_y\": {}, \"tiles\": {}, \
             \"tiled_components\": {}, \"resident_components\": {}, \
             \"shared_vertices\": {}, \"permuted_tiles\": {}, \
             \"recolored_vertices\": {}, \"cross_conflicts_before\": {}, \
             \"cross_conflicts_after\": {}}},\n",
            stats.grid_x,
            stats.grid_y,
            stats.tiles,
            stats.tiled_components,
            stats.resident_components,
            stats.shared_vertices,
            stats.permuted_tiles,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after
        ));
    }
    if let Some(stats) = hier {
        out.push_str(&format!(
            "  \"hierarchy\": {{\"instances\": {}, \"cells\": {}, \
             \"nested_inherited\": {}, \
             \"resident_components\": {}, \"split_components\": {}, \
             \"instance_pieces\": {}, \"boundary_vertices\": {}, \
             \"permuted_pieces\": {}, \"recolored_vertices\": {}, \
             \"cross_conflicts_before\": {}, \"cross_conflicts_after\": {}}},\n",
            stats.instances,
            stats.cells,
            stats.nested_inherited,
            stats.resident_components,
            stats.split_components,
            stats.instance_pieces,
            stats.boundary_vertices,
            stats.permuted_pieces,
            stats.recolored_vertices,
            stats.cross_conflicts_before,
            stats.cross_conflicts_after
        ));
    }
    if let (Some(hits), Some(misses)) = (result.memo_hits(), result.memo_misses()) {
        out.push_str(&format!("  \"memo_hits\": {hits},\n"));
        out.push_str(&format!("  \"memo_misses\": {misses},\n"));
    }
    if let Some(stats) = memo_stats {
        out.push_str(&format!(
            "  \"memo_cache\": {{\"entries\": {}, \"capacity\": {}, \"hits\": {}, \
             \"misses\": {}, \"evictions\": {}, \"bytes\": {}}},\n",
            stats.entries, stats.capacity, stats.hits, stats.misses, stats.evictions, stats.bytes
        ));
    }
    if let Some(violations) = violations {
        out.push_str(&format!("  \"spacing_violations\": {violations},\n"));
    }
    if let Some(balance) = balance {
        out.push_str(&format!(
            "  \"balance\": {{\"moves\": {}, \"imbalance_before\": {}, \"imbalance_after\": {}}},\n",
            balance.moves, balance.imbalance_before, balance.imbalance_after
        ));
    }
    out.push_str("  \"masks\": [");
    for (index, mask) in masks.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"index\": {}, \"features\": {}, \"area\": {}}}",
            mask.index,
            mask.feature_count(),
            mask.area
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"component_breakdown\": [");
    for (index, stats) in result.component_stats().iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"index\": {}, \"vertices\": {}, \"conflicts\": {}, \"stitches\": {}, \"seconds\": {}}}",
            stats.index,
            stats.vertex_count,
            stats.conflicts,
            stats.stitches,
            stats.time.as_secs_f64()
        ));
    }
    out.push_str("]\n}");
    out
}

/// Inserts the batch index before the path's extension when the batch has
/// more than one layout (`out.gds` → `out.2.gds`); single-layout batches
/// keep the path unchanged.
fn per_layout_path(path: &str, index: usize, batch_size: usize) -> String {
    if batch_size <= 1 {
        return path.to_string();
    }
    match path.rfind('.') {
        // A dot inside the final path component splits name from extension;
        // a dot before the last separator (e.g. `./out`) does not count.
        Some(dot) if !path[dot..].contains('/') && dot > 0 => {
            format!("{}.{index}{}", &path[..dot], &path[dot..])
        }
        _ => format!("{path}.{index}"),
    }
}

/// Everything `main` needs from one layout's post-processing.
struct LayoutArtifacts {
    json: String,
    verify_mismatch: bool,
    /// The first failed `--output`/`--output-gds` write, if any (reported
    /// after the JSON summary is printed, so machine consumers still get
    /// their output).
    write_error: Option<String>,
}

/// Post-processes one layout of the batch: balance, mask extraction,
/// verification and file outputs.  Returns the JSON fragment (always
/// rendered; cheap), whether verification disagreed with the reported
/// conflicts (in which case the suspect coloring is *not* written to any
/// output file), and any failed output write.
#[allow(clippy::too_many_arguments)]
fn process_layout(
    options: &Options,
    tech: &Technology,
    layout: &Layout,
    plan: &DecompositionPlan,
    result: &DecompositionResult,
    memo_stats: Option<&MemoStats>,
    tile: Option<&TileStats>,
    hier: Option<&HierStats>,
    index: usize,
    batch_size: usize,
) -> LayoutArtifacts {
    if !options.json {
        println!(
            "{}: {} shapes, K = {}, algorithm = {}, executor = {}",
            result.layout_name(),
            layout.shape_count(),
            result.k(),
            result.algorithm(),
            result.executor()
        );
        let largest = plan
            .tasks()
            .iter()
            .map(ComponentTask::vertex_count)
            .max()
            .unwrap_or(0);
        println!(
            "graph: {} vertices, {} conflict edges, {} stitch candidates, {} components (largest {})",
            result.vertex_count(),
            result.conflict_edge_count(),
            result.stitch_edge_count(),
            result.component_count(),
            largest
        );
        println!(
            "result: {} conflicts, {} stitches (cost {:.2}) in {:.3}s + {:.3}s",
            result.conflicts(),
            result.stitches(),
            result.cost(),
            result.graph_time().as_secs_f64(),
            result.color_time().as_secs_f64()
        );
        if let (Some(hits), Some(misses)) = (result.memo_hits(), result.memo_misses()) {
            println!("memo: {hits} components stamped from cache, {misses} colored fresh");
        }
        if let Some(stats) = tile {
            println!(
                "tiling: {}x{} grid, {} tiles over {} spanning components \
                 ({} resident), {} halo-shared vertices",
                stats.grid_x,
                stats.grid_y,
                stats.tiles,
                stats.tiled_components,
                stats.resident_components,
                stats.shared_vertices
            );
            println!(
                "reconcile: {} tiles permuted, {} vertices recolored, \
                 cross-window conflicts {} -> {}",
                stats.permuted_tiles,
                stats.recolored_vertices,
                stats.cross_conflicts_before,
                stats.cross_conflicts_after
            );
        }
        if let Some(stats) = hier {
            println!(
                "hierarchy: {} instances of {} cells, {} resident components, \
                 {} split into {} instance pieces + {} boundary vertices",
                stats.instances,
                stats.cells,
                stats.resident_components,
                stats.split_components,
                stats.instance_pieces,
                stats.boundary_vertices
            );
            if stats.nested_inherited > 0 {
                println!(
                    "hierarchy: {} shapes inherited their tag through nested \
                     references (attributed to the enclosing instance)",
                    stats.nested_inherited
                );
            }
            println!(
                "reconcile: {} pieces permuted, {} vertices recolored, \
                 cross-instance conflicts {} -> {}",
                stats.permuted_pieces,
                stats.recolored_vertices,
                stats.cross_conflicts_before,
                stats.cross_conflicts_after
            );
        }
    }

    let graph = plan.graph();
    let mut colors = result.colors().to_vec();

    let mut balance_report = None;
    if options.balance {
        let report = rebalance_masks(graph, &mut colors);
        if !options.json {
            println!(
                "balance: {} moves, imbalance {:.3} -> {:.3}",
                report.moves, report.imbalance_before, report.imbalance_after
            );
        }
        balance_report = Some(report);
    }

    let masks = extract_masks(graph, &colors);
    if !options.json {
        for mask in &masks {
            println!(
                "  mask {}: {} features, {} nm² area",
                mask.index,
                mask.feature_count(),
                mask.area
            );
        }
    }

    let mut verified_violations = None;
    let mut verify_mismatch = false;
    if options.verify {
        let violations = verify_spacing(graph, &colors, tech.coloring_distance(options.k));
        verified_violations = Some(violations.len());
        if !options.json {
            println!(
                "verification: {} same-mask spacing violations",
                violations.len()
            );
            for violation in violations.iter().take(10) {
                println!("  {violation}");
            }
        }
        if violations.len() != result.conflicts() && !options.balance {
            eprintln!(
                "warning: {}: verification count {} differs from reported conflicts {}",
                result.layout_name(),
                violations.len(),
                result.conflicts()
            );
            verify_mismatch = true;
        }
    }

    // A verification mismatch means the coloring is suspect: never write
    // it to an output file (the process will exit with failure anyway).
    let mut write_error = None;
    if let (Some(path), false) = (&options.output, verify_mismatch) {
        let path = per_layout_path(path, index, batch_size);
        let mut text = String::new();
        text.push_str(&format!("# masks {} {}\n", result.layout_name(), options.k));
        for (vertex, &color) in colors.iter().enumerate() {
            text.push_str(&format!(
                "{} {} {}\n",
                graph.shape_of(VertexId(vertex)).index(),
                vertex,
                color
            ));
        }
        match std::fs::write(&path, text) {
            Ok(()) if !options.json => println!("mask assignment written to {path}"),
            Ok(()) => {}
            Err(error) => write_error = Some(format!("cannot write {path}: {error}")),
        }
    }

    if let (Some(path), false, None) = (&options.output_gds, verify_mismatch, &write_error) {
        let path = per_layout_path(path, index, batch_size);
        let mut per_mask = vec![Vec::new(); options.k];
        for mask in &masks {
            for &vertex in &mask.vertices {
                per_mask[mask.index].push(graph.polygon(vertex).clone());
            }
        }
        match mpl_gds::write_colored_file(
            &path,
            result.layout_name(),
            &per_mask,
            COLORED_BASE_LAYER,
        ) {
            Ok(()) if !options.json => println!(
                "colored GDS written to {path} (mask k on layer {}+k)",
                COLORED_BASE_LAYER
            ),
            Ok(()) => {}
            Err(error) => write_error = Some(format!("cannot write {path}: {error}")),
        }
    }

    LayoutArtifacts {
        json: render_json(
            result,
            &masks,
            verified_violations,
            balance_report.as_ref(),
            memo_stats,
            tile,
            hier,
        ),
        verify_mismatch,
        write_error,
    }
}

/// One submission built from a CLI input for `--connect` mode.
struct WireInput {
    id: String,
    label: String,
    source: LayoutSource,
}

/// Turns the CLI inputs into wire submissions: circuits and text files
/// travel inline as layout text, GDSII files as base64 of the raw stream
/// (the server parses them; `--layer`/`--top` are local-mode-only).
fn build_wire_inputs(options: &Options, tech: &Technology) -> Result<Vec<WireInput>, String> {
    options
        .inputs
        .iter()
        .enumerate()
        .map(|(index, input)| {
            let (label, source) = match input {
                InputSpec::Circuit(circuit) => {
                    let layout = circuit.generate(tech);
                    (
                        layout.name().to_string(),
                        LayoutSource::Text(mpl_layout::io::to_text(&layout)),
                    )
                }
                InputSpec::Path { path, force_gds } => {
                    let bytes =
                        std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                    let is_gds = LayoutFormat::detect(path, &bytes) == LayoutFormat::Gds;
                    if *force_gds && !is_gds {
                        return Err(format!(
                            "{path} is not a GDSII stream (missing HEADER record)"
                        ));
                    }
                    if is_gds {
                        (
                            path.clone(),
                            LayoutSource::GdsBase64(mpl_serve::base64::encode(&bytes)),
                        )
                    } else {
                        let text = String::from_utf8(bytes)
                            .map_err(|_| format!("cannot parse {path}: not valid UTF-8 text"))?;
                        (path.clone(), LayoutSource::Text(text))
                    }
                }
            };
            Ok(WireInput {
                id: index.to_string(),
                label,
                source,
            })
        })
        .collect()
}

/// Renders the connect-mode JSON summary (one object per result, without
/// the full color array — clients that need colors speak the protocol
/// directly).
fn render_connect_json(
    addr: &str,
    results: &[Option<ResultPayload>],
    cancelled: &[(String, usize, usize, u64)],
    errors: &[(Option<String>, String, String)],
) -> String {
    let results_json: Vec<Json> = results
        .iter()
        .flatten()
        .map(|payload| {
            // One source of truth for the field list: the wire encoder.
            // The CLI summary only strips the frame discriminator and the
            // bulky per-vertex color array.
            let mut json = mpl_serve::encode_response(&Response::Result(payload.clone()));
            if let Json::Object(pairs) = &mut json {
                pairs.retain(|(key, _)| key != "type" && key != "colors");
            }
            json
        })
        .collect();
    let cancelled_json: Vec<Json> = cancelled
        .iter()
        .map(|(id, completed, skipped, bnb_nodes)| {
            Json::object(vec![
                ("id", Json::string(id.clone())),
                ("components_completed", Json::Number(*completed as f64)),
                ("components_skipped", Json::Number(*skipped as f64)),
                ("bnb_nodes", Json::Number(*bnb_nodes as f64)),
            ])
        })
        .collect();
    let errors_json: Vec<Json> = errors
        .iter()
        .map(|(id, code, message)| {
            Json::object(vec![
                (
                    "id",
                    id.as_ref()
                        .map_or(Json::Null, |id| Json::string(id.clone())),
                ),
                ("code", Json::string(code.clone())),
                ("message", Json::string(message.clone())),
            ])
        })
        .collect();
    Json::object(vec![
        ("connect", Json::string(addr)),
        ("results", Json::Array(results_json)),
        ("cancelled", Json::Array(cancelled_json)),
        ("errors", Json::Array(errors_json)),
    ])
    .to_string()
}

/// Client mode: stream the inputs to a running `qpl-serve` and report the
/// results as they come back.
fn run_connect(addr: &str, options: &Options, tech: &Technology) -> ExitCode {
    let wire_inputs = match build_wire_inputs(options, tech) {
        Ok(inputs) => inputs,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("cannot connect to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };

    for input in &wire_inputs {
        let mut submit = SubmitRequest::new(input.id.clone(), input.source.clone());
        submit.k = options.k;
        submit.algorithm = options.algorithm;
        submit.alpha = options.alpha;
        submit.executor = options.executor_choice;
        submit.progress = options.progress;
        submit.verify = options.verify;
        submit.tile_size = options.tile_size;
        submit.halo = options.halo;
        submit.hier = options.hier;
        submit.deadline_ms = options.deadline_ms;
        if let Err(error) = client.send(&Request::Submit(submit)) {
            eprintln!("cannot send to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    }

    let index_of = |id: &str| wire_inputs.iter().position(|input| input.id == *id);
    let label_of =
        |id: &str| index_of(id).map_or_else(|| id.to_string(), |i| wire_inputs[i].label.clone());
    let mut results: Vec<Option<ResultPayload>> = wire_inputs.iter().map(|_| None).collect();
    let mut errors: Vec<(Option<String>, String, String)> = Vec::new();
    let mut cancelled: Vec<(String, usize, usize, u64)> = Vec::new();
    let mut remaining = wire_inputs.len();
    while remaining > 0 {
        match client.recv() {
            Ok(Response::Queued {
                id,
                layout,
                vertices,
                components,
            }) => {
                if !options.json {
                    eprintln!(
                        "queued {}: layout {layout}, {vertices} vertices, {components} components",
                        label_of(&id)
                    );
                }
            }
            Ok(Response::Progress { id, done, total }) => {
                if options.progress {
                    eprintln!("[{done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::TileProgress { id, done, total }) => {
                if options.progress {
                    eprintln!("[tile {done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::HierProgress { id, done, total }) => {
                if options.progress {
                    eprintln!("[hier {done}/{total}] {}", label_of(&id));
                }
            }
            Ok(Response::Result(payload)) => match index_of(&payload.id) {
                Some(index) if results[index].is_none() => {
                    results[index] = Some(payload);
                    remaining -= 1;
                }
                _ => {
                    eprintln!("unexpected result for id {:?}", payload.id);
                    return ExitCode::FAILURE;
                }
            },
            Ok(Response::Cancelled {
                id,
                components_completed,
                components_skipped,
                bnb_nodes,
            }) => {
                eprintln!(
                    "{}: cancelled ({components_completed} components completed, \
                     {components_skipped} skipped, {bnb_nodes} B&B nodes)",
                    label_of(&id)
                );
                let tagged = index_of(&id);
                cancelled.push((id, components_completed, components_skipped, bnb_nodes));
                match tagged {
                    Some(index) if results[index].is_none() => remaining -= 1,
                    _ => {}
                }
            }
            Ok(Response::Error { id, code, message }) => {
                eprintln!(
                    "{}: {} error: {message}",
                    id.as_deref().map_or_else(|| "server".to_string(), label_of),
                    code.as_str()
                );
                let tagged = id.as_deref().and_then(index_of);
                errors.push((id, code.as_str().to_string(), message));
                match tagged {
                    Some(index) if results[index].is_none() => remaining -= 1,
                    // An untagged (or duplicate) error cannot be matched to
                    // a pending submission; keep waiting for the rest.
                    _ => {}
                }
            }
            Ok(_) => {}
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        }
    }

    if options.shutdown {
        if let Err(error) = client.shutdown() {
            eprintln!("shutdown failed: {error}");
            return ExitCode::FAILURE;
        }
        if !options.json {
            eprintln!("server at {addr} is shutting down");
        }
    }

    if options.json {
        println!(
            "{}",
            render_connect_json(addr, &results, &cancelled, &errors)
        );
    } else {
        for (input, result) in wire_inputs.iter().zip(&results) {
            let Some(payload) = result else { continue };
            println!(
                "{}: layout {}, K = {}, algorithm = {}, executor = {}",
                input.label, payload.layout, payload.k, payload.algorithm, payload.executor
            );
            println!(
                "  {} vertices, {} components, {} conflicts, {} stitches (cost {:.2}) in {:.3}s",
                payload.vertices,
                payload.components,
                payload.conflicts,
                payload.stitches,
                payload.cost,
                payload.color_seconds
            );
            if payload.deadline_exceeded || payload.cancelled {
                println!(
                    "  partial: {} of {} components completed, {} skipped{}",
                    payload.components_completed,
                    payload.components,
                    payload.components_skipped,
                    if payload.deadline_exceeded {
                        " (deadline exceeded)"
                    } else {
                        " (cancelled)"
                    }
                );
            }
            if let Some(violations) = payload.spacing_violations {
                println!("  verification: {violations} same-mask spacing violations");
            }
            if let Some(tiles) = &payload.tiles {
                println!(
                    "  tiling: {}x{} grid, {} tiles ({} spanning, {} resident), \
                     cross-window conflicts {} -> {}",
                    tiles.grid_x,
                    tiles.grid_y,
                    tiles.tiles,
                    tiles.tiled_components,
                    tiles.resident_components,
                    tiles.cross_conflicts_before,
                    tiles.cross_conflicts_after
                );
            }
            if let Some(hierarchy) = &payload.hierarchy {
                println!(
                    "  hierarchy: {} instances of {} cells ({} split, {} resident), \
                     cross-instance conflicts {} -> {}",
                    hierarchy.instances,
                    hierarchy.cells,
                    hierarchy.split_components,
                    hierarchy.resident_components,
                    hierarchy.cross_conflicts_before,
                    hierarchy.cross_conflicts_after
                );
            }
        }
    }
    // A cancelled submission produced no colors; like an error, that is a
    // non-success exit (deadline-exceeded *partial results* still count as
    // success — the flags travel in the JSON for callers that care).
    if errors.is_empty() && cancelled.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let tech = Technology::nm20();
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(addr) = options.connect.clone() {
        return run_connect(&addr, &options, &tech);
    }

    let layouts = match load_local_layouts(&options, &tech) {
        Ok(layouts) => layouts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = DecomposerConfig::k_patterning(options.k, tech)
        .with_algorithm(options.algorithm)
        .with_alpha(options.alpha);
    if !options.stitches {
        config.stitch = StitchConfig::disabled();
    }

    // The executor is part of the typed-error surface: `--threads 0` is a
    // ConfigError, not a panic.
    let executor: Box<dyn Executor> = match options.threads {
        None => Box::new(SerialExecutor),
        Some(threads) => match ThreadPoolExecutor::new(threads) {
            Ok(pool) => Box::new(pool),
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Stage 1: plan every input and submit it to one shared session.
    // Invalid configurations (e.g. `--k 1`, negative `--alpha`) and
    // degenerate layouts surface here as typed errors.
    let decomposer = Decomposer::new(config);
    let memo = options
        .memo
        .then(|| Arc::new(MemoCache::new(options.memo_capacity)));
    let mut session = DecompositionSession::new();
    if let Some(cache) = &memo {
        session = session.with_memo(Arc::clone(cache));
    }
    for (layout, hierarchy) in &layouts {
        match session.submit_layout(&decomposer, layout) {
            Ok(id) => session.set_hierarchy(id, hierarchy.clone()),
            Err(error) => {
                eprintln!("{}: {error}", layout.name());
                return ExitCode::FAILURE;
            }
        }
    }

    // Stage 2: drain the whole batch through the executor, optionally with
    // progress reporting.  With --tile-size the batch routes through the
    // halo-aware tiler, with --hier through the cell-level hierarchical
    // driver, instead of the plain session run.
    let tiling = options.tile_size.map(|size| {
        let mut tiling = TileConfig::new(Nm(size));
        if let Some(halo) = options.halo {
            tiling = tiling.with_halo(Nm(halo));
        }
        tiling
    });
    session.set_tiling(tiling);
    let layout_names = || -> Vec<String> {
        layouts
            .iter()
            .map(|(layout, _)| layout.name().to_string())
            .collect()
    };
    let batch_start = Instant::now();
    type BatchOutcome = (
        Vec<(LayoutId, DecompositionResult)>,
        Option<Vec<TileStats>>,
        Option<Vec<HierStats>>,
    );
    let (results, tile_stats, hier_stats): BatchOutcome = if options.hier {
        let outcome = if options.progress {
            let progress = StderrPieceProgress {
                kind: "hier",
                names: layout_names(),
            };
            mpl_hier::run_hier_observed(&session, executor.as_ref(), &progress)
        } else {
            mpl_hier::run_hier(&session, executor.as_ref())
        };
        match outcome {
            Ok(hier) => {
                let mut stats = Vec::with_capacity(hier.len());
                let results = hier
                    .into_iter()
                    .map(|(id, hier)| {
                        stats.push(hier.stats);
                        (id, hier.result)
                    })
                    .collect();
                (results, None, Some(stats))
            }
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        }
    } else if tiling.is_some() {
        let outcome = if options.progress {
            let progress = StderrPieceProgress {
                kind: "tile",
                names: layout_names(),
            };
            mpl_tile::run_tiled_observed(&session, executor.as_ref(), &progress)
        } else {
            mpl_tile::run_tiled(&session, executor.as_ref())
        };
        match outcome {
            Ok(tiled) => {
                let mut stats = Vec::with_capacity(tiled.len());
                let results = tiled
                    .into_iter()
                    .map(|(id, tiled)| {
                        stats.push(tiled.stats);
                        (id, tiled.result)
                    })
                    .collect();
                (results, Some(stats), None)
            }
            Err(error) => {
                eprintln!("{error}");
                return ExitCode::FAILURE;
            }
        }
    } else if options.progress {
        let observer = StderrProgress {
            names: layout_names(),
            total: session.task_count(),
            finished: AtomicUsize::new(0),
        };
        (
            session.run_observed(executor.as_ref(), &observer),
            None,
            None,
        )
    } else {
        (session.run(executor.as_ref()), None, None)
    };
    let batch_wall = batch_start.elapsed();
    let memo_stats = memo.as_ref().map(|cache| cache.stats());

    let batch_size = results.len();
    let mut any_mismatch = false;
    let mut write_errors = Vec::new();
    let mut layout_json = Vec::with_capacity(batch_size);
    for (index, (id, result)) in results.iter().enumerate() {
        if !options.json && index > 0 {
            println!();
        }
        let plan = session.plan(*id).expect("session keeps every plan");
        let artifacts = process_layout(
            &options,
            &tech,
            &layouts[index].0,
            plan,
            result,
            memo_stats.as_ref(),
            tile_stats.as_ref().map(|stats| &stats[index]),
            hier_stats.as_ref().map(|stats| &stats[index]),
            index,
            batch_size,
        );
        any_mismatch |= artifacts.verify_mismatch;
        write_errors.extend(artifacts.write_error);
        layout_json.push(artifacts.json);
    }

    if options.json {
        if batch_size == 1 {
            // The single-layout summary keeps the pre-batch shape.
            println!("{}", layout_json[0]);
        } else {
            let components = session.task_count();
            let wall = batch_wall.as_secs_f64();
            let mut out = String::from("{\n\"batch\": {\n");
            out.push_str(&format!("  \"layouts\": {batch_size},\n"));
            out.push_str(&format!("  \"components\": {components},\n"));
            out.push_str(&format!(
                "  \"executor\": \"{}\",\n",
                json_escape(executor.name())
            ));
            out.push_str(&format!("  \"wall_seconds\": {wall},\n"));
            out.push_str(&format!(
                "  \"layouts_per_sec\": {},\n",
                batch_size as f64 / wall.max(1e-12)
            ));
            out.push_str(&format!(
                "  \"components_per_sec\": {}\n",
                components as f64 / wall.max(1e-12)
            ));
            out.push_str("},\n\"layouts\": [\n");
            out.push_str(&layout_json.join(",\n"));
            out.push_str("\n]\n}");
            println!("{out}");
        }
    } else if batch_size > 1 {
        println!(
            "\nbatch: {} layouts, {} component tasks in {:.3}s on {} ({:.1} layouts/s, {:.1} components/s)",
            batch_size,
            session.task_count(),
            batch_wall.as_secs_f64(),
            executor.name(),
            batch_size as f64 / batch_wall.as_secs_f64().max(1e-12),
            session.task_count() as f64 / batch_wall.as_secs_f64().max(1e-12)
        );
    }
    if !options.json {
        if let Some(stats) = &memo_stats {
            println!(
                "memo cache: {} entries, {} hits, {} misses, {} evictions ({} bytes)",
                stats.entries, stats.hits, stats.misses, stats.evictions, stats.bytes
            );
        }
    }

    // Write failures are reported *after* the JSON summary so machine
    // consumers always get their output; they still fail the process.
    for message in &write_errors {
        eprintln!("{message}");
    }
    if any_mismatch || !write_errors.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
