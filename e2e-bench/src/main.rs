//! End-to-end and per-layer benchmark of the K-patterning decomposer.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <chip-flat|lattice|served-mixed> --seed <n> --seconds <s> \
//!     --trace <0|1> [--holdout-seed <n>]
//! ```
//!
//! Inputs are generated from the seed; the program under test receives
//! only their bytes.  The run repeats the workload's item set in passes
//! until `--seconds` of measured time and enough samples for the tail
//! percentile have accumulated, checks every output, and prints one JSON
//! object as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  See README.md for
//! the workloads, layers and metrics.

mod inproc;
mod inputs;
mod served;
mod stats;
mod trace;

use inproc::Counts;
use mpl_serve::Json;
use stats::{median, peak_rss_mb, percentile, samples_for_tail, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Trace, LAYERS};

/// Set-up is measured this many times before every pass, after as many
/// unmeasured warm-up rounds, and reported as the median of all of them:
/// samples spread over the run average out machine phases that a burst
/// of samples would catch whole.
const SETUP_REPS: usize = 25;

/// The child-process mode that in-process set-up is timed on.
const READY_FLAG: &str = "--ready";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ChipFlat,
    Lattice,
    ServedMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "chip-flat" => Ok(Workload::ChipFlat),
            "lattice" => Ok(Workload::Lattice),
            "served-mixed" => Ok(Workload::ServedMixed),
            other => Err(format!(
                "unknown workload {other:?} (expected chip-flat, lattice or served-mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ChipFlat => "chip-flat",
            Workload::Lattice => "lattice",
            Workload::ServedMixed => "served-mixed",
        }
    }

    /// The tail percentile reported for this workload.  It is fixed, not
    /// derived from the sample count, so two commits report the same
    /// percentile; the run extends until ten samples lie beyond it.
    fn tail(self) -> f64 {
        match self {
            Workload::ChipFlat => 0.90,
            Workload::Lattice | Workload::ServedMixed => 0.80,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    holdout: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut holdout = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag}: {text:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--holdout-seed" => holdout = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(35);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
        holdout,
    })
}

/// One measured item (a layout or a request), whichever path ran it.
#[derive(Debug, Default)]
struct Sample {
    turnaround: f64,
    request: f64,
    admit: f64,
    finish: f64,
    shapes: usize,
    /// Item class, for the per-class breakdown printed beside the metrics.
    class: &'static str,
    ok: bool,
    timings: Vec<(&'static str, f64)>,
}

/// One pass over the workload's item set.
#[derive(Debug, Default)]
struct Pass {
    samples: Vec<Sample>,
    wall: f64,
    counts: Counts,
    failures: Vec<String>,
    setup: Option<f64>,
    component_busy: f64,
    execute_wall: f64,
}

/// A workload's item set, ready to run pass after pass.
enum Items {
    InProcess(Vec<inputs::LayoutInput>),
    Served(Vec<inputs::ServedInput>),
}

impl Items {
    fn build(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::ChipFlat => Items::InProcess(inputs::chip_flat(seed)),
            Workload::Lattice => Items::InProcess(inputs::lattice(seed)),
            Workload::ServedMixed => Items::Served(inputs::served_mixed(seed)),
        }
    }

    /// Set-up time of one start of the program, as the user sees it: for
    /// in-process workloads a fresh process (as each CLI run is) started
    /// until it has built what it needs and exited.
    fn setup(&self, threads: usize) -> f64 {
        match self {
            Items::InProcess(_) => {
                let start = Instant::now();
                let status = std::env::current_exe()
                    .and_then(|exe| Command::new(exe).arg(READY_FLAG).status())
                    .expect("start the benchmark's own executable");
                assert!(status.success(), "set-up probe failed: {status}");
                start.elapsed().as_secs_f64()
            }
            Items::Served(_) => {
                let (handle, ready) = served::spawn(threads);
                handle.shutdown().expect("the server shuts down");
                ready.as_secs_f64()
            }
        }
    }

    fn run_pass(&self, threads: usize, trace: Option<&Trace>, item_base: u64) -> Pass {
        match self {
            Items::InProcess(items) => {
                let pool = mpl_core::ThreadPoolExecutor::new(threads).expect("at least one thread");
                let mut pass = Pass::default();
                let start = Instant::now();
                for (index, input) in items.iter().enumerate() {
                    let run = inproc::run_item(input, &pool, trace, item_base + index as u64);
                    for (name, value) in &run.counts {
                        *pass.counts.entry(name).or_default() += value;
                    }
                    pass.component_busy += run.component_busy;
                    pass.execute_wall += run.execute_wall;
                    pass.samples.push(Sample {
                        turnaround: run.turnaround,
                        request: run.request,
                        shapes: run.shapes,
                        class: if input.tile.is_some() {
                            "tiled"
                        } else {
                            "flat"
                        },
                        ok: run.failures.is_empty(),
                        timings: run.timings,
                        ..Sample::default()
                    });
                    pass.failures.extend(run.failures);
                }
                pass.wall = start.elapsed().as_secs_f64();
                pass
            }
            Items::Served(items) => {
                let run = served::run_pass(items, threads, threads, trace, item_base);
                let samples = run
                    .requests
                    .into_iter()
                    .zip(items)
                    .map(|(request, input)| Sample {
                        turnaround: request.turnaround,
                        request: request.request,
                        admit: request.admit,
                        finish: request.finish,
                        shapes: input.shapes,
                        class: input.class.name(),
                        ok: request.result.is_some() && request.failure.is_none(),
                        timings: request.timings,
                    })
                    .collect();
                Pass {
                    samples,
                    wall: run.wall,
                    counts: run.counts,
                    failures: run.failures,
                    setup: Some(run.setup),
                    component_busy: run.component_busy,
                    execute_wall: run.wall,
                }
            }
        }
    }
}

/// Where the benchmark keeps its run records: counters per seed and span
/// files.  Ignored by git.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// FNV-1a of the running executable: counters recorded by one build are
/// only compared with counters of the same build.
fn build_fingerprint() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn counts_json(counts: &Counts) -> Json {
    Json::Object(
        counts
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Number(*value as f64)))
            .collect(),
    )
}

/// Compares `counts` with the record of an earlier run of the same build,
/// workload and seed, then records them.  Returns the mismatches.
fn check_recorded_counts(workload: Workload, seed: u64, counts: &Counts) -> Vec<String> {
    let path = out_dir().join(format!("counters-{}-{seed}.json", workload.name()));
    let fingerprint = build_fingerprint();
    let mut mismatches = Vec::new();
    if let Some(previous) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        if previous.get("build").and_then(Json::as_str) == Some(fingerprint.as_str()) {
            let recorded = previous.get("counts").cloned().unwrap_or(Json::Null);
            if recorded != counts_json(counts) {
                mismatches.push(format!(
                    "seed {seed}: counters differ from an earlier run of this build: \
                     now {}, then {recorded}",
                    counts_json(counts)
                ));
            }
        }
    }
    let record = Json::object(vec![
        ("build", Json::string(fingerprint)),
        ("counts", counts_json(counts)),
    ]);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{record}\n")));
    if let Err(error) = written {
        mismatches.push(format!(
            "cannot record counters in {}: {error}",
            path.display()
        ));
    }
    mismatches
}

/// Pass-to-pass determinism and the certified augmenting-path bound.
fn check_counts(passes: &[Pass]) -> Vec<String> {
    let mut failures = Vec::new();
    let first = &passes[0].counts;
    for (index, pass) in passes.iter().enumerate().skip(1) {
        if &pass.counts != first {
            failures.push(format!(
                "pass {index} counters differ from pass 0: {} vs {}",
                counts_json(&pass.counts),
                counts_json(first)
            ));
        }
    }
    let paths = first.get("division.augmenting_paths").copied().unwrap_or(0);
    let bound = first.get("division.path_bound").copied().unwrap_or(0);
    if paths > bound {
        failures.push(format!(
            "{paths} augmenting paths exceed the n·K bound {bound}"
        ));
    }
    failures
}

fn count(counts: &Counts, name: &str) -> f64 {
    counts.get(name).copied().unwrap_or(0) as f64
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn end_to_end(
    workload: Workload,
    setup: &[f64],
    passes: &[&Pass],
    counts: &Counts,
    metrics: &mut Metrics,
) {
    let samples: Vec<&Sample> = passes.iter().flat_map(|p| &p.samples).collect();
    // Failed items count in `failed`, not in the latency distributions.
    let done: Vec<&&Sample> = samples.iter().filter(|s| s.ok).collect();
    let turnaround: Vec<f64> = done.iter().map(|s| s.turnaround).collect();
    let request: Vec<f64> = done.iter().map(|s| s.request).collect();
    let wall: f64 = passes.iter().map(|p| p.wall).sum();
    let shapes: usize = done.iter().map(|s| s.shapes).sum();
    let q = workload.tail();
    metrics.push("setup_s", median(setup), "s");
    metrics.push("turnaround_p50_s", median(&turnaround), "s");
    metrics.push("turnaround_tail_s", percentile(&turnaround, q), "s");
    metrics.push("request_p50_s", median(&request), "s");
    metrics.push("request_tail_s", percentile(&request, q), "s");
    metrics.push("requests_per_s", done.len() as f64 / wall, "1/s");
    metrics.push("shapes_per_s", shapes as f64 / wall, "1/s");
    metrics.push("conflicts", count(counts, "conflicts"), "count");
    metrics.push("stitches", count(counts, "stitches"), "count");
    metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "tail = p{:.0} over {} samples; {} passes, {:.2} s measured",
        q * 100.0,
        samples.len(),
        passes.len(),
        wall
    );
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sample in &samples {
        by_class
            .entry(sample.class)
            .or_default()
            .push(sample.request);
    }
    for (class, values) in by_class {
        eprintln!(
            "  {class}: request p50 {:.6} s over {} samples",
            median(&values),
            values.len()
        );
    }
}

fn per_layer(
    workload: Workload,
    threads: usize,
    traced: &[&Pass],
    untraced: &[&Pass],
    counts: &Counts,
    trace: &Trace,
    metrics: &mut Metrics,
) {
    let samples: Vec<&Sample> = traced.iter().flat_map(|p| &p.samples).collect();
    let mut timings: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sample in &samples {
        for &(name, value) in &sample.timings {
            timings.entry(name).or_default().push(value);
        }
    }
    let timing = |name: &str| timings.get(name).map_or(0.0, |v| median(v));
    let q = workload.tail();
    let served = workload == Workload::ServedMixed;
    let window = |pick: fn(&Sample) -> f64, tail: bool| -> f64 {
        if !served {
            return 0.0;
        }
        let values: Vec<f64> = samples.iter().map(|s| pick(s)).collect();
        if tail {
            percentile(&values, q)
        } else {
            median(&values)
        }
    };

    metrics.push("ingest.parse_s", timing("ingest.parse_s"), "s");
    metrics.push("ingest.bytes", count(counts, "ingest.bytes"), "bytes");
    metrics.push("serve.admit_p50_s", window(|s| s.admit, false), "s");
    metrics.push("serve.admit_tail_s", window(|s| s.admit, true), "s");
    metrics.push("serve.finish_p50_s", window(|s| s.finish, false), "s");
    metrics.push("serve.finish_tail_s", window(|s| s.finish, true), "s");
    metrics.push("serve.json_parse_s", timing("serve.json_parse_s"), "s");
    metrics.push(
        "serve.frame_bytes",
        count(counts, "serve.frame_bytes"),
        "bytes",
    );
    metrics.push(
        "serve.error_frames",
        count(counts, "serve.error_frames"),
        "count",
    );
    metrics.push(
        "serve.dropped_progress",
        count(counts, "serve.dropped_progress"),
        "count",
    );
    metrics.push("graph.build_s", timing("graph.build_s"), "s");
    for name in [
        "graph.vertices",
        "graph.conflict_edges",
        "graph.stitch_edges",
    ] {
        metrics.push(name, count(counts, name), "count");
    }
    metrics.push("plan.problems_s", timing("plan.problems_s"), "s");
    metrics.push("plan.components", count(counts, "plan.components"), "count");
    let (hits, misses) = (count(counts, "memo.hits"), count(counts, "memo.misses"));
    metrics.push("memo.hits", hits, "count");
    metrics.push("memo.misses", misses, "count");
    metrics.push("memo.hit_ratio", ratio(hits, hits + misses), "ratio");
    metrics.push("memo.evictions", count(counts, "memo.evictions"), "count");
    metrics.push("division.busy_s", timing("division.busy_s"), "s");
    let paths = count(counts, "division.augmenting_paths");
    metrics.push("division.augmenting_paths", paths, "count");
    let bound = count(counts, "division.path_bound");
    metrics.push("division.path_bound_ratio", ratio(paths, bound), "ratio");
    metrics.push(
        "division.hidden_vertices",
        count(counts, "division.hidden_vertices"),
        "count",
    );
    metrics.push("engine.busy_s", timing("engine.busy_s"), "s");
    metrics.push(
        "engine.components",
        count(counts, "engine.components"),
        "count",
    );
    metrics.push(
        "engine.bnb_nodes",
        count(counts, "engine.bnb_nodes"),
        "count",
    );
    let busy: f64 = traced.iter().map(|p| p.component_busy).sum();
    let wall: f64 = traced.iter().map(|p| p.execute_wall).sum();
    metrics.push(
        "executor.utilization",
        ratio(busy, threads as f64 * wall),
        "ratio",
    );
    metrics.push("tile.run_s", timing("tile.run_s"), "s");
    for (name, key) in [
        ("tile.tiles", "tile.tiles"),
        ("tile.permuted", "tile.permuted"),
        ("tile.recolored", "tile.recolored"),
        ("tile.cross_conflicts_after", "tile.cross_conflicts_after"),
        ("hier.instances", "hier.instances"),
        ("hier.recolored", "hier.recolored"),
        ("hier.cross_conflicts_after", "hier.cross_conflicts_after"),
    ] {
        metrics.push(name, count(counts, key), "count");
    }
    metrics.push("verify.spacing_s", timing("verify.spacing_s"), "s");
    metrics.push(
        "verify.violations",
        count(counts, "verify.violations"),
        "count",
    );
    metrics.push("write.gds_s", timing("write.gds_s"), "s");
    metrics.push("write.bytes", count(counts, "write.bytes"), "bytes");

    // Self time per layer as a share of the traced roots (turnaround for
    // in-process items, request time for served ones).
    let self_times = trace.self_times();
    for layer in LAYERS {
        let share = ratio(self_times.layer(layer), self_times.root);
        metrics.push(format!("{}.self_share", layer.name()), share, "ratio");
    }
    let coverage = ratio(self_times.root - self_times.unattributed, self_times.root);
    metrics.push("trace.coverage", coverage, "ratio");
    let root = |passes: &[&Pass]| -> f64 {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.samples)
            .map(|s| if served { s.request } else { s.turnaround })
            .collect();
        median(&values)
    };
    metrics.push("trace.overhead_s", root(traced) - root(untraced), "s");
}

/// Runs one untimed pass of the held-out seed's inputs through every
/// check, and records its counters for later runs to compare against.
fn run_holdout(args: &Args, threads: usize) -> (usize, Vec<String>) {
    let Some(seed) = args.holdout else {
        return (0, Vec::new());
    };
    let items = Items::build(args.workload, seed);
    let pass = items.run_pass(threads, None, 0);
    let mut failures = pass.failures.clone();
    failures.extend(check_recorded_counts(args.workload, seed, &pass.counts));
    eprintln!("held-out seed {seed}: {}", counts_json(&pass.counts));
    (pass.samples.len(), failures)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(READY_FLAG) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        inproc::ready(threads);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let items = Items::build(args.workload, args.seed);

    for _ in 0..SETUP_REPS {
        items.setup(threads);
    }
    let mut setup: Vec<f64> = Vec::new();
    let trace = Trace::new();
    let needed = samples_for_tail(args.workload.tail());
    // With tracing, passes alternate untraced and traced, so the run also
    // measures the tracing overhead.
    let is_traced = |index: usize| args.trace && index % 2 == 1;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        setup.extend((0..SETUP_REPS).map(|_| items.setup(threads)));
        let traced = is_traced(passes.len());
        let base = passes.len() as u64 * 1_000_000;
        let pass = items.run_pass(threads, traced.then_some(&trace), base);
        setup.extend(pass.setup);
        passes.push(pass);
        let (mut wall, mut samples) = ([0.0; 2], [0usize; 2]);
        for (index, pass) in passes.iter().enumerate() {
            let side = usize::from(is_traced(index));
            wall[side] += pass.wall;
            samples[side] += pass.samples.len();
        }
        let done = if args.trace {
            samples[1] >= needed && wall[1] >= args.seconds / 2.0 && wall[0] >= args.seconds / 2.0
        } else {
            samples[0] >= needed && wall[0] >= args.seconds
        };
        if done {
            break;
        }
    }

    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let mut failed: usize = passes
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| !s.ok)
        .count();
    let mut attempted: usize = passes.iter().map(|p| p.samples.len()).sum();
    let counts = passes[0].counts.clone();
    let mut determinism = check_counts(&passes);
    determinism.extend(check_recorded_counts(args.workload, args.seed, &counts));
    let (holdout_attempted, holdout_failures) = run_holdout(&args, threads);
    attempted += holdout_attempted;
    failed += determinism.len() + holdout_failures.len();
    failures.extend(determinism);
    failures.extend(holdout_failures);

    let mut metrics = Metrics::default();
    let traced: Vec<&Pass> = passes
        .iter()
        .enumerate()
        .filter_map(|(index, pass)| is_traced(index).then_some(pass))
        .collect();
    let untraced: Vec<&Pass> = passes
        .iter()
        .enumerate()
        .filter_map(|(index, pass)| (!is_traced(index)).then_some(pass))
        .collect();
    if args.trace {
        per_layer(
            args.workload,
            threads,
            &traced,
            &untraced,
            &counts,
            &trace,
            &mut metrics,
        );
        let path = out_dir().join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(error) => {
                failed += 1;
                failures.push(format!("cannot write spans to {}: {error}", path.display()));
            }
        }
    } else {
        end_to_end(args.workload, &setup, &untraced, &counts, &mut metrics);
    }

    for (name, value, unit) in metrics.iter() {
        eprintln!("{name:>28} {value:>14.6} {unit}");
    }
    for failure in failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    let correct = failed == 0;
    let result = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        (
            "metrics",
            Json::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::object(vec![
                                ("value", Json::Number(*value)),
                                ("unit", Json::string(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
