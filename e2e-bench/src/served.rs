//! The served path: an in-process `qpl-serve` on loopback, driven by a
//! closed loop of client connections — each sends its next `submit` only
//! when the last one resolved, as callers waiting for their coloring do.

use crate::inproc::{self, check_result, component_counts, Counts, K};
use crate::inputs::{ServedInput, Source};
use crate::trace::{Layer, SpanId, Trace};
use mpl_core::{
    verify_spacing, ColorAlgorithm, Decomposer, DecomposerConfig, DecompositionGraph,
    DecompositionSession, MemoCache, ThreadPoolExecutor,
};
use mpl_gds::{layout_with_hierarchy, GdsLibrary, LayerMap, ReadOptions};
use mpl_layout::{io, Layout, LayoutHierarchy, Technology};
use mpl_serve::{decode_request, Client, Json, Response, ResultPayload, Server, ServerConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one request did, as its client saw it.
#[derive(Debug, Default)]
pub struct RequestRun {
    /// Bytes in hand → result decoded (client encoding included).
    pub turnaround: f64,
    /// `submit` sent → terminal frame received.
    pub request: f64,
    /// `submit` sent → `queued` received.
    pub admit: f64,
    /// `queued` → terminal frame.
    pub finish: f64,
    pub result: Option<ResultPayload>,
    pub failure: Option<String>,
    /// Send, `queued` and terminal instants, for the tracer.
    instants: Option<(Instant, Instant, Instant)>,
    /// The finish-window span of a traced request.
    finish_span: Option<SpanId>,
    /// Per-layer seconds replayed for a traced request.
    pub timings: Vec<(&'static str, f64)>,
}

/// One pass over the request set against a fresh server.
#[derive(Debug, Default)]
pub struct PassRun {
    pub requests: Vec<RequestRun>,
    pub wall: f64,
    /// `Server::spawn` until the first `pong`.
    pub setup: f64,
    pub counts: Counts,
    pub component_busy: f64,
    pub failures: Vec<String>,
}

fn decomposer() -> Decomposer {
    Decomposer::new(
        DecomposerConfig::quadruple(Technology::nm20()).with_algorithm(ColorAlgorithm::Linear),
    )
}

/// Decodes a request's layout bytes as the server does; GDS streams keep
/// their instance provenance when the request asked for `hier`.
fn load(input: &ServedInput) -> Result<(Layout, Option<LayoutHierarchy>), String> {
    match &input.source {
        Source::Text(text) => io::from_text(text)
            .map(|layout| (layout, None))
            .map_err(|e| e.to_string()),
        Source::Gds(bytes) => GdsLibrary::from_bytes(bytes)
            .and_then(|library| {
                layout_with_hierarchy(&library, &LayerMap::all(), &ReadOptions::default())
            })
            .map(|(layout, hierarchy)| (layout, input.hier.then_some(hierarchy)))
            .map_err(|e| e.to_string()),
    }
}

/// Spawns a server and waits for its first `pong`.
pub fn spawn(threads: usize) -> (mpl_serve::ServerHandle, Duration) {
    let start = Instant::now();
    let config = ServerConfig {
        pool_threads: threads,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(&config).expect("bind a loopback port");
    let mut client = Client::connect(handle.addr()).expect("connect to the server");
    client.ping().expect("the server answers ping");
    (handle, start.elapsed())
}

fn submit_and_wait(client: &mut Client, input: &ServedInput) -> RequestRun {
    let mut run = RequestRun::default();
    let t0 = Instant::now();
    let request = input.request();
    let t1 = Instant::now();
    if let Err(error) = client.send(&request) {
        run.failure = Some(format!("{}: send: {error}", input.id));
        return run;
    }
    let mut queued = None;
    let terminal = loop {
        match client.recv() {
            Ok(Response::Queued { id, .. }) if id == input.id => queued = Some(Instant::now()),
            Ok(Response::Result(payload)) => {
                run.result = Some(payload);
                break Instant::now();
            }
            Ok(Response::Error { message, .. }) => {
                run.failure = Some(format!("{}: error frame: {message}", input.id));
                break Instant::now();
            }
            Ok(Response::Cancelled { .. }) => {
                run.failure = Some(format!("{}: cancelled", input.id));
                break Instant::now();
            }
            Ok(_) => {}
            Err(error) => {
                run.failure = Some(format!("{}: {error}", input.id));
                break Instant::now();
            }
        }
    };
    let queued = queued.unwrap_or(terminal);
    run.turnaround = (terminal - t0).as_secs_f64();
    run.request = (terminal - t1).as_secs_f64();
    run.admit = (queued - t1).as_secs_f64();
    run.finish = (terminal - queued).as_secs_f64();
    run.instants = Some((t1, queued, terminal));
    run
}

/// Records a traced request's spans and replays its admission work in
/// this process on the request's exact frame: `Json::parse` and
/// `decode_request`, the source decode, and `Decomposer::plan` (with the
/// graph build timed on its own).
fn trace_request(trace: &Trace, item: u64, input: &ServedInput, run: &mut RequestRun) {
    let Some((send, queued, terminal)) = run.instants else {
        return;
    };
    let root = trace.span("request", None, (send, terminal), None, item);
    let admit = trace.span(
        "serve.admit",
        Some(Layer::Serve),
        (send, queued),
        Some(root),
        item,
    );
    let finish = trace.span(
        "serve.finish",
        Some(Layer::Serve),
        (queued, terminal),
        Some(root),
        item,
    );
    run.finish_span = Some(finish);

    let start = Instant::now();
    let decoded = Json::parse(&input.frame).map(|json| decode_request(&json));
    let json_time = start.elapsed();
    black_box(decoded.is_ok());
    let start = Instant::now();
    let loaded = load(input);
    let ingest_time = start.elapsed();
    let Ok((layout, _)) = loaded else { return };
    let start = Instant::now();
    let plan = decomposer().plan(&layout);
    let plan_time = start.elapsed();
    let start = Instant::now();
    black_box(DecompositionGraph::build(
        &layout,
        &Technology::nm20(),
        K,
        &decomposer().config().stitch,
    ));
    let graph_time = start.elapsed();
    black_box(plan.is_ok());

    trace.attribute("serve.json", Layer::Serve, admit, 0.0, json_time);
    let offset = json_time.as_secs_f64();
    trace.attribute("ingest", Layer::Ingest, admit, offset, ingest_time);
    let offset = offset + ingest_time.as_secs_f64();
    let plan_span = trace.attribute("plan", Layer::Plan, admit, offset, plan_time);
    trace.attribute("graph.build", Layer::Graph, plan_span, 0.0, graph_time);
    run.timings.extend([
        ("serve.json_parse_s", json_time.as_secs_f64()),
        ("ingest.parse_s", ingest_time.as_secs_f64()),
        ("graph.build_s", graph_time.as_secs_f64()),
        (
            "plan.problems_s",
            plan_time.saturating_sub(graph_time).as_secs_f64(),
        ),
    ]);
}

/// Runs the request set once through a fresh server with `clients`
/// closed-loop connections, then checks every result against an
/// in-process decomposition of the same bytes.
pub fn run_pass(
    inputs: &[ServedInput],
    threads: usize,
    clients: usize,
    trace: Option<&Trace>,
    item_base: u64,
) -> PassRun {
    let (handle, setup) = spawn(threads);
    let addr = handle.addr();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RequestRun>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect to the server");
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(input) = inputs.get(index) else {
                        break;
                    };
                    let mut run = submit_and_wait(&mut client, input);
                    if let Some(trace) = trace {
                        trace_request(trace, item_base + index as u64, input, &mut run);
                    }
                    *slots[index].lock().expect("no panics while storing runs") = Some(run);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();

    let mut pass = PassRun {
        wall,
        setup: setup.as_secs_f64(),
        ..PassRun::default()
    };
    let mut control = Client::connect(addr).expect("connect to the server");
    control.send(&mpl_serve::Request::Ping).expect("send ping");
    let Ok(Response::Pong {
        cache,
        dropped_progress,
        ..
    }) = control.recv()
    else {
        panic!("the server answers ping with pong");
    };
    pass.counts
        .insert("serve.dropped_progress", dropped_progress);
    pass.counts
        .insert("memo.evictions", cache.map_or(0, |c| c.evictions));
    drop(control);
    handle.shutdown().expect("the server shuts down");

    pass.requests = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no panics while storing runs")
                .unwrap_or_default()
        })
        .collect();
    check_pass(inputs, threads, trace, &mut pass);
    pass
}

/// Output checks and deterministic counters of one pass.  The reference
/// decompositions run in request order with one memo cache per pass, so
/// their engine and division figures match a server that met the
/// requests in that order.
fn check_pass(inputs: &[ServedInput], threads: usize, trace: Option<&Trace>, pass: &mut PassRun) {
    let pool = ThreadPoolExecutor::new(threads).expect("at least one thread");
    let cache = Arc::new(MemoCache::new(MemoCache::DEFAULT_CAPACITY));
    let decomposer = decomposer();
    let mut counts = Counts::new();
    let add =
        |counts: &mut Counts, name, value: usize| *counts.entry(name).or_default() += value as u64;
    for (input, run) in inputs.iter().zip(&mut pass.requests) {
        add(&mut counts, "serve.frame_bytes", input.frame.len());
        add(&mut counts, "ingest.bytes", input.source.len());
        let Some(payload) = &run.result else {
            add(&mut counts, "serve.error_frames", 1);
            let failure = run
                .failure
                .get_or_insert_with(|| format!("{}: no result", input.id));
            pass.failures.push(failure.clone());
            continue;
        };
        let (layout, hierarchy) = match load(input) {
            Ok(loaded) => loaded,
            Err(error) => {
                let failure = format!("{}: reference parse: {error}", input.id);
                run.failure = Some(failure.clone());
                pass.failures.push(failure);
                continue;
            }
        };
        let plan = decomposer
            .plan(&layout)
            .expect("the server planned the same bytes");
        let mut session = DecompositionSession::new().with_memo(Arc::clone(&cache));
        let id = session.submit(plan);
        let start = Instant::now();
        let (reference, hier_stats) = if input.hier {
            session.set_hierarchy(id, hierarchy.map(Arc::new));
            let (_, hier) = mpl_hier::run_hier(&session, &pool)
                .expect("hierarchical runs take no tiling")
                .pop()
                .expect("one layout submitted");
            (hier.result, Some(hier.stats))
        } else {
            (
                session.run(&pool).pop().expect("one layout submitted").1,
                None,
            )
        };
        let reference_time = start.elapsed();
        let mut failures = check_result(&reference, None);
        if payload.colors != reference.colors() {
            failures.push(format!(
                "{}: served colors differ from the in-process run",
                input.id
            ));
        }
        if payload.colors.iter().any(|&c| usize::from(c) >= payload.k) {
            failures.push(format!(
                "{}: a served color lies outside 0..{}",
                input.id, payload.k
            ));
        }
        if payload.spacing_violations != Some(payload.conflicts) {
            failures.push(format!(
                "{}: {:?} spacing violations for {} reported conflicts",
                input.id, payload.spacing_violations, payload.conflicts
            ));
        }
        if payload.cancelled || payload.deadline_exceeded || payload.components_skipped > 0 {
            failures.push(format!("{}: the served run was cut short", input.id));
        }
        match (input.hier, payload.hierarchy, hier_stats) {
            (true, Some(served), Some(local)) => {
                add(&mut counts, "hier.instances", served.instances);
                add(&mut counts, "hier.recolored", served.recolored_vertices);
                add(
                    &mut counts,
                    "hier.cross_conflicts_after",
                    served.cross_conflicts_after,
                );
                if served.cross_conflicts_after != 0 || local.cross_conflicts_after != 0 {
                    failures.push(format!("{}: cross-instance conflicts remain", input.id));
                }
            }
            (true, _, _) => failures.push(format!("{}: no hierarchy statistics", input.id)),
            _ => {}
        }
        let plan = session.plan(id).expect("the session keeps its plans");
        add(&mut counts, "conflicts", payload.conflicts);
        add(&mut counts, "stitches", payload.stitches);
        add(&mut counts, "graph.vertices", plan.graph().vertex_count());
        add(
            &mut counts,
            "graph.conflict_edges",
            plan.graph().conflict_edges().len(),
        );
        add(
            &mut counts,
            "graph.stitch_edges",
            plan.graph().stitch_edges().len(),
        );
        add(&mut counts, "plan.components", payload.components);
        add(&mut counts, "memo.hits", payload.memo_hits.unwrap_or(0));
        add(&mut counts, "memo.misses", payload.memo_misses.unwrap_or(0));
        add(
            &mut counts,
            "verify.violations",
            payload.spacing_violations.unwrap_or(0),
        );
        component_counts(reference.component_stats(), &mut counts);
        pass.component_busy += reference
            .component_stats()
            .iter()
            .map(|s| s.time.as_secs_f64())
            .sum::<f64>();

        if let (Some(trace), Some(finish)) = (trace, run.finish_span) {
            // The server's coloring, attributed from the reference run of
            // the same bytes: hier requests under the hier driver's wall
            // time, division and engine as pool-wall equivalents.
            let (division, engine) = inproc::busy(reference.component_stats());
            let threads = threads as f64;
            let host = if input.hier {
                trace.attribute("hier", Layer::Hier, finish, 0.0, reference_time)
            } else {
                finish
            };
            let division = Duration::from_secs_f64(division / threads);
            let engine = Duration::from_secs_f64(engine / threads);
            trace.attribute("division", Layer::Division, host, 0.0, division);
            trace.attribute(
                "engine",
                Layer::Engine,
                host,
                division.as_secs_f64(),
                engine,
            );
            let start = Instant::now();
            black_box(verify_spacing(
                plan.graph(),
                &payload.colors,
                Technology::nm20().coloring_distance(K),
            ));
            let verify_time = start.elapsed();
            let offset = if input.hier {
                reference_time.as_secs_f64()
            } else {
                (division + engine).as_secs_f64()
            };
            trace.attribute("verify", Layer::Verify, finish, offset, verify_time);
            run.timings.extend([
                ("division.busy_s", division.as_secs_f64() * threads),
                ("engine.busy_s", engine.as_secs_f64() * threads),
                ("verify.spacing_s", verify_time.as_secs_f64()),
            ]);
        }
        if !failures.is_empty() {
            run.failure = Some(failures.join("; "));
            pass.failures.extend(failures);
        }
    }
    for (name, value) in counts {
        *pass.counts.entry(name).or_default() += value;
    }
}
