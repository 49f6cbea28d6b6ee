//! Spans recorded from outside the program, around calls into each
//! layer's public functions, plus the self-time attribution over them.
//!
//! Every span belongs to one item (a layout or a served request) and has
//! at most one parent; the item's root span is its whole turnaround or
//! request.  Some spans are *attributed*: their duration was measured by
//! timing a layer's public call again outside the item (for example
//! `DecompositionGraph::build`, which `Decomposer::plan` runs internally),
//! and they are placed at the start of the parent span they belong to.

use mpl_core::{ComponentStats, ComponentTask, DecompositionObserver, LayoutId};
use mpl_serve::Json;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The program's layers, named after the modules they cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `mpl-layout::io`, `mpl-gds` read.
    Ingest,
    /// `mpl-serve` codec, json, protocol and server.
    Serve,
    /// `mpl-core::decomp_graph` over `mpl-geometry::spatial`.
    Graph,
    /// `Decomposer::plan` minus the graph build.
    Plan,
    /// `mpl-memo`.
    Memo,
    /// `mpl-core::division`, `mpl-graph` simplify and max-flow.
    Division,
    /// `mpl-core::assign`, `mpl-sdp`, `mpl-ilp`.
    Engine,
    /// `mpl-core::executor` (scheduling and assembly around components).
    Executor,
    /// `mpl-tile`.
    Tile,
    /// `mpl-hier`.
    Hier,
    /// `mpl-core::verify`.
    Verify,
    /// `mpl-gds` write.
    Write,
}

pub const LAYERS: [Layer; 12] = [
    Layer::Ingest,
    Layer::Serve,
    Layer::Graph,
    Layer::Plan,
    Layer::Memo,
    Layer::Division,
    Layer::Engine,
    Layer::Executor,
    Layer::Tile,
    Layer::Hier,
    Layer::Verify,
    Layer::Write,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "ingest",
            Layer::Serve => "serve",
            Layer::Graph => "graph",
            Layer::Plan => "plan",
            Layer::Memo => "memo",
            Layer::Division => "division",
            Layer::Engine => "engine",
            Layer::Executor => "executor",
            Layer::Tile => "tile",
            Layer::Hier => "hier",
            Layer::Verify => "verify",
            Layer::Write => "write",
        }
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&layer| layer == self)
            .expect("every layer is listed")
    }
}

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// `None` for an item's root span (turnaround or request).
    layer: Option<Layer>,
    start: f64,
    end: f64,
    parent: Option<SpanId>,
    item: u64,
    attributed: bool,
}

/// Per-item attribution: the root's duration and each layer's self time.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    pub root: f64,
    /// Root time not covered by any layer span.
    pub unattributed: f64,
    pub layers: [f64; LAYERS.len()],
}

impl SelfTimes {
    pub fn add(&mut self, other: &SelfTimes) {
        self.root += other.root;
        self.unattributed += other.unattributed;
        for (sum, value) in self.layers.iter_mut().zip(other.layers) {
            *sum += value;
        }
    }

    pub fn layer(&self, layer: Layer) -> f64 {
        self.layers[layer.index()]
    }
}

/// An in-memory span store, written out when the run ends.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the trace began.
    fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64()
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("no panics while recording spans");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a span measured directly around a call.
    pub fn span(
        &self,
        name: &'static str,
        layer: Option<Layer>,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        item: u64,
    ) -> SpanId {
        self.push(Span {
            name,
            layer,
            start: self.at(start),
            end: self.at(end),
            parent,
            item,
            attributed: false,
        })
    }

    /// Opens a span whose end is set later by [`close`](Trace::close), so
    /// children recorded meanwhile can name it as their parent.
    pub fn open(
        &self,
        name: &'static str,
        layer: Option<Layer>,
        start: Instant,
        parent: Option<SpanId>,
        item: u64,
    ) -> SpanId {
        self.span(name, layer, (start, start), parent, item)
    }

    pub fn close(&self, id: SpanId, end: Instant) {
        let end = self.at(end);
        self.spans.lock().expect("no panics while recording spans")[id].end = end;
    }

    /// Records an attributed span of `duration`, placed at `offset`
    /// seconds into its parent and clipped to the parent's end.
    pub fn attribute(
        &self,
        name: &'static str,
        layer: Layer,
        parent: SpanId,
        offset: f64,
        duration: Duration,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("no panics while recording spans");
        let host = spans[parent].clone();
        let start = (host.start + offset).min(host.end);
        let end = (start + duration.as_secs_f64()).min(host.end);
        spans.push(Span {
            name,
            layer: Some(layer),
            start,
            end,
            parent: Some(parent),
            item: host.item,
            attributed: true,
        });
        spans.len() - 1
    }

    /// Self time per layer, summed over all traced items.
    ///
    /// A span's self time is the part of its interval no child span
    /// covers.  Where spans overlap without nesting (components running on
    /// several pool threads), each instant is split evenly between the
    /// innermost spans open at that instant, so self times add up to wall
    /// time and never exceed the root.
    pub fn self_times(&self) -> SelfTimes {
        let spans = self.spans.lock().expect("no panics while recording spans");
        let mut by_item: HashMap<u64, Vec<SpanId>> = HashMap::new();
        for (id, span) in spans.iter().enumerate() {
            by_item.entry(span.item).or_default().push(id);
        }
        let mut total = SelfTimes::default();
        for ids in by_item.values() {
            total.add(&item_self_times(&spans, ids));
        }
        total
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no panics while recording spans");
        let mut out = String::new();
        for (id, span) in spans.iter().enumerate() {
            let json = Json::object(vec![
                ("id", Json::Number(id as f64)),
                ("name", Json::string(span.name)),
                (
                    "layer",
                    span.layer.map_or(Json::Null, |l| Json::string(l.name())),
                ),
                ("start", Json::Number(span.start)),
                ("end", Json::Number(span.end)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                ),
                ("item", Json::Number(span.item as f64)),
                ("attributed", Json::Bool(span.attributed)),
            ]);
            out.push_str(&json.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn depth(spans: &[Span], mut id: SpanId) -> usize {
    let mut depth = 0;
    while let Some(parent) = spans[id].parent {
        depth += 1;
        id = parent;
    }
    depth
}

/// Event sweep over one item's spans (see [`Trace::self_times`]).
fn item_self_times(spans: &[Span], ids: &[SpanId]) -> SelfTimes {
    // (time, is_start, depth order, span): ends sort before starts at equal
    // times, parents start before and end after their children.
    let mut events: Vec<(f64, bool, i64, SpanId)> = Vec::with_capacity(ids.len() * 2);
    for &id in ids {
        let d = depth(spans, id) as i64;
        events.push((spans[id].start, true, d, id));
        events.push((spans[id].end.max(spans[id].start), false, -d, id));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut open_children: HashMap<SpanId, usize> = HashMap::new();
    let mut leaves: Vec<SpanId> = Vec::new();
    let mut own: HashMap<SpanId, f64> = HashMap::new();
    let mut last = events.first().map_or(0.0, |e| e.0);
    for (time, is_start, _, id) in events {
        if !leaves.is_empty() {
            let share = (time - last) / leaves.len() as f64;
            for leaf in &leaves {
                *own.entry(*leaf).or_default() += share;
            }
        }
        last = time;
        let parent = spans[id].parent;
        if is_start {
            if let Some(p) = parent {
                let count = open_children.entry(p).or_default();
                if *count == 0 {
                    leaves.retain(|&leaf| leaf != p);
                }
                *count += 1;
            }
            leaves.push(id);
        } else {
            leaves.retain(|&leaf| leaf != id);
            if let Some(p) = parent {
                let count = open_children.entry(p).or_default();
                *count = count.saturating_sub(1);
                // A parent that already ended has no entry in `leaves`
                // to restore; only reopen one still in progress.
                if *count == 0 && spans[p].end > time {
                    leaves.push(p);
                }
            }
        }
    }

    let mut result = SelfTimes::default();
    for &id in ids {
        let span = &spans[id];
        let own_time = own.get(&id).copied().unwrap_or(0.0);
        match span.layer {
            None => {
                result.root += span.end - span.start;
                result.unattributed += own_time;
            }
            Some(layer) => result.layers[layer.index()] += own_time,
        }
    }
    result
}

/// A [`DecompositionObserver`] that records one span per component: memo
/// hits under the memo layer, engine runs under the engine layer with
/// their `division_time` attributed to the division layer.
pub struct ComponentSpans<'a> {
    trace: &'a Trace,
    parent: SpanId,
    item: u64,
    started: Mutex<HashMap<usize, Instant>>,
}

impl<'a> ComponentSpans<'a> {
    pub fn new(trace: &'a Trace, parent: SpanId, item: u64) -> Self {
        ComponentSpans {
            trace,
            parent,
            item,
            started: Mutex::new(HashMap::new()),
        }
    }
}

impl DecompositionObserver for ComponentSpans<'_> {
    fn component_started(&self, _layout: LayoutId, task: &ComponentTask) {
        self.started
            .lock()
            .expect("no panics while recording spans")
            .insert(task.index(), Instant::now());
    }

    fn component_finished(&self, _layout: LayoutId, task: &ComponentTask, stats: &ComponentStats) {
        let end = Instant::now();
        let start = self
            .started
            .lock()
            .expect("no panics while recording spans")
            .remove(&task.index())
            .unwrap_or(end);
        if stats.memo_hit == Some(true) {
            self.trace.span(
                "memo.stamp",
                Some(Layer::Memo),
                (start, end),
                Some(self.parent),
                self.item,
            );
        } else {
            let id = self.trace.span(
                "engine.component",
                Some(Layer::Engine),
                (start, end),
                Some(self.parent),
                self.item,
            );
            if !stats.division_time.is_zero() {
                self.trace
                    .attribute("division", Layer::Division, id, 0.0, stats.division_time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(spans: Vec<Span>) -> Trace {
        let trace = Trace::new();
        *trace.spans.lock().unwrap() = spans;
        trace
    }

    fn span(layer: Option<Layer>, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            layer,
            start,
            end,
            parent,
            item: 0,
            attributed: false,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        let trace = trace_with(vec![
            span(None, 0.0, 10.0, None),
            span(Some(Layer::Plan), 0.0, 4.0, Some(0)),
            span(Some(Layer::Graph), 0.0, 3.0, Some(1)),
            span(Some(Layer::Verify), 5.0, 9.0, Some(0)),
        ]);
        let times = trace.self_times();
        assert_eq!(times.root, 10.0);
        assert!((times.layer(Layer::Plan) - 1.0).abs() < 1e-12);
        assert!((times.layer(Layer::Graph) - 3.0).abs() < 1e-12);
        assert!((times.layer(Layer::Verify) - 4.0).abs() < 1e-12);
        assert!((times.unattributed - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_split_wall_time() {
        let trace = trace_with(vec![
            span(None, 0.0, 4.0, None),
            span(Some(Layer::Executor), 0.0, 4.0, Some(0)),
            span(Some(Layer::Engine), 0.0, 2.0, Some(1)),
            span(Some(Layer::Engine), 0.0, 2.0, Some(1)),
            span(Some(Layer::Memo), 1.0, 3.0, Some(1)),
        ]);
        let times = trace.self_times();
        let sum: f64 = times.layers.iter().sum::<f64>() + times.unattributed;
        assert!((sum - 4.0).abs() < 1e-12);
        // [0,1): two engines; [1,2): two engines + memo; [2,3): memo; [3,4): executor.
        assert!((times.layer(Layer::Engine) - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!((times.layer(Layer::Memo) - (1.0 / 3.0 + 1.0)).abs() < 1e-12);
        assert!((times.layer(Layer::Executor) - 1.0).abs() < 1e-12);
    }
}
