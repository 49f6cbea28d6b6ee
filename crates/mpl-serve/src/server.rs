//! The streaming decomposition server.
//!
//! One listener thread accepts TCP connections; each connection gets a
//! reader thread that parses newline-delimited JSON frames and answers
//! protocol errors immediately.  Accepted `submit` requests are planned on
//! the connection thread (so parse/config errors surface before anything
//! queues) and handed to the single **scheduler** thread, which coalesces
//! everything pending into one [`DecompositionSession`] batch per executor
//! choice and drains it on the server's persistent executors.  While a
//! batch runs, per-component progress streams back to each submission's
//! connection through the session's [`ProgressObserver`] plumbing; the
//! final `result` frame carries the full coloring.
//!
//! Submissions that arrive while a batch is draining simply pile up and
//! form the next batch — incremental submission never blocks on execution.
//! The session is reused across batches ([`DecompositionSession::clear`]),
//! so every submission the server ever accepts gets a unique
//! [`LayoutId`].
//!
//! Back-pressure: every connection owns a **bounded output queue** drained
//! by a dedicated writer thread.  The scheduler enqueues frames instead of
//! writing sockets, so a slow client never blocks it directly.  On
//! overflow, progress frames (`progress` / `tile_progress` /
//! `hier_progress`) are dropped first — incoming ones when the queue is
//! full, queued ones to make room for a result — and result / error /
//! cancelled frames are **never** dropped: when the queue is all
//! non-droppable frames the sender waits, bounded by the writer thread's
//! own progress or death.  A stalled client's writer thread fails with the
//! socket [`write_timeout`](ServerConfig::write_timeout) once the socket
//! buffer fills, which marks the connection dead, empties its queue and
//! releases any waiting sender — everyone else's results keep flowing.
//!
//! Cancellation: every submission carries an
//! [`mpl_core::CancelToken`]; an optional `deadline_ms` arms its deadline,
//! and a `cancel` frame from the submitting connection fires it explicitly.
//! The deadline runs from the moment the frame's first byte arrived, so the
//! time spent receiving, parsing and planning the frame counts against it:
//! a budget that expires before the submission queues resolves with every
//! component skipped.
//! Fired tokens make not-yet-started components skip and running engines
//! stop at their next amortised poll, so the submission still resolves with
//! exactly one terminal frame: `cancelled` for an explicit cancel, or a
//! `result` carrying `deadline_exceeded` and the completed/skipped split
//! for an expired deadline.  A reader that disconnects auto-cancels that
//! connection's pending submissions.
//!
//! Submissions may opt into the halo-aware tiler (`tile_size` on the
//! `submit` frame): such layouts decompose through
//! [`mpl_tile::run_tiled_observed`], stream `tile_progress` frames instead
//! of per-component `progress`, and report a `tiles` statistics object on
//! their `result` frame.
//!
//! Submissions may instead opt into cell-level hierarchical decomposition
//! (`hier` on the `submit` frame, mutually exclusive with tiling): GDS
//! sources keep their instance provenance, decompose through
//! [`mpl_hier::run_hier_observed`], stream `hier_progress` frames, and
//! report a `hierarchy` statistics object on their `result` frame.
//! Sources without a hierarchy (text layouts) degenerate to the ordinary
//! memoized run.  `pong` frames carry lifetime `hier_runs`/`tile_runs`
//! usage counters alongside the shared memo-cache statistics.

use crate::codec::{encode_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::json::Json;
use crate::protocol::{
    decode_request, encode_response, CachePayload, ErrorCode, ExecutorChoice, HierPayload,
    LayoutSource, Request, Response, ResultPayload, ServeError, SubmitRequest, TilePayload,
};
use mpl_core::{
    verify_spacing, CancelToken, ConfigError, Decomposer, DecomposerConfig, DecompositionPlan,
    DecompositionSession, Executor, LayoutId, MemoCache, ProgressObserver, ProgressSink,
    SerialExecutor, ThreadPoolExecutor, TileConfig,
};
use mpl_gds::{
    layout_from_library, layout_with_hierarchy, load_layout_file, GdsLibrary, LayerMap,
    LoadLayoutError, ReadOptions,
};
use mpl_geometry::Nm;
use mpl_hier::HierStats;
use mpl_layout::{io, Layout, LayoutHierarchy, Technology};
use mpl_tile::{TileProgress, TileStats};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard from a poisoned lock.  Every mutex
/// in this server protects plain queue/flag state that is valid at every
/// intermediate step, so a thread that panicked while holding one leaves
/// nothing half-mutated — recovering beats cascading the panic into every
/// other connection.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cancel tokens of one connection's unresolved submissions, keyed by
/// the client-chosen id.  Shared between the connection's reader thread
/// (which registers submissions and serves `cancel` frames) and the
/// scheduler (which retires entries as terminal frames go out).
type CancelRegistry = Arc<Mutex<HashMap<String, CancelToken>>>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads of the persistent pool executor (≥ 1; serial-choice
    /// submissions use the serial executor regardless).
    pub pool_threads: usize,
    /// Maximum accepted frame length in bytes.
    pub max_frame_len: usize,
    /// Capacity (in stored colorings) of the shared memo cache consulted
    /// by every batch the server runs (≥ 1).
    pub memo_capacity: usize,
    /// Maximum time one blocking socket write may stall before the
    /// connection is declared dead (`None` = block forever).  Writes run
    /// on per-connection writer threads, so a stalled client only wedges
    /// its own writer — but until that write times out, its bounded queue
    /// can fill and make the scheduler wait to enqueue non-droppable
    /// frames; the timeout bounds that wait too.
    pub write_timeout: Option<Duration>,
    /// Capacity (in frames) of each connection's bounded output queue
    /// (≥ 1).  On overflow, progress frames are dropped first; result,
    /// error and cancelled frames are never dropped.
    pub output_queue_frames: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            pool_threads: 2,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            memo_capacity: MemoCache::DEFAULT_CAPACITY,
            write_timeout: Some(Duration::from_secs(30)),
            output_queue_frames: 256,
        }
    }
}

/// A submission accepted by a connection, waiting for the next batch.
struct Pending {
    plan: DecompositionPlan,
    submit: SubmitRequest,
    /// The validated tiling request (`None` = untiled).
    tiling: Option<TileConfig>,
    /// Instance provenance of a `hier` submission whose source carried a
    /// hierarchy (`None` for flat submissions and text sources).
    hierarchy: Option<Arc<LayoutHierarchy>>,
    writer: ConnectionWriter,
    /// The submission's cancel token: its deadline armed from
    /// `deadline_ms`, fired explicitly by a `cancel` frame, or fired by
    /// the reader disconnecting.
    cancel: CancelToken,
    /// The submitting connection's registry, so the scheduler can retire
    /// the entry when the terminal frame goes out.
    registry: CancelRegistry,
}

/// State shared between the listener, connections and the scheduler.
struct Shared {
    pending: Mutex<Vec<Pending>>,
    wake: Condvar,
    shutdown: AtomicBool,
    pool: ThreadPoolExecutor,
    max_frame_len: usize,
    write_timeout: Option<Duration>,
    addr: SocketAddr,
    technology: Technology,
    /// One memo cache for the whole server: every batch of every
    /// connection probes and fills it, so repeated submissions (and
    /// translated copies of earlier layouts) are stamped instead of
    /// re-colored.
    memo: Arc<MemoCache>,
    /// Lifetime count of layouts decomposed through the hierarchical
    /// driver, reported on `pong` frames.
    hier_runs: AtomicU64,
    /// Lifetime count of layouts decomposed through the halo-aware tiler,
    /// reported on `pong` frames.
    tile_runs: AtomicU64,
    /// Gauges and counters of the bounded per-connection output queues,
    /// reported on `pong` frames.
    writer_metrics: Arc<WriterMetrics>,
    /// Lifetime count of submissions resolved by an explicit `cancel`.
    cancelled_requests: AtomicU64,
    /// Lifetime count of submissions whose deadline expired mid-run.
    deadline_exceeded_requests: AtomicU64,
    /// Capacity of each connection's bounded output queue.
    output_queue_frames: usize,
}

impl Shared {
    /// Queues a planned submission for the next batch.  Returns `false`
    /// when shutdown has begun and the scheduler can no longer be relied
    /// on to drain it — the flag is checked under the queue lock, and
    /// [`begin_shutdown`](Shared::begin_shutdown) sets it under the same
    /// lock, so an accepted submission is always either drained by the
    /// scheduler's final wave or rejected here, never silently dropped.
    fn enqueue(&self, pending: Pending) -> bool {
        let mut queue = lock_recovering(&self.pending);
        if self.shutting_down() {
            return false;
        }
        queue.push(pending);
        self.wake.notify_one();
        true
    }

    /// Flags shutdown and unblocks both the scheduler (condvar) and the
    /// accept loop (a throwaway connection to ourselves).  Idempotent:
    /// simultaneous `shutdown` frames from several connections flag, wake
    /// and poke exactly once — later callers see the swapped flag and
    /// return, so no second poke can race the listener's close and land on
    /// whatever rebinds the port.
    fn begin_shutdown(&self) {
        {
            // Under the queue lock: see `enqueue` for the invariant.
            let _queue = lock_recovering(&self.pending);
            if self.shutdown.swap(true, Ordering::AcqRel) {
                return;
            }
        }
        self.wake.notify_all();
        // `TcpListener::incoming` has no timeout; poke it awake.  A
        // wildcard bind (0.0.0.0 / ::) is not connectable on every
        // platform, so aim the poke at the loopback of the same family.
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        drop(TcpStream::connect(poke));
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Server-wide gauges and counters of the bounded per-connection output
/// queues, reported on `pong` frames.
#[derive(Debug, Default)]
struct WriterMetrics {
    /// Frames currently queued across every live connection (a gauge).
    queued_frames: AtomicU64,
    /// Lifetime progress frames dropped by queue overflow.
    dropped_progress: AtomicU64,
}

/// One frame waiting in a connection's bounded output queue.
struct QueuedFrame {
    bytes: String,
    /// Progress frames are droppable under back-pressure; result, error
    /// and cancelled frames are not.
    droppable: bool,
}

/// State shared between a connection's frame senders (reader thread,
/// scheduler) and its dedicated writer thread.
struct WriterShared {
    state: Mutex<WriterState>,
    /// Wakes the writer thread: a frame queued, a sender gone, or death.
    readable: Condvar,
    /// Wakes blocked senders: queue space freed, or death.
    writable: Condvar,
    capacity: usize,
    metrics: Arc<WriterMetrics>,
}

struct WriterState {
    queue: VecDeque<QueuedFrame>,
    /// Live [`ConnectionWriter`] handles.  The writer thread drains the
    /// queue and exits once this reaches zero — which also closes the
    /// socket, so a half-closed client reading to EOF sees every frame
    /// queued before the last handle dropped.
    senders: usize,
    /// Set by the writer thread on the first failed write.  The queue is
    /// emptied (a partial frame may be on the wire; the stream has lost
    /// frame synchronisation) and later sends drop silently.
    dead: bool,
}

impl WriterShared {
    /// Empties the queue after the connection died, keeping the
    /// queued-frames gauge honest.
    fn clear_queue(&self, state: &mut WriterState) {
        self.metrics
            .queued_frames
            .fetch_sub(state.queue.len() as u64, Ordering::Relaxed);
        state.queue.clear();
    }
}

/// A shareable handle enqueueing frames onto one connection's bounded
/// output queue.
///
/// A dedicated writer thread drains the queue, so the scheduler never
/// blocks on a socket.  When the queue is full, progress frames are
/// dropped — the incoming one, or queued ones to make room for a
/// non-droppable frame — and result/error/cancelled frames are never
/// dropped: the sender waits for space, bounded by the writer thread's own
/// progress or death (a stalled client's write fails with the socket write
/// timeout, marking the connection dead and releasing every waiter).
struct ConnectionWriter {
    shared: Arc<WriterShared>,
}

impl Clone for ConnectionWriter {
    fn clone(&self) -> Self {
        lock_recovering(&self.shared.state).senders += 1;
        ConnectionWriter {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for ConnectionWriter {
    fn drop(&mut self) {
        let mut state = lock_recovering(&self.shared.state);
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // The writer thread drains what is queued, then exits.
            self.shared.readable.notify_all();
        }
    }
}

impl ConnectionWriter {
    /// Spawns the connection's writer thread around a cloned stream.
    fn spawn(stream: TcpStream, capacity: usize, metrics: Arc<WriterMetrics>) -> Option<Self> {
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                queue: VecDeque::new(),
                senders: 1,
                dead: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity: capacity.max(1),
            metrics,
        });
        let thread_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("mpl-serve-writer".to_string())
            .spawn(move || writer_loop(stream, &thread_shared))
            .ok()?;
        Some(ConnectionWriter { shared })
    }

    fn send(&self, response: &Response) {
        let droppable = matches!(
            response,
            Response::Progress { .. }
                | Response::TileProgress { .. }
                | Response::HierProgress { .. }
        );
        let bytes = encode_frame(&encode_response(response));
        let shared = &*self.shared;
        let mut state = lock_recovering(&shared.state);
        loop {
            if state.dead {
                return;
            }
            if state.queue.len() < shared.capacity {
                state.queue.push_back(QueuedFrame { bytes, droppable });
                shared.metrics.queued_frames.fetch_add(1, Ordering::Relaxed);
                shared.readable.notify_one();
                return;
            }
            if droppable {
                // Queue full: progress is the overflow policy's first
                // victim, and an incoming tick is the staleness-cheapest
                // one to lose.
                shared
                    .metrics
                    .dropped_progress
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Make room for a non-droppable frame by evicting queued
            // progress ticks.
            let before = state.queue.len();
            state.queue.retain(|frame| !frame.droppable);
            let evicted = (before - state.queue.len()) as u64;
            if evicted > 0 {
                shared
                    .metrics
                    .dropped_progress
                    .fetch_add(evicted, Ordering::Relaxed);
                shared
                    .metrics
                    .queued_frames
                    .fetch_sub(evicted, Ordering::Relaxed);
                continue;
            }
            // Full of non-droppable frames: wait for the writer thread to
            // deliver one or die trying — both bounded by the socket write
            // timeout.  The wait slice only bounds each nap, not progress.
            state = shared
                .writable
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Drains one connection's output queue onto its socket until every sender
/// is gone (clean drain) or a write fails (the connection is dead).
fn writer_loop(mut stream: TcpStream, shared: &WriterShared) {
    loop {
        let frame = {
            let mut state = lock_recovering(&shared.state);
            loop {
                if let Some(frame) = state.queue.pop_front() {
                    break frame;
                }
                if state.dead || state.senders == 0 {
                    return;
                }
                state = shared
                    .readable
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.metrics.queued_frames.fetch_sub(1, Ordering::Relaxed);
        shared.writable.notify_all();
        if stream.write_all(frame.bytes.as_bytes()).is_err() {
            let mut state = lock_recovering(&shared.state);
            state.dead = true;
            shared.clear_queue(&mut state);
            drop(state);
            shared.writable.notify_all();
            return;
        }
    }
}

/// One batch member: its request, its connection's writer, its cancel
/// token, and the registry entry to retire once the terminal frame is out.
struct Active {
    submit: SubmitRequest,
    writer: ConnectionWriter,
    cancel: CancelToken,
    registry: CancelRegistry,
}

/// Streams progress frames for one running batch.
struct BatchSink<'a> {
    submissions: &'a HashMap<LayoutId, Active>,
}

impl ProgressSink for BatchSink<'_> {
    fn component_done(&self, layout: LayoutId, done: usize, total: usize) {
        if let Some(active) = self.submissions.get(&layout) {
            if active.submit.progress {
                active.writer.send(&Response::Progress {
                    id: active.submit.id.clone(),
                    done,
                    total,
                });
            }
        }
    }
}

/// Streams `tile_progress` frames for one running tiled batch.
struct TileSink<'a> {
    submissions: &'a HashMap<LayoutId, Active>,
}

impl TileProgress for TileSink<'_> {
    fn tile_done(&self, layout: LayoutId, done: usize, total: usize) {
        if let Some(active) = self.submissions.get(&layout) {
            if active.submit.progress {
                active.writer.send(&Response::TileProgress {
                    id: active.submit.id.clone(),
                    done,
                    total,
                });
            }
        }
    }
}

/// Streams `hier_progress` frames for one running hierarchical batch.
struct HierSink<'a> {
    submissions: &'a HashMap<LayoutId, Active>,
}

impl mpl_hier::HierProgress for HierSink<'_> {
    fn piece_done(&self, layout: LayoutId, done: usize, total: usize) {
        if let Some(active) = self.submissions.get(&layout) {
            if active.submit.progress {
                active.writer.send(&Response::HierProgress {
                    id: active.submit.id.clone(),
                    done,
                    total,
                });
            }
        }
    }
}

/// The streaming decomposition server (see the crate-level documentation
/// for the wire protocol).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener.  The server does not accept connections until
    /// [`run`](Server::run) (or [`spawn`](Server::spawn) internally) is
    /// called.
    ///
    /// # Errors
    ///
    /// Any bind failure, a zero `pool_threads`, or a zero `memo_capacity`.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let pool = ThreadPoolExecutor::new(config.pool_threads).map_err(|error| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, error.to_string())
        })?;
        if config.memo_capacity == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                ConfigError::MemoCapacity { capacity: 0 }.to_string(),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                pending: Mutex::new(Vec::new()),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                pool,
                max_frame_len: config.max_frame_len,
                write_timeout: config.write_timeout,
                addr,
                technology: Technology::nm20(),
                memo: Arc::new(MemoCache::new(config.memo_capacity)),
                hier_runs: AtomicU64::new(0),
                tile_runs: AtomicU64::new(0),
                writer_metrics: Arc::new(WriterMetrics::default()),
                cancelled_requests: AtomicU64::new(0),
                deadline_exceeded_requests: AtomicU64::new(0),
                output_queue_frames: config.output_queue_frames.max(1),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop on the calling thread until a client sends a
    /// `shutdown` request, then drains the last batch and returns.
    pub fn run(self) {
        let scheduler_shared = Arc::clone(&self.shared);
        let scheduler = thread::Builder::new()
            .name("mpl-serve-scheduler".to_string())
            .spawn(move || scheduler_loop(scheduler_shared))
            .expect("spawn scheduler thread");

        for stream in self.listener.incoming() {
            if self.shared.shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            // Connection threads are detached: they exit on client EOF and
            // must not delay shutdown.
            let _ = thread::Builder::new()
                .name("mpl-serve-connection".to_string())
                .spawn(move || connection_loop(&shared, stream));
        }
        scheduler.join().expect("scheduler thread panicked");
    }

    /// Binds and runs the server on a background thread, returning a
    /// handle with the bound address.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures.
    pub fn spawn(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let thread = thread::Builder::new()
            .name("mpl-serve-listener".to_string())
            .spawn(move || server.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// A running [`Server`] on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends a `shutdown` request and waits for the server to exit.
    ///
    /// # Errors
    ///
    /// Any I/O failure while delivering the request; the server thread is
    /// still joined.
    pub fn shutdown(self) -> std::io::Result<()> {
        let deliver = (|| -> std::io::Result<()> {
            let mut stream = TcpStream::connect(self.addr)?;
            stream.write_all(
                encode_frame(&Json::object(vec![("type", Json::string("shutdown"))])).as_bytes(),
            )?;
            // Half-close the write side so the server's connection thread
            // sees EOF and hangs up after acknowledging — then draining to
            // EOF here confirms the request reached the server without the
            // two sides waiting on each other.
            stream.shutdown(std::net::Shutdown::Write)?;
            let mut sink = [0u8; 256];
            while stream.read(&mut sink)? > 0 {}
            Ok(())
        })();
        self.thread.join().expect("server thread panicked");
        deliver
    }

    /// Waits for the server to exit without requesting it — for callers
    /// that already delivered a `shutdown` frame over their own connection.
    pub fn join(self) {
        self.thread.join().expect("server thread panicked");
    }
}

/// Reads frames from one connection until EOF, a fatal framing error, or a
/// read failure — then auto-cancels whatever the connection still has
/// pending: with the reader gone, nothing can cancel or collect those
/// submissions any more, so their remaining work is wasted.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    // The write timeout is the stalled-client guard: the writer thread's
    // `write_all` fails with `TimedOut`/`WouldBlock` instead of blocking
    // forever behind a full socket buffer.
    if stream.set_write_timeout(shared.write_timeout).is_err() {
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let Some(writer) = ConnectionWriter::spawn(
        clone,
        shared.output_queue_frames,
        Arc::clone(&shared.writer_metrics),
    ) else {
        return;
    };
    let registry: CancelRegistry = Arc::new(Mutex::new(HashMap::new()));
    read_frames(shared, &writer, &registry, stream);
    // Terminal frames for the cancelled submissions still flow: the
    // scheduler and any queued `Pending`s hold writer clones, and the
    // writer thread drains its queue before closing the socket, so a
    // half-closed client reading to EOF sees them all.
    let tokens: Vec<CancelToken> = lock_recovering(&registry).values().cloned().collect();
    for token in tokens {
        token.cancel();
    }
}

/// The read half of [`connection_loop`]: parses frames until the peer goes
/// away or commits a fatal framing offence.
fn read_frames(
    shared: &Shared,
    writer: &ConnectionWriter,
    registry: &CancelRegistry,
    mut stream: TcpStream,
) {
    let mut decoder = FrameDecoder::with_max_frame_len(shared.max_frame_len);
    let mut chunk = vec![0u8; 64 * 1024];
    // When the oldest buffered byte — the first byte of the next frame —
    // arrived, and when the latest read returned.
    let mut frame_received = Instant::now();
    let mut last_read = frame_received;
    loop {
        loop {
            let received = frame_received;
            let next = decoder.next_frame();
            if !matches!(next, Ok(None)) {
                // Every frame completed before the latest read, so what
                // stays buffered behind this one arrived with that read.
                frame_received = last_read;
            }
            match next {
                Ok(Some(frame)) => {
                    if frame.trim().is_empty() {
                        continue;
                    }
                    handle_frame(shared, writer, registry, &frame, received);
                }
                Ok(None) => break,
                Err(error @ (FrameError::NotUtf8 | FrameError::Oversized { .. })) => {
                    // The bad frame was discarded; the stream is still
                    // newline-synchronised, so the connection survives.
                    writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
                }
                Err(error @ FrameError::TooLong { .. }) => {
                    // No resynchronisation point exists; drop the peer.
                    writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(read) => {
                last_read = Instant::now();
                if decoder.buffered() == 0 {
                    frame_received = last_read;
                }
                decoder.push(&chunk[..read]);
            }
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Answers one frame whose first byte arrived at `received`.
fn handle_frame(
    shared: &Shared,
    writer: &ConnectionWriter,
    registry: &CancelRegistry,
    frame: &str,
    received: Instant,
) {
    let json = match Json::parse(frame) {
        Ok(json) => json,
        Err(error) => {
            writer.send(&ServeError::Protocol(error.to_string()).to_response(None));
            return;
        }
    };
    // Attribute errors to the frame's id when one is present, even if the
    // rest of the frame is malformed.
    let id = json.get("id").and_then(Json::as_str).map(str::to_string);
    match decode_request(&json) {
        Err(error) => writer.send(&error.to_response(id)),
        Ok(Request::Ping) => {
            let stats = shared.memo.stats();
            writer.send(&Response::Pong {
                cache: Some(CachePayload {
                    entries: stats.entries,
                    capacity: stats.capacity,
                    hits: stats.hits,
                    misses: stats.misses,
                    evictions: stats.evictions,
                    bytes: stats.bytes,
                }),
                hier_runs: shared.hier_runs.load(Ordering::Relaxed),
                tile_runs: shared.tile_runs.load(Ordering::Relaxed),
                queued_frames: shared.writer_metrics.queued_frames.load(Ordering::Relaxed),
                dropped_progress: shared
                    .writer_metrics
                    .dropped_progress
                    .load(Ordering::Relaxed),
                cancelled_requests: shared.cancelled_requests.load(Ordering::Relaxed),
                deadline_exceeded_requests: shared
                    .deadline_exceeded_requests
                    .load(Ordering::Relaxed),
            });
        }
        Ok(Request::Shutdown) => {
            writer.send(&Response::ShuttingDown);
            shared.begin_shutdown();
        }
        Ok(Request::Cancel { id }) => {
            // Fire the token; the terminal `cancelled` frame comes from
            // the scheduler when it retires the submission, so exactly one
            // terminal frame exists however the cancel races completion.
            let token = lock_recovering(registry).get(&id).cloned();
            match token {
                Some(token) => token.cancel(),
                None => writer.send(&Response::Error {
                    id: Some(id),
                    code: ErrorCode::Cancel,
                    message: "no such submission pending on this connection \
                              (unknown id, or it already resolved)"
                        .to_string(),
                }),
            }
        }
        Ok(Request::Submit(submit)) => match plan_submission(shared, &submit) {
            Err(error) => writer.send(&error.to_response(Some(submit.id))),
            Ok((plan, tiling, hierarchy)) => {
                // The deadline clock started when the frame's first byte
                // arrived, so receiving, parsing, decoding and planning it
                // all count against the budget.  A budget too large to
                // represent as an instant is no budget at all.
                let deadline = submit
                    .deadline_ms
                    .and_then(|ms| received.checked_add(Duration::from_millis(ms)));
                let cancel = match deadline {
                    Some(deadline) => CancelToken::with_deadline(deadline),
                    None => CancelToken::new(),
                };
                // Register before queueing so a cancel racing right
                // behind the queued ack finds its token.
                lock_recovering(registry).insert(submit.id.clone(), cancel.clone());
                writer.send(&Response::Queued {
                    id: submit.id.clone(),
                    layout: plan.layout_name().to_string(),
                    vertices: plan.graph().vertex_count(),
                    components: plan.tasks().len(),
                });
                let id = submit.id.clone();
                let accepted = shared.enqueue(Pending {
                    plan,
                    submit,
                    tiling,
                    hierarchy,
                    writer: writer.clone(),
                    cancel,
                    registry: Arc::clone(registry),
                });
                if !accepted {
                    // Shutdown won the race after the queued frame went
                    // out; a terminal error beats a submission that would
                    // silently never resolve.
                    lock_recovering(registry).remove(&id);
                    writer.send(
                        &ServeError::Protocol(
                            "server is shutting down; submission not accepted".to_string(),
                        )
                        .to_response(Some(id)),
                    );
                }
            }
        },
    }
}

/// A validated submission, ready to queue: the plan plus its optional
/// tiling and hierarchy attachments.
type PlannedSubmission = (
    DecompositionPlan,
    Option<TileConfig>,
    Option<Arc<LayoutHierarchy>>,
);

/// Resolves a submission's layout source, plans it, and validates its
/// tiling/hierarchy request — every failure is a typed [`ServeError`]
/// answered on the submitting connection before anything queues.
fn plan_submission(
    shared: &Shared,
    submit: &SubmitRequest,
) -> Result<PlannedSubmission, ServeError> {
    if submit.hier && (submit.tile_size.is_some() || submit.halo.is_some()) {
        return Err(ConfigError::HierWithTiling.into());
    }
    let (layout, hierarchy) = load_source(&submit.source, submit.hier)?;
    let config = DecomposerConfig::k_patterning(submit.k, shared.technology)
        .with_algorithm(submit.algorithm)
        .with_alpha(submit.alpha);
    let plan = Decomposer::new(config)
        .plan(&layout)
        .map_err(ServeError::from)?;
    let tiling = submit_tiling(submit, &shared.technology)?;
    Ok((plan, tiling, hierarchy.map(Arc::new)))
}

/// Validates the `tile_size`/`halo` fields of a submission into a
/// [`TileConfig`], with the same typed rejections the CLI uses.
fn submit_tiling(
    submit: &SubmitRequest,
    technology: &Technology,
) -> Result<Option<TileConfig>, ServeError> {
    let Some(tile_size) = submit.tile_size else {
        return match submit.halo {
            Some(_) => Err(ConfigError::TileHaloWithoutTiling.into()),
            None => Ok(None),
        };
    };
    let mut tiling = TileConfig::new(Nm(tile_size));
    if let Some(halo) = submit.halo {
        tiling = tiling.with_halo(Nm(halo));
    }
    tiling.validate().map_err(ServeError::from)?;
    // `run_tiled` re-checks this per plan; rejecting here routes the typed
    // error to the submitting client instead of failing the whole batch.
    if let Some(halo) = tiling.halo {
        if halo < technology.coloring_distance(submit.k) {
            return Err(ConfigError::TileHalo { halo: halo.value() }.into());
        }
    }
    Ok(Some(tiling))
}

/// Loads a submission's layout; with `hier` set, GDS sources additionally
/// return their instance provenance (text sources have none and the
/// hierarchical driver degenerates to the plain memoized run for them).
fn load_source(
    source: &LayoutSource,
    hier: bool,
) -> Result<(Layout, Option<LayoutHierarchy>), ServeError> {
    let from_library =
        |library: &GdsLibrary| -> Result<(Layout, Option<LayoutHierarchy>), ServeError> {
            if hier {
                layout_with_hierarchy(library, &LayerMap::all(), &ReadOptions::default())
                    .map(|(layout, hierarchy)| (layout, Some(hierarchy)))
                    .map_err(|error| {
                        ServeError::Parse(format!("cannot convert GDS stream: {error}"))
                    })
            } else {
                layout_from_library(library, &LayerMap::all(), &ReadOptions::default())
                    .map(|layout| (layout, None))
                    .map_err(|error| {
                        ServeError::Parse(format!("cannot convert GDS stream: {error}"))
                    })
            }
        };
    match source {
        LayoutSource::Text(text) => io::from_text(text)
            .map(|layout| (layout, None))
            .map_err(|error| ServeError::Parse(format!("cannot parse layout text: {error}"))),
        LayoutSource::GdsBase64(data) => {
            let bytes = crate::base64::decode(data)
                .map_err(|error| ServeError::Parse(format!("cannot decode gds_base64: {error}")))?;
            let library = GdsLibrary::from_bytes(&bytes)
                .map_err(|error| ServeError::Parse(format!("cannot parse GDS stream: {error}")))?;
            from_library(&library)
        }
        LayoutSource::Path(path) => {
            if hier {
                let bytes = std::fs::read(path)
                    .map_err(|error| ServeError::Io(format!("cannot read {path}: {error}")))?;
                if io::LayoutFormat::detect(path, &bytes) == io::LayoutFormat::Gds {
                    let library = GdsLibrary::from_bytes(&bytes).map_err(|error| {
                        ServeError::Parse(format!("cannot parse {path}: {error}"))
                    })?;
                    return from_library(&library);
                }
                // Text files carry no hierarchy; fall through to the
                // ordinary loader for its path-tagged parse errors.
            }
            load_layout_file(path, &LayerMap::all(), &ReadOptions::default())
                .map(|layout| (layout, None))
                .map_err(|error| match &error {
                    LoadLayoutError::Io { .. } => ServeError::Io(error.to_string()),
                    _ => ServeError::Parse(error.to_string()),
                })
        }
    }
}

/// Drains pending submissions into coalesced batches until shutdown.
fn scheduler_loop(shared: Arc<Shared>) {
    // One reusable session per executor choice: ids stay unique across all
    // the batches this server ever runs.  Both sessions share the server's
    // one memo cache, so a layout colored on the pool is a cache hit when
    // it is resubmitted for the serial executor (and vice versa).
    let mut sessions: [(ExecutorChoice, DecompositionSession); 2] = [
        (
            ExecutorChoice::Serial,
            DecompositionSession::new().with_memo(Arc::clone(&shared.memo)),
        ),
        (
            ExecutorChoice::Pool,
            DecompositionSession::new().with_memo(Arc::clone(&shared.memo)),
        ),
    ];
    loop {
        let drained = {
            let mut pending = lock_recovering(&shared.pending);
            while pending.is_empty() && !shared.shutting_down() {
                pending = shared
                    .wake
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if pending.is_empty() {
                return; // shutdown with nothing left to drain
            }
            std::mem::take(&mut *pending)
        };
        run_wave(&shared, &mut sessions, drained);
    }
}

/// Runs one drained wave of submissions: one session batch per (executor
/// choice, tiling request, hierarchy flag) triple that has work, in
/// first-seen order — a session can only apply one [`TileConfig`] per
/// batch, and hierarchical batches drain through a different driver with
/// different progress frames, so mixed groups never share one.
fn run_wave(
    shared: &Shared,
    sessions: &mut [(ExecutorChoice, DecompositionSession); 2],
    drained: Vec<Pending>,
) {
    let mut groups: Vec<(usize, Option<TileConfig>, bool, Vec<Pending>)> = Vec::new();
    for pending in drained {
        let slot = sessions
            .iter()
            .position(|(choice, _)| *choice == pending.submit.executor)
            .expect("every executor choice has a session");
        match groups.iter_mut().find(|(s, tiling, hier, _)| {
            *s == slot && *tiling == pending.tiling && *hier == pending.submit.hier
        }) {
            Some((_, _, _, group)) => group.push(pending),
            None => groups.push((slot, pending.tiling, pending.submit.hier, vec![pending])),
        }
    }
    for (slot, tiling, hier, group) in groups {
        let (choice, session) = &mut sessions[slot];
        let executor: &dyn Executor = match choice {
            ExecutorChoice::Serial => &SerialExecutor,
            ExecutorChoice::Pool => &shared.pool,
        };
        session.set_tiling(tiling);
        run_batch(shared, session, executor, group, hier);
    }
}

fn run_batch(
    shared: &Shared,
    session: &mut DecompositionSession,
    executor: &dyn Executor,
    group: Vec<Pending>,
    hier: bool,
) {
    type Outcome = (
        LayoutId,
        mpl_core::DecompositionResult,
        Option<TilePayload>,
        Option<HierPayload>,
    );
    let mut submissions: HashMap<LayoutId, Active> = HashMap::with_capacity(group.len());
    for pending in group {
        let id = session.submit(pending.plan);
        session.set_hierarchy(id, pending.hierarchy);
        session.set_cancel(id, Some(pending.cancel.clone()));
        submissions.insert(
            id,
            Active {
                submit: pending.submit,
                writer: pending.writer,
                cancel: pending.cancel,
                registry: pending.registry,
            },
        );
    }
    let results: Vec<Outcome> = if hier {
        let sink = HierSink {
            submissions: &submissions,
        };
        match mpl_hier::run_hier_observed(session, executor, &sink) {
            Ok(results) => {
                shared
                    .hier_runs
                    .fetch_add(results.len() as u64, Ordering::Relaxed);
                results
                    .into_iter()
                    .map(|(id, hier)| (id, hier.result, None, Some(hier_payload(&hier.stats))))
                    .collect()
            }
            Err(error) => {
                // Submission-time validation makes this unreachable in
                // practice; answer every member typed rather than panic.
                let error = ServeError::Config(error);
                for active in submissions.values() {
                    lock_recovering(&active.registry).remove(&active.submit.id);
                    active
                        .writer
                        .send(&error.to_response(Some(active.submit.id.clone())));
                }
                session.clear();
                return;
            }
        }
    } else if session.tiling().is_some() {
        let sink = TileSink {
            submissions: &submissions,
        };
        match mpl_tile::run_tiled_observed(session, executor, &sink) {
            Ok(results) => {
                shared
                    .tile_runs
                    .fetch_add(results.len() as u64, Ordering::Relaxed);
                results
                    .into_iter()
                    .map(|(id, tiled)| (id, tiled.result, Some(tile_payload(&tiled.stats)), None))
                    .collect()
            }
            Err(error) => {
                // Submission-time validation makes this unreachable in
                // practice; answer every member typed rather than panic.
                let error = ServeError::Config(error);
                for active in submissions.values() {
                    lock_recovering(&active.registry).remove(&active.submit.id);
                    active
                        .writer
                        .send(&error.to_response(Some(active.submit.id.clone())));
                }
                session.clear();
                return;
            }
        }
    } else {
        let sink = BatchSink {
            submissions: &submissions,
        };
        session
            .run_observed(executor, &ProgressObserver::new(&sink))
            .into_iter()
            .map(|(id, result)| (id, result, None, None))
            .collect()
    };
    for (id, result, tiles, hierarchy) in results {
        let active = &submissions[&id];
        // Retire the registry entry first: from here on, a `cancel` for
        // this id is the non-fatal "already resolved" error, and the
        // terminal-frame decision below cannot change under it.
        lock_recovering(&active.registry).remove(&active.submit.id);
        // Terminal classification happens at emission time, off the token:
        // an explicit cancel wins (terminal `cancelled` frame), a deadline
        // that expired without one resolves as a partial `result`.
        if active.cancel.is_cancelled() {
            shared.cancelled_requests.fetch_add(1, Ordering::Relaxed);
            active.writer.send(&Response::Cancelled {
                id: active.submit.id.clone(),
                components_completed: result.components_completed(),
                components_skipped: result.components_skipped(),
                bnb_nodes: result
                    .component_stats()
                    .iter()
                    .map(|stats| stats.bnb_nodes)
                    .sum(),
            });
            continue;
        }
        let deadline_exceeded = result.deadline_exceeded();
        if deadline_exceeded {
            shared
                .deadline_exceeded_requests
                .fetch_add(1, Ordering::Relaxed);
        }
        let spacing_violations = active.submit.verify.then(|| {
            let plan = session.plan(id).expect("session keeps the batch's plans");
            verify_spacing(
                plan.graph(),
                result.colors(),
                shared.technology.coloring_distance(result.k()),
            )
            .len()
        });
        active.writer.send(&Response::Result(ResultPayload {
            id: active.submit.id.clone(),
            layout: result.layout_name().to_string(),
            k: result.k(),
            algorithm: result.algorithm().to_string(),
            executor: result.executor().to_string(),
            vertices: result.vertex_count(),
            components: result.component_count(),
            conflicts: result.conflicts(),
            stitches: result.stitches(),
            cost: result.cost(),
            color_seconds: result.color_time().as_secs_f64(),
            colors: result.colors().to_vec(),
            hidden_vertices: result.hidden_vertices(),
            kernel_vertices: result.kernel_vertices(),
            simplify_rounds: result.simplify_rounds(),
            bound_improvements: result.bound_improvements(),
            spacing_violations,
            memo_hits: result.memo_hits(),
            memo_misses: result.memo_misses(),
            cancelled: result.cancelled(),
            deadline_exceeded,
            components_completed: result.components_completed(),
            components_skipped: result.components_skipped(),
            tiles,
            hierarchy,
        }));
    }
    session.clear();
}

/// Converts the hierarchical driver's statistics into their wire payload.
fn hier_payload(stats: &HierStats) -> HierPayload {
    HierPayload {
        instances: stats.instances,
        cells: stats.cells,
        nested_inherited: stats.nested_inherited,
        resident_components: stats.resident_components,
        split_components: stats.split_components,
        instance_pieces: stats.instance_pieces,
        boundary_vertices: stats.boundary_vertices,
        permuted_pieces: stats.permuted_pieces,
        recolored_vertices: stats.recolored_vertices,
        cross_conflicts_before: stats.cross_conflicts_before,
        cross_conflicts_after: stats.cross_conflicts_after,
    }
}

/// Converts the tiler's statistics into their wire payload.
fn tile_payload(stats: &TileStats) -> TilePayload {
    TilePayload {
        grid_x: stats.grid_x,
        grid_y: stats.grid_y,
        tiles: stats.tiles,
        tiled_components: stats.tiled_components,
        resident_components: stats.resident_components,
        shared_vertices: stats.shared_vertices,
        permuted_tiles: stats.permuted_tiles,
        recolored_vertices: stats.recolored_vertices,
        cross_conflicts_before: stats.cross_conflicts_before,
        cross_conflicts_after: stats.cross_conflicts_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`ConnectionWriter`] with no writer thread draining it, so the
    /// queue state after `send` is exactly what the overflow policy left.
    fn writer_without_thread(capacity: usize) -> (ConnectionWriter, Arc<WriterMetrics>) {
        let metrics = Arc::new(WriterMetrics::default());
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                queue: VecDeque::new(),
                senders: 1,
                dead: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            metrics: Arc::clone(&metrics),
        });
        (ConnectionWriter { shared }, metrics)
    }

    fn progress(done: usize) -> Response {
        Response::Progress {
            id: "p".to_string(),
            done,
            total: 100,
        }
    }

    fn error_frame(tag: &str) -> Response {
        Response::Error {
            id: Some(tag.to_string()),
            code: ErrorCode::Io,
            message: "writer policy test".to_string(),
        }
    }

    #[test]
    fn overflow_drops_the_incoming_progress_frame_first() {
        let (writer, metrics) = writer_without_thread(2);
        for done in 0..5 {
            writer.send(&progress(done));
        }
        let state = lock_recovering(&writer.shared.state);
        assert_eq!(state.queue.len(), 2);
        assert_eq!(metrics.dropped_progress.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_full_queue_evicts_queued_progress_for_a_nondroppable_frame() {
        let (writer, metrics) = writer_without_thread(2);
        writer.send(&progress(1));
        writer.send(&progress(2));
        writer.send(&error_frame("e1"));
        {
            let state = lock_recovering(&writer.shared.state);
            assert_eq!(state.queue.len(), 1);
            assert!(!state.queue[0].droppable);
        }
        assert_eq!(metrics.dropped_progress.load(Ordering::Relaxed), 2);
        // A second non-droppable frame fits in the freed capacity.
        writer.send(&error_frame("e2"));
        let state = lock_recovering(&writer.shared.state);
        assert_eq!(state.queue.len(), 2);
        assert!(state.queue.iter().all(|frame| !frame.droppable));
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_dead_connection_swallows_frames_without_blocking() {
        let (writer, metrics) = writer_without_thread(1);
        lock_recovering(&writer.shared.state).dead = true;
        writer.send(&error_frame("e"));
        writer.send(&progress(1));
        assert_eq!(metrics.queued_frames.load(Ordering::Relaxed), 0);
        assert_eq!(
            lock_recovering(&writer.shared.state).queue.len(),
            0,
            "dead connections accept nothing"
        );
    }
}
