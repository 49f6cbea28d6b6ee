//! Fault injection against the `mpl-serve` wire protocol.
//!
//! Where `serve_integration.rs` pins the happy path, this harness attacks
//! the server: readers that stall, connections that die mid-frame, cancel
//! frames racing completion, storms of already-expired deadlines,
//! malformed-frame floods and simultaneous shutdowns.  The properties
//! asserted are the robustness contract of the serve layer:
//!
//! * the server stays responsive to healthy connections whatever one
//!   misbehaving peer does;
//! * a submission resolves with **exactly one** terminal frame (`result`,
//!   `cancelled` or an id-tagged fatal `error`) — never zero, never two;
//! * result frames are never dropped by output back-pressure;
//! * cancellation takes effect before a not-yet-started component starts,
//!   asserted with work counters (`bnb_nodes`, skip counts), not
//!   wall-clock;
//! * a deadline runs from the frame's first byte, and a multi-megabyte
//!   frame is ingested well within a generous one.

use mpl_layout::{gen, io, Technology};
use mpl_serve::{FrameDecoder, Json, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// A low-level protocol driver: hand-built lines out, raw frames in.
struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    stashed: Vec<Json>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        RawClient {
            stream: TcpStream::connect(addr).expect("connect to test server"),
            decoder: FrameDecoder::new(),
            stashed: Vec::new(),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write frame");
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write bytes");
    }

    /// Blocks until the next frame arrives and parses it.
    fn recv(&mut self) -> Json {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self.decoder.next_frame().expect("well-framed response") {
                if frame.trim().is_empty() {
                    continue;
                }
                return Json::parse(&frame).expect("server frames are valid JSON");
            }
            let read = self.stream.read(&mut chunk).expect("read from server");
            assert!(read > 0, "server closed the connection unexpectedly");
            self.decoder.push(&chunk[..read]);
        }
    }

    /// Skips non-terminal frames until the terminal frame (`result`,
    /// `cancelled` or `error`) for `id` arrives; terminal frames for other
    /// submissions are stashed.
    fn await_terminal(&mut self, id: &str) -> Json {
        if let Some(position) = self
            .stashed
            .iter()
            .position(|frame| frame.get("id").and_then(Json::as_str) == Some(id))
        {
            return self.stashed.remove(position);
        }
        loop {
            let frame = self.recv();
            match frame.get("type").and_then(Json::as_str).expect("type") {
                "queued" | "progress" | "tile_progress" | "hier_progress" | "pong" => continue,
                "result" | "cancelled" | "error" => {
                    if frame.get("id").and_then(Json::as_str) == Some(id) {
                        return frame;
                    }
                    self.stashed.push(frame);
                }
                other => panic!("unexpected frame type {other:?}: {frame}"),
            }
        }
    }
}

fn spawn_server() -> ServerHandle {
    Server::spawn(&ServerConfig::default()).expect("bind ephemeral port")
}

fn row_layout_text(name: &str, seed: u64) -> String {
    io::to_text(&gen::generate_row_layout(
        &gen::RowLayoutConfig::small(name, seed),
        &Technology::nm20(),
    ))
}

/// Builds a `submit` frame through the JSON writer so escaping is always
/// correct.
fn submit_frame(id: &str, layout_text: &str, extras: &[(&str, Json)]) -> String {
    let mut pairs = vec![
        ("type", Json::string("submit")),
        ("id", Json::string(id)),
        ("layout_text", Json::string(layout_text)),
        ("algorithm", Json::string("linear")),
        ("executor", Json::string("serial")),
    ];
    pairs.extend(extras.iter().cloned());
    Json::object(pairs).to_string()
}

fn field(frame: &Json, key: &str) -> usize {
    frame
        .get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("frame carries {key}: {frame}"))
}

fn pong_counter(pong: &Json, key: &str) -> usize {
    pong.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("pong carries {key}: {pong}"))
}

#[test]
fn a_stalled_reader_does_not_block_other_connections_or_lose_results() {
    let handle = Server::spawn(&ServerConfig {
        // Small queue so the stalled connection actually exercises the
        // bounded-queue path while its frames pile up.
        output_queue_frames: 8,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");

    // The stalled connection submits three layouts with progress streaming
    // on, then reads nothing while another connection works.
    let mut stalled = RawClient::connect(handle.addr());
    let stalled_layouts: Vec<String> = (0..3)
        .map(|index| row_layout_text(&format!("stall-{index}"), 40 + index as u64))
        .collect();
    for (index, text) in stalled_layouts.iter().enumerate() {
        stalled.send_line(&submit_frame(
            &format!("stall-{index}"),
            text,
            &[("progress", Json::Bool(true))],
        ));
    }

    // A healthy connection completes several round trips meanwhile — the
    // server must stay responsive whatever the stalled peer's queue does.
    let mut healthy = RawClient::connect(handle.addr());
    for round in 0..4 {
        let id = format!("healthy-{round}");
        healthy.send_line(&submit_frame(&id, &row_layout_text(&id, 90 + round), &[]));
        let frame = healthy.await_terminal(&id);
        assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    }

    // The stalled reader finally drains its socket: every result frame must
    // be there, intact — back-pressure may only have cost progress ticks.
    for index in 0..3 {
        let frame = stalled.await_terminal(&format!("stall-{index}"));
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "result frames are never dropped: {frame}"
        );
        let colors = frame
            .get("colors")
            .and_then(Json::as_array)
            .expect("full color assignment");
        assert_eq!(colors.len(), field(&frame, "vertices"));
    }
    assert!(stalled.stashed.is_empty(), "no duplicate terminal frames");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn mid_frame_disconnects_leave_the_server_serving() {
    let handle = spawn_server();

    // Half a frame, then gone.
    let mut torn = RawClient::connect(handle.addr());
    torn.send_bytes(b"{\"type\":\"sub");
    drop(torn);

    // A full valid submit, then half of a second frame, then gone: the
    // accepted submission is auto-cancelled by the reader's EOF.
    let mut torn = RawClient::connect(handle.addr());
    let line = submit_frame("torn", &row_layout_text("torn", 5), &[]);
    torn.send_bytes(format!("{line}\n{{\"type\":\"canc").as_bytes());
    drop(torn);

    // Garbage bytes mid-"frame", then gone.
    let mut torn = RawClient::connect(handle.addr());
    torn.send_bytes(&[0xff, 0x00, 0x80]);
    drop(torn);

    let mut healthy = RawClient::connect(handle.addr());
    healthy.send_line(&submit_frame("after", &row_layout_text("after", 6), &[]));
    let frame = healthy.await_terminal("after");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cancel_completion_races_resolve_with_exactly_one_terminal_frame() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());
    let layout = row_layout_text("race", 17);

    for round in 0..12 {
        let id = format!("race-{round}");
        // Submit and cancel in one TCP write: the cancel chases the
        // submission as closely as the protocol allows.
        let submit = submit_frame(&id, &layout, &[]);
        let cancel = Json::object(vec![
            ("type", Json::string("cancel")),
            ("id", Json::string(id.clone())),
        ])
        .to_string();
        client.send_bytes(format!("{submit}\n{cancel}\n").as_bytes());

        let mut components = None;
        let mut terminal = None;
        let mut cancel_errors = 0usize;
        // Read until the terminal frame and a trailing pong barrier: any
        // non-fatal cancel error (the cancel lost the race) is enqueued by
        // the reader before the pong, so draining to the pong observes it.
        client.send_line("{\"type\":\"ping\"}");
        loop {
            let frame = client.recv();
            match frame.get("type").and_then(Json::as_str).expect("type") {
                "queued" => components = Some(field(&frame, "components")),
                "progress" => {}
                "pong" if terminal.is_some() => break,
                "pong" => {
                    // The scheduler has not resolved the submission yet;
                    // keep a second barrier in flight.
                    client.send_line("{\"type\":\"ping\"}");
                }
                "result" | "cancelled" => {
                    assert!(
                        terminal.is_none(),
                        "second terminal frame for {id}: {frame}"
                    );
                    terminal = Some(frame);
                }
                "error" => {
                    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));
                    assert_eq!(frame.get("id").and_then(Json::as_str), Some(id.as_str()));
                    cancel_errors += 1;
                }
                other => panic!("unexpected frame type {other:?}: {frame}"),
            }
        }

        let terminal = terminal.expect("every submission resolves");
        let components = components.expect("queued frame seen");
        match terminal.get("type").and_then(Json::as_str).unwrap() {
            "cancelled" => {
                // The cancel was processed while the submission was still
                // pending: its counters must cover every component, and a
                // submission cancelled before its batch started must not
                // have burned any search nodes — the work-counter form of
                // "cancellation latency is bounded".
                let completed = field(&terminal, "components_completed");
                let skipped = field(&terminal, "components_skipped");
                assert_eq!(completed + skipped, components);
                if skipped == components {
                    assert_eq!(field(&terminal, "bnb_nodes"), 0);
                }
                assert_eq!(cancel_errors, 0, "cancelled ⇒ the cancel frame hit");
            }
            "result" => {
                // Completion won; the late cancel must have answered with
                // the non-fatal typed error (or raced the retirement and
                // still fired the token — then the terminal would have
                // been `cancelled`, handled above).
                assert_eq!(cancel_errors, 1, "late cancel answers typed error");
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }
    assert!(client.stashed.is_empty());
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cancelling_unknown_or_finished_ids_is_a_nonfatal_typed_error() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    client.send_line("{\"type\":\"cancel\",\"id\":\"never-submitted\"}");
    let frame = client.recv();
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));
    assert_eq!(
        frame.get("id").and_then(Json::as_str),
        Some("never-submitted")
    );

    // A finished submission is indistinguishable from an unknown one.
    client.send_line(&submit_frame("done", &row_layout_text("done", 8), &[]));
    let frame = client.await_terminal("done");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    client.send_line("{\"type\":\"cancel\",\"id\":\"done\"}");
    let frame = client.recv();
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("cancel"));

    // The connection survives both errors.
    client.send_line(&submit_frame("again", &row_layout_text("again", 9), &[]));
    let frame = client.await_terminal("again");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_deadline_storm_returns_well_formed_flagged_partial_results() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    // Every submission's deadline is already expired on acceptance, so
    // every component is skipped at its work-entry poll — no wall-clock
    // sensitivity, pure counter assertions.
    const STORM: usize = 8;
    for index in 0..STORM {
        client.send_line(&submit_frame(
            &format!("storm-{index}"),
            &row_layout_text(&format!("storm-{index}"), 60 + index as u64),
            &[("deadline_ms", Json::Number(0.0))],
        ));
    }
    for index in 0..STORM {
        let frame = client.await_terminal(&format!("storm-{index}"));
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "a deadline miss is a partial *result*, not an error: {frame}"
        );
        assert_eq!(frame.get("deadline_exceeded"), Some(&Json::Bool(true)));
        // Undisturbed flags stay off the wire: a deadline miss is not a
        // cancellation.
        assert_eq!(frame.get("cancelled"), None);
        let components = field(&frame, "components");
        assert_eq!(field(&frame, "components_skipped"), components);
        assert_eq!(field(&frame, "components_completed"), 0);
        let colors = frame
            .get("colors")
            .and_then(Json::as_array)
            .expect("partial results still carry a full-length color array");
        assert_eq!(colors.len(), field(&frame, "vertices"));
        assert!(colors.iter().all(|color| color.as_usize() == Some(0)));
    }

    client.send_line("{\"type\":\"ping\"}");
    let pong = client.recv();
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    assert!(pong_counter(&pong, "deadline_exceeded_requests") >= STORM);

    // A deadline-free submission on the same connection is unaffected.
    client.send_line(&submit_frame("calm", &row_layout_text("calm", 99), &[]));
    let frame = client.await_terminal("calm");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(frame.get("deadline_exceeded"), None);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_deadline_runs_from_the_frames_first_byte() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    // The budget is the last field, so it arrives only after the stall:
    // counted from the first byte it has expired before the frame is even
    // complete, and every component is skipped before it starts.
    let frame = submit_frame(
        "trickle",
        &row_layout_text("trickle", 73),
        &[("deadline_ms", Json::Number(100.0))],
    );
    let (head, tail) = frame.split_at(frame.len() / 2);
    client.send_bytes(head.as_bytes());
    thread::sleep(Duration::from_millis(300));
    client.send_line(tail);

    let result = client.await_terminal("trickle");
    assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(result.get("deadline_exceeded"), Some(&Json::Bool(true)));
    let components = field(&result, "components");
    assert!(components > 0);
    assert_eq!(field(&result, "components_skipped"), components);
    assert_eq!(field(&result, "components_completed"), 0);

    client.send_line("{\"type\":\"ping\"}");
    let pong = client.recv();
    assert_eq!(pong_counter(&pong, "deadline_exceeded_requests"), 1);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_multi_megabyte_frame_resolves_within_its_deadline() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    // A small layout padded to ~4 MiB with comment lines that mix ASCII
    // and multi-byte UTF-8: the layout parser skips comments, so nearly
    // all of the cost is ingesting the frame.
    let mut layout = row_layout_text("padded", 83);
    let padding = "# padding: ascii text, é ß ü, 漢字 かな, 😀 🚀, and \\ \"quotes\"\n";
    while layout.len() < 4 << 20 {
        layout.push_str(padding);
    }
    let frame = submit_frame(
        "padded",
        &layout,
        &[
            ("verify", Json::Bool(true)),
            ("deadline_ms", Json::Number(30_000.0)),
        ],
    );
    assert!(frame.len() >= 4 << 20, "frame is {} bytes", frame.len());
    client.send_line(&frame);

    let result = client.await_terminal("padded");
    assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(result.get("deadline_exceeded"), None);
    assert!(field(&result, "components") > 0);
    assert_eq!(
        result
            .get("components_skipped")
            .map_or(Some(0), Json::as_usize),
        Some(0)
    );
    assert_eq!(
        field(&result, "spacing_violations"),
        field(&result, "conflicts")
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_frame_floods_yield_typed_errors_and_the_connection_survives() {
    let handle = spawn_server();
    let mut client = RawClient::connect(handle.addr());

    let mut expected_errors = 0usize;
    for round in 0..10 {
        // Unparsable JSON.
        client.send_line(&format!("this is not json #{round}"));
        // Parsable, but not a request.
        client.send_line("{}");
        client.send_line("[1,2,3]");
        client.send_line("{\"type\":\"no-such-frame\"}");
        client.send_line("{\"type\":\"submit\"}");
        expected_errors += 5;
    }
    // A non-UTF-8 frame: discarded, stream survives.
    client.send_bytes(&[0xff, 0xfe, 0xfd, b'\n']);
    expected_errors += 1;

    for count in 0..expected_errors {
        let frame = client.recv();
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("error"),
            "flood frame {count} answers a typed error: {frame}"
        );
        assert!(frame.get("code").and_then(Json::as_str).is_some());
    }

    // The connection is still newline-synchronised and fully usable.
    client.send_line(&submit_frame("sane", &row_layout_text("sane", 3), &[]));
    let frame = client.await_terminal("sane");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn an_oversized_frame_is_discarded_and_an_unterminated_one_is_fatal() {
    // A cap far below one TCP segment, so the oversized line arrives whole
    // in a single read and hits the recoverable newline-synchronised path.
    let config = ServerConfig {
        max_frame_len: 64,
        ..ServerConfig::default()
    };

    let handle = Server::spawn(&config).expect("bind ephemeral port");
    let mut client = RawClient::connect(handle.addr());
    client.send_line(&"x".repeat(100));
    let frame = client.recv();
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert!(
        frame
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|message| message.contains("64-byte limit")),
        "{frame}"
    );
    // The offending frame was discarded whole: the connection still works.
    client.send_line("{\"type\":\"ping\"}");
    let pong = client.recv();
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    handle.shutdown().expect("clean shutdown");

    // A frame that exceeds the cap with its newline nowhere in sight can
    // never be resynchronised: typed error, then the connection closes.
    let handle = Server::spawn(&config).expect("bind ephemeral port");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&[b'y'; 200]).expect("write unterminated");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 1024];
    let mut saw_error = false;
    loop {
        while let Ok(Some(frame)) = decoder.next_frame() {
            if frame.trim().is_empty() {
                continue;
            }
            let json = Json::parse(&frame).expect("valid frame");
            assert_eq!(json.get("type").and_then(Json::as_str), Some("error"));
            saw_error = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(read) => decoder.push(&chunk[..read]),
        }
    }
    assert!(
        saw_error,
        "the fatal framing offence still answers an error"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_reader_disconnect_auto_cancels_that_connections_pending_requests() {
    let handle = spawn_server();

    // Pre-generate everything so the doomed phase below is nothing but
    // socket round-trips.
    let doomed_texts: Vec<String> = (0..6)
        .map(|index| row_layout_text(&format!("doomed-{index}"), 70 + index as u64))
        .collect();
    let plug_text = io::to_text(&gen::generate_row_layout(
        &gen::RowLayoutConfig {
            rows: 32,
            cells_per_row: 80,
            k5_clusters: 6,
            dense_strips: 3,
            ..gen::RowLayoutConfig::small("plug", 700)
        },
        &Technology::nm20(),
    ));

    // The scheduler retires submissions wave by wave: everything that
    // arrives while a wave is computing resolves only after that wave's
    // whole batch finishes.  One large exact-solver job therefore opens a
    // deterministic window in which later submissions cannot retire.
    let mut plug = RawClient::connect(handle.addr());
    plug.send_line(
        &Json::object(vec![
            ("type", Json::string("submit")),
            ("id", Json::string("plug")),
            ("layout_text", Json::string(plug_text)),
            ("algorithm", Json::string("ilp")),
            ("executor", Json::string("serial")),
        ])
        .to_string(),
    );
    let ack = plug.recv();
    assert_eq!(
        ack.get("type").and_then(Json::as_str),
        Some("queued"),
        "{ack}"
    );

    // Submit a wave inside the plug's window and vanish.  Draining the
    // acks first guarantees all six are registered and every byte this
    // connection will ever send has been consumed, so the disconnect
    // cannot race the submits themselves.
    let mut doomed = RawClient::connect(handle.addr());
    for (index, text) in doomed_texts.iter().enumerate() {
        doomed.send_line(&submit_frame(&format!("doomed-{index}"), text, &[]));
    }
    for _ in 0..6 {
        let ack = doomed.recv();
        assert_eq!(
            ack.get("type").and_then(Json::as_str),
            Some("queued"),
            "{ack}"
        );
    }
    drop(doomed);

    // The disconnect cancels whatever had not resolved yet; the scheduler
    // counts those as it retires them.  Poll the counter — bounded
    // iterations, no wall-clock assertion on *how fast*.
    let mut observer = RawClient::connect(handle.addr());
    let mut cancelled = 0usize;
    for _ in 0..24_000 {
        observer.send_line("{\"type\":\"ping\"}");
        let pong = observer.recv();
        cancelled = pong_counter(&pong, "cancelled_requests");
        if cancelled > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        cancelled > 0,
        "at least one of the six pending submissions was auto-cancelled"
    );

    // And the server keeps serving.
    observer.send_line(&submit_frame("alive", &row_layout_text("alive", 1), &[]));
    let frame = observer.await_terminal("alive");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("result"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn simultaneous_shutdown_frames_from_two_connections_resolve_once() {
    let handle = spawn_server();
    let addr = handle.addr();

    let shooters: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .write_all(b"{\"type\":\"shutdown\"}\n")
                    .expect("send shutdown");
                // Half-close so the server's reader sees EOF and hangs up
                // once the ack has drained, then read to EOF; the ack may
                // or may not arrive before the socket closes, and both
                // are acceptable.
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close");
                let mut decoder = FrameDecoder::new();
                let mut chunk = [0u8; 1024];
                let mut acked = false;
                loop {
                    while let Ok(Some(frame)) = decoder.next_frame() {
                        if !frame.trim().is_empty() {
                            let json = Json::parse(&frame).expect("valid frame");
                            assert_eq!(
                                json.get("type").and_then(Json::as_str),
                                Some("shutting_down")
                            );
                            acked = true;
                        }
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return acked,
                        Ok(read) => decoder.push(&chunk[..read]),
                    }
                }
            })
        })
        .collect();

    let acks: Vec<bool> = shooters
        .into_iter()
        .map(|shooter| shooter.join().expect("shutdown client panicked"))
        .collect();
    assert!(
        acks.iter().any(|&acked| acked),
        "at least one shutdown frame is acknowledged"
    );

    // The deterministic part of the regression: the server must come down
    // exactly once, promptly, with no hung listener or scheduler thread.
    handle.join();
}
