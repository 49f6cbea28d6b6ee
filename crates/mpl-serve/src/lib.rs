//! A streaming decomposition service over
//! [`DecompositionSession`](mpl_core::DecompositionSession).
//!
//! The decomposition pipeline is batch-first: a session coalesces the
//! component tasks of many layouts into one largest-first queue and drains
//! it on a shared executor.  This crate puts a long-running TCP front end
//! on top: clients stream `submit` requests, the server coalesces whatever
//! is pending into shared batches on its persistent executors, and each
//! layout's progress and final coloring stream back to the connection that
//! submitted it.  Everything is plain `std` — no crates.io dependencies —
//! like the rest of the workspace.
//!
//! # Wire protocol
//!
//! One frame = one JSON object per line, terminated by `\n` (a trailing
//! `\r` is tolerated, and frames have a configurable size cap).  TCP chunk
//! boundaries carry no meaning: the [`codec::FrameDecoder`] reassembles
//! frames however the bytes arrive.  Every frame has a `"type"` field.
//!
//! Client → server ([`protocol::Request`]):
//!
//! ```text
//! {"type":"submit","id":"j1","layout_text":"# layout a\n0 0 0 20 20\n",
//!  "k":4,"algorithm":"linear","alpha":0.1,"executor":"pool",
//!  "progress":true,"verify":true,"deadline_ms":5000}
//! {"type":"cancel","id":"j1"}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! A `submit` carries exactly one layout source — `layout_text` (the
//! workspace's text format), `gds_base64` (a base64 GDSII stream) or
//! `path` (a file on the server) — plus optional per-request parameters:
//! `k` (default 4), `algorithm` (`ilp` | `sdp-backtrack` | `sdp-greedy` |
//! `linear`, default `sdp-backtrack`), `alpha` (default 0.1), `executor`
//! (`pool` | `serial`, default `pool`), `progress` (stream per-component
//! ticks, default false), `verify` (server-side spacing re-check,
//! default false) and `deadline_ms` (soft budget, measured from the
//! arrival of the frame's first byte, so receiving, parsing and planning
//! the frame count against it; omitted = none).  The `id` is an arbitrary client-chosen
//! string echoed on every frame about that submission.
//!
//! # Deadlines and cancellation
//!
//! Both ride the same [`CancelToken`](mpl_core::CancelToken), polled by
//! every engine on its existing amortised clock checks: components that
//! have not started are skipped, components in flight stop at the next
//! poll, and components already colored keep their colors.  The two
//! resolve differently at the terminal frame:
//!
//! * a `cancel` frame for a pending id fires its token, and the
//!   submission resolves with a single terminal `cancelled` frame —
//!   `{"type":"cancelled","id":"j1","components_completed":2,
//!   "components_skipped":7,"bnb_nodes":412}` — in place of its `result`.
//!   Exactly one terminal frame is sent however the cancel races
//!   completion; cancelling an unknown or already-resolved id answers a
//!   non-fatal typed error with code `cancel`.
//! * an expired `deadline_ms` without an explicit cancel resolves as a
//!   partial `result` carrying `"deadline_exceeded":true` (and
//!   `"cancelled":true` per component in its stats), with
//!   `components_completed` / `components_skipped` counting the split.
//!   Skipped components report the all-zero coloring.
//!
//! A reader that disconnects auto-cancels every submission still pending
//! on that connection — with the reader gone, nothing could cancel or
//! collect them any more.
//!
//! # Output backpressure
//!
//! Each connection owns a bounded output queue
//! ([`ServerConfig::output_queue_frames`]) drained by a dedicated writer
//! thread.  When a slow or stalled reader fills it, progress-class frames
//! (`progress`, `tile_progress`, `hier_progress`) are dropped first —
//! newest first, counted in `dropped_progress` — and `queued` / `result`
//! / `cancelled` / `error` frames are never dropped: producers briefly
//! wait for space instead, and the write timeout
//! ([`ServerConfig::write_timeout`]) remains the last-resort guard that
//! declares a connection dead.
//!
//! Server → client ([`protocol::Response`]), per submission in order:
//!
//! ```text
//! {"type":"queued","id":"j1","layout":"a","vertices":9,"components":3}
//! {"type":"progress","id":"j1","done":1,"total":3}      (opt-in, per component)
//! {"type":"result","id":"j1","layout":"a","k":4,"algorithm":"Linear",
//!  "executor":"threads:2","vertices":9,"components":3,"conflicts":0,
//!  "stitches":1,"cost":0.1,"color_seconds":0.002,
//!  "spacing_violations":0,"memo_hits":1,"memo_misses":2,
//!  "colors":[0,1,2,0,3,1,2,0,1]}
//! ```
//!
//! `memo_hits` / `memo_misses` count the layout's components stamped from
//! (respectively colored into) the server's shared translation-canonical
//! memo cache — see the `mpl-memo` crate and the memoization section of
//! the workspace README.
//!
//! or, when anything goes wrong, a typed error frame that leaves the
//! connection usable:
//!
//! ```text
//! {"type":"error","id":"j1","code":"config",
//!  "message":"invalid configuration: mask count K must be in 2..=255, got 0"}
//! ```
//!
//! Error `code`s ([`protocol::ErrorCode`]): `protocol` (malformed frame or
//! field), `parse` (bad layout text / truncated GDS), `config` (the
//! pipeline's typed [`ConfigError`](mpl_core::ConfigError)), `decompose`
//! (planning failures such as degenerate shapes), `io` (unreadable
//! server-side `path`) and `cancel` (a `cancel` frame naming an unknown or
//! already-resolved id — non-fatal).  `ping` answers with the shared memo
//! cache's statistics plus the server's health counters —
//! `{"type":"pong","cache":{"entries":3,"capacity":65536,"hits":7,
//! "misses":3,"evictions":0,"bytes":1544},"queued_frames":0,
//! "dropped_progress":0,"cancelled_requests":0,
//! "deadline_exceeded_requests":0}` — where `queued_frames` is the current
//! depth summed over every connection's output queue, `dropped_progress`
//! counts progress-class frames shed to backpressure, and the last two
//! count submissions that resolved `cancelled` / deadline-expired.
//! `shutdown` answers `{"type":"shutting_down"}` before the server drains
//! its last batch and exits; concurrent `shutdown` frames from different
//! connections shut the server down exactly once.
//!
//! # Determinism
//!
//! Components are independent by construction, so a layout's coloring is a
//! function of the layout and its parameters alone: whatever batch the
//! scheduler coalesces a submission into, however submissions interleave
//! across connections, and whichever executor drains them, the served
//! result is bit-identical to a direct
//! [`DecompositionSession`](mpl_core::DecompositionSession) run
//! (`tests/serve_integration.rs` at the workspace root pins this for all
//! four engines).
//!
//! # Quick start
//!
//! ```
//! use mpl_serve::client::Client;
//! use mpl_serve::protocol::{LayoutSource, Request, Response, SubmitRequest};
//! use mpl_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::spawn(&ServerConfig::default())?; // ephemeral port
//! let mut client = Client::connect(handle.addr())?;
//! let layout = "# layout demo\n0 0 0 20 20\n1 100 0 120 20\n";
//! client.send(&Request::Submit(SubmitRequest::new(
//!     "demo",
//!     LayoutSource::Text(layout.to_string()),
//! )))?;
//! loop {
//!     match client.recv()? {
//!         Response::Result(result) => {
//!             assert_eq!(result.id, "demo");
//!             assert_eq!(result.conflicts, 0);
//!             break;
//!         }
//!         Response::Error { message, .. } => panic!("{message}"),
//!         _ => {} // queued / progress
//!     }
//! }
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
pub mod client;
pub mod codec;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use codec::{encode_frame, FrameDecoder, FrameError};
pub use json::{Json, JsonParseError};
pub use protocol::{
    algorithm_wire_name, decode_request, decode_response, encode_request, encode_response,
    CachePayload, ErrorCode, ExecutorChoice, HierPayload, LayoutSource, Request, Response,
    ResultPayload, ServeError, SubmitRequest, TilePayload,
};
pub use server::{Server, ServerConfig, ServerHandle};
