//! Newline-delimited framing over a byte stream.
//!
//! The wire protocol is one JSON document per line (`\n`-terminated; a
//! trailing `\r` is tolerated for telnet-style clients).  TCP delivers the
//! byte stream in arbitrary chunks, so the [`FrameDecoder`] buffers
//! whatever arrives and yields complete frames regardless of where the
//! chunk boundaries fall — the property test in
//! `tests/proptest_codec.rs` splits encoded traffic at arbitrary positions
//! and asserts every frame is recovered intact and in order.

use crate::json::Json;
use std::fmt;

/// Default cap on a single frame (16 MiB) — a missing newline must not let
/// one peer buffer unbounded memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame exceeded the decoder's maximum length before its newline
    /// arrived.  The connection cannot be resynchronised and should close.
    TooLong {
        /// The configured limit.
        limit: usize,
    },
    /// A *complete* frame (its newline arrived) exceeded the decoder's
    /// maximum length.  The oversized frame has been discarded and the
    /// stream is still newline-synchronised, so decoding may continue —
    /// unlike [`TooLong`](FrameError::TooLong), this is recoverable.
    Oversized {
        /// The configured limit.
        limit: usize,
    },
    /// A complete frame was not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit (frame discarded)")
            }
            FrameError::NotUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reassembles newline-delimited frames from arbitrarily-chunked bytes.
///
/// Feed raw reads with [`push`](FrameDecoder::push), then drain complete
/// frames with [`next_frame`](FrameDecoder::next_frame) until it returns
/// `None`.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buffer: Vec<u8>,
    /// Start of the first frame not yet yielded.  Yielded frames stay in
    /// the buffer until it runs dry of complete frames, so a chunk holding
    /// many small frames is not shifted down once per frame.
    start: usize,
    /// Number of leading buffer bytes already scanned for a newline, so
    /// repeated pushes of a long frame do not rescan from the start.
    scanned: usize,
    max_frame_len: usize,
}

impl FrameDecoder {
    /// A decoder with the default frame-length limit.
    pub fn new() -> Self {
        FrameDecoder::with_max_frame_len(DEFAULT_MAX_FRAME_LEN)
    }

    /// A decoder rejecting frames longer than `max_frame_len` bytes
    /// (excluding the newline).
    pub fn with_max_frame_len(max_frame_len: usize) -> Self {
        FrameDecoder {
            buffer: Vec::new(),
            start: 0,
            scanned: 0,
            max_frame_len,
        }
    }

    /// Appends one chunk of received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if one is buffered.
    ///
    /// A trailing `\r` (CRLF line ending) is stripped.  Empty frames (bare
    /// newlines) are yielded as empty strings; the caller decides whether
    /// to skip them.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLong`] when more than the limit is buffered with no
    /// newline in sight, [`FrameError::Oversized`] when a complete frame
    /// (newline present) exceeds the limit, [`FrameError::NotUtf8`] when a
    /// complete frame is not UTF-8.  After `TooLong` the stream cannot be
    /// resynchronised; after `Oversized` or `NotUtf8` the offending frame
    /// has been discarded and decoding may continue.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        match self.buffer[self.scanned..]
            .iter()
            .position(|&byte| byte == b'\n')
        {
            Some(found) => {
                let newline = self.scanned + found;
                let mut frame = &self.buffer[self.start..newline];
                self.start = newline + 1;
                self.scanned = self.start;
                if frame.last() == Some(&b'\r') {
                    frame = &frame[..frame.len() - 1];
                }
                if frame.len() > self.max_frame_len {
                    return Err(FrameError::Oversized {
                        limit: self.max_frame_len,
                    });
                }
                match std::str::from_utf8(frame) {
                    Ok(text) => Ok(Some(text.to_string())),
                    Err(_) => Err(FrameError::NotUtf8),
                }
            }
            None => {
                self.buffer.drain(..self.start);
                self.start = 0;
                self.scanned = self.buffer.len();
                if self.buffer.len() > self.max_frame_len {
                    return Err(FrameError::TooLong {
                        limit: self.max_frame_len,
                    });
                }
                Ok(None)
            }
        }
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.start
    }
}

/// Encodes one JSON document as a wire frame (compact JSON + `\n`),
/// written straight into the one returned buffer.
pub fn encode_frame(value: &Json) -> String {
    let mut frame = String::new();
    value.write(&mut frame);
    frame.push('\n');
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_across_chunk_boundaries_reassemble() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"{\"a\"");
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.push(b":1}\n{\"b\":2}\n{\"c\"");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "{\"b\":2}");
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.push(b":3}\n");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "{\"c\":3}");
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn many_frames_in_one_chunk_yield_in_order_with_the_tail_buffered() {
        let mut decoder = FrameDecoder::new();
        let chunk: String = (0..1000).map(|index| format!("{index}\n")).collect();
        decoder.push(format!("{chunk}{{\"tail\"").as_bytes());
        for index in 0..1000 {
            assert_eq!(decoder.next_frame().unwrap().unwrap(), index.to_string());
        }
        assert_eq!(decoder.buffered(), "{\"tail\"".len());
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.push(b":1}\n");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "{\"tail\":1}");
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn crlf_and_empty_lines() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"x\r\n\ny\n");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "x");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "y");
    }

    #[test]
    fn oversized_frames_are_rejected_before_the_newline_arrives() {
        let mut decoder = FrameDecoder::with_max_frame_len(8);
        decoder.push(b"0123456789");
        assert_eq!(
            decoder.next_frame().unwrap_err(),
            FrameError::TooLong { limit: 8 }
        );
        // When the newline is present the error is the recoverable variant.
        let mut decoder = FrameDecoder::with_max_frame_len(4);
        decoder.push(b"0123456\n");
        assert_eq!(
            decoder.next_frame().unwrap_err(),
            FrameError::Oversized { limit: 4 }
        );
    }

    #[test]
    fn a_frame_exactly_at_the_cap_is_accepted() {
        let mut decoder = FrameDecoder::with_max_frame_len(8);
        decoder.push(b"01234567\n");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "01234567");
        // The cap excludes the newline and any trailing carriage return.
        let mut decoder = FrameDecoder::with_max_frame_len(8);
        decoder.push(b"01234567\r\n");
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "01234567");
    }

    #[test]
    fn one_byte_over_the_cap_is_rejected_and_the_stream_survives() {
        let mut decoder = FrameDecoder::with_max_frame_len(8);
        decoder.push(b"012345678\nok\n");
        assert_eq!(
            decoder.next_frame().unwrap_err(),
            FrameError::Oversized { limit: 8 }
        );
        // The oversized frame was discarded whole; the next frame decodes.
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "ok");
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn invalid_utf8_frames_are_skippable() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0xff, 0xfe, b'\n', b'o', b'k', b'\n']);
        assert_eq!(decoder.next_frame().unwrap_err(), FrameError::NotUtf8);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), "ok");
    }

    #[test]
    fn encode_frame_appends_exactly_one_newline() {
        let frame = encode_frame(&Json::object(vec![("t", Json::string("ping"))]));
        assert_eq!(frame, "{\"t\":\"ping\"}\n");
    }
}
