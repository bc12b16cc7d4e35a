//! Length-prefixed JSON framing over a byte stream.
//!
//! Every fabric message travels as one *frame*: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON (one
//! [`valley_sim::json::Json`] value, the same hand-rolled encoding the
//! result store uses — no new wire format, no new dependencies). The
//! functions are generic over `Read`/`Write`, so the loopback tests can
//! frame through in-memory buffers and the property tests can prove the
//! encode→frame→decode round trip bit-identical without a socket.
//!
//! A length prefix makes partial reads unambiguous: a peer that dies
//! mid-frame leaves a short read, which surfaces as a [`WireError::Io`]
//! at the receiver — the coordinator treats that exactly like a
//! disconnect and re-leases the dead peer's jobs.

use std::io::{Read, Write};
use valley_sim::json::{self, Json};

/// Hard cap on one frame's payload, in bytes. A full small-scale grid of
/// reports is well under a megabyte; anything near this limit is a
/// corrupt or hostile length prefix, not a real message.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Errors from reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes short reads mid-frame —
    /// the signature of a peer dying, and read timeouts surfaced by a
    /// socket with `set_read_timeout`).
    Io(std::io::Error),
    /// The frame was transported intact but its payload is not the JSON
    /// (or not the message shape) the protocol expects.
    Protocol(String),
}

impl WireError {
    /// Whether this error is a read timeout (the coordinator's handler
    /// loops poll with a socket read timeout so they can notice
    /// shutdown; a timeout is "no frame yet", not a dead peer).
    /// [`read_frame`] reports a timeout this way only when it consumed
    /// nothing, so retrying the read is always safe.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "fabric wire I/O error: {e}"),
            WireError::Protocol(msg) => write!(f, "fabric protocol error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one JSON value as a frame and flushes the stream.
pub fn write_frame(w: &mut impl Write, value: &Json) -> Result<(), WireError> {
    let payload = value.to_json_string();
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            WireError::Protocol(format!("frame of {} bytes exceeds the cap", payload.len()))
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// A read timeout after part of a frame was consumed: the stream
/// position is inside the frame, so the caller must not retry as if no
/// frame had started. Reported as a plain I/O error, not a timeout.
fn mid_frame(e: std::io::Error) -> std::io::Error {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            std::io::Error::other(format!("peer stalled inside a frame: {e}"))
        }
        _ => e,
    }
}

/// Reads one frame and parses its payload. Blocks until a full frame
/// arrives. The stream's read timeout surfaces as
/// [`WireError::is_timeout`] only between frames (zero bytes consumed);
/// once the first byte is in, a timeout is a non-timeout
/// [`WireError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Json, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes[..1])?;
    r.read_exact(&mut len_bytes[1..]).map_err(mid_frame)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    // Grow the payload as bytes arrive: the prefix is the peer's claim,
    // and a claim must not make this side commit 64 MiB per connection.
    let mut payload = Vec::new();
    let got = r
        .take(u64::from(len))
        .read_to_end(&mut payload)
        .map_err(mid_frame)?;
    if got < len as usize {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|e| WireError::Protocol(format!("frame payload is not UTF-8: {e}")))?;
    json::parse(text).map_err(|e| WireError::Protocol(format!("frame payload is not JSON: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let values = [
            Json::Obj(vec![("t".into(), Json::Str("hello".into()))]),
            Json::Arr(vec![Json::UInt(u64::MAX), Json::Num(0.5)]),
            Json::Str("with \"escapes\" \n".into()),
        ];
        let mut buf = Vec::new();
        for v in &values {
            write_frame(&mut buf, v).unwrap();
        }
        let mut cursor = &buf[..];
        for v in &values {
            assert_eq!(read_frame(&mut cursor).unwrap(), *v);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn short_read_mid_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Str("truncated".into())).unwrap();
        // Also when the prefix claims the whole cap: the payload buffer
        // grows with the bytes received, not with the claim.
        let mut capped = MAX_FRAME_BYTES.to_be_bytes().to_vec();
        capped.extend_from_slice(b"[1,");
        for mut cursor in [&buf[..buf.len() - 3], &capped[..]] {
            assert!(matches!(
                read_frame(&mut cursor),
                Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
            ));
        }
    }

    /// Yields its bytes, then `WouldBlock` — a socket whose read
    /// timeout fires because the peer stopped sending.
    struct Stalls<'a>(&'a [u8]);

    impl Read for Stalls<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn timeout_is_a_timeout_only_between_frames() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Json::Str("stalled".into())).unwrap();
        // Nothing consumed: "no frame yet", safe to poll again.
        assert!(read_frame(&mut Stalls(&[])).unwrap_err().is_timeout());
        // Two prefix bytes, or the prefix and half the payload: the
        // stream is inside a frame, and a retry would misparse it.
        for consumed in [2, 4 + (frame.len() - 4) / 2] {
            let err = read_frame(&mut Stalls(&frame[..consumed])).unwrap_err();
            assert!(
                matches!(err, WireError::Io(_)) && !err.is_timeout(),
                "stall after {consumed} bytes: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(msg)) if msg.contains("cap")
        ));
    }
}
