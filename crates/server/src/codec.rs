//! Length-prefixed JSON framing.
//!
//! One frame = a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON (one [`wire`](crate::wire) envelope). The length
//! prefix makes message boundaries explicit on a byte stream — no
//! delimiter scanning, no ambiguity about embedded newlines — and lets the
//! receiver reject oversized frames before reading them.
//!
//! Error taxonomy: anything below the JSON layer (short read, refused
//! write, oversized frame) is [`Error::Transport`]; a complete frame that
//! does not parse as the expected message is [`Error::Wire`].

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use bat_core::Error;

use crate::wire::{Request, RequestEnvelope, Response, ResponseEnvelope, WIRE_SCHEMA};

/// Largest accepted frame payload (16 MiB). Generous — the biggest real
/// frame is a batch of measurements — while still rejecting a garbage
/// length prefix before allocating for it.
pub const MAX_FRAME: usize = 16 << 20;

/// Write one `value` as a length-prefixed JSON frame.
///
/// The JSON is written into the frame buffer right after four placeholder
/// bytes, which then become the length prefix. Prefix and payload go out
/// in one `write_all`: written separately, the payload of a small frame
/// would sit in the sender's Nagle buffer until the peer's delayed ACK of
/// the prefix.
pub fn write_frame<W: Write + ?Sized, T: Serialize>(w: &mut W, value: &T) -> Result<(), Error> {
    let mut text = String::from("\0\0\0\0");
    value.serialize(&mut serde::Writer::compact(&mut text));
    let mut frame = text.into_bytes();
    let len = frame.len() - 4;
    if len > MAX_FRAME {
        return Err(Error::transport(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&frame).map_err(Error::transport)?;
    w.flush().map_err(Error::transport)?;
    Ok(())
}

/// Read one length-prefixed JSON frame and decode it as a `T`.
///
/// A clean EOF before the length prefix — the peer hung up between frames —
/// is reported as a [`Error::Transport`] whose message contains
/// `"connection closed"`; a truncated frame (EOF mid-prefix or mid-payload)
/// mentions the missing bytes instead.
pub fn read_frame<R: Read + ?Sized, T: Deserialize>(r: &mut R) -> Result<T, Error> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]).map_err(Error::transport)? {
            0 if got == 0 => return Err(Error::transport("connection closed")),
            0 => {
                return Err(Error::transport(format!(
                    "truncated frame: EOF after {got} of 4 length bytes"
                )))
            }
            n => got += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(Error::transport(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]).map_err(Error::transport)? {
            0 => {
                return Err(Error::transport(format!(
                    "truncated frame: EOF after {got} of {len} payload bytes"
                )))
            }
            n => got += n,
        }
    }
    // The payload is parsed where it was read; strings without escapes
    // are borrowed from it.
    let json = std::str::from_utf8(&payload)
        .map_err(|e| Error::wire(format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str(json).map_err(Error::wire)
}

/// Write one request, enveloped under the current schema.
pub fn write_request<W: Write + ?Sized>(w: &mut W, req: Request) -> Result<(), Error> {
    write_frame(w, &RequestEnvelope::new(req))
}

/// Read one request, checking the envelope's schema id.
pub fn read_request<R: Read + ?Sized>(r: &mut R) -> Result<Request, Error> {
    let env: RequestEnvelope = read_frame(r)?;
    if env.v != WIRE_SCHEMA {
        return Err(Error::wire(format!(
            "schema mismatch: got {:?}, this daemon speaks {WIRE_SCHEMA:?}",
            env.v
        )));
    }
    Ok(env.req)
}

/// Write one response, enveloped under the current schema.
pub fn write_response<W: Write + ?Sized>(w: &mut W, resp: Response) -> Result<(), Error> {
    write_frame(w, &ResponseEnvelope::new(resp))
}

/// Read one response, checking the envelope's schema id.
pub fn read_response<R: Read + ?Sized>(r: &mut R) -> Result<Response, Error> {
    let env: ResponseEnvelope = read_frame(r)?;
    if env.v != WIRE_SCHEMA {
        return Err(Error::wire(format!(
            "schema mismatch: got {:?}, this client speaks {WIRE_SCHEMA:?}",
            env.v
        )));
    }
    Ok(env.resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EvalBatch, Request};
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        let req = Request::Eval(EvalBatch {
            session: 5,
            indices: vec![1, 2, 3],
        });
        write_request(&mut buf, req.clone()).unwrap();
        let back = read_request(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn a_frame_is_one_write_call() {
        /// Counts `write` calls, accepting every byte at once.
        struct Writes(usize, Vec<u8>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(0, Vec::new());
        write_request(&mut w, Request::Ping).unwrap();
        assert_eq!(w.0, 1);
        assert_eq!(read_request(&mut Cursor::new(&w.1)).unwrap(), Request::Ping);
    }

    #[test]
    fn several_frames_stream_in_order() {
        let mut buf = Vec::new();
        write_request(&mut buf, Request::Ping).unwrap();
        write_request(
            &mut buf,
            Request::Close(crate::wire::CloseSession { session: 2 }),
        )
        .unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_request(&mut cur).unwrap(), Request::Ping);
        assert!(matches!(read_request(&mut cur).unwrap(), Request::Close(_)));
        // Clean EOF between frames.
        let err = read_request::<_>(&mut cur).unwrap_err();
        assert!(err.to_string().contains("connection closed"), "{err}");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_request(&mut buf, Request::Ping).unwrap();
        // Chop mid-payload.
        let cut = buf.len() - 3;
        let err = read_request(&mut Cursor::new(&buf[..cut])).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Chop mid-length-prefix.
        let err = read_request(&mut Cursor::new(&buf[..2])).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let err = read_request(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn schema_skew_is_rejected() {
        let json = "{\"v\":\"bat/wire/v2\",\"req\":\"ping\"}";
        let mut buf = Vec::from((json.len() as u32).to_be_bytes());
        buf.extend_from_slice(json.as_bytes());
        let err = read_request(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("schema mismatch"), "{err}");
    }

    #[test]
    fn unknown_fields_in_a_frame_are_rejected() {
        let json = "{\"v\":\"bat/wire/v1\",\"req\":{\"close\":{\"session\":1,\"x\":2}}}";
        let mut buf = Vec::from((json.len() as u32).to_be_bytes());
        buf.extend_from_slice(json.as_bytes());
        assert!(read_request::<_>(&mut Cursor::new(&buf)).is_err());
    }
}
