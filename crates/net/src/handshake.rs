//! The versioned session handshake.
//!
//! The first frame on every fabric socket is a [`Hello`] carrying an
//! explicit protocol magic and version word, the study seed, and an
//! opaque `meta` string (the coordinator puts the serialised backend
//! spec there; this crate never looks inside). The server answers with
//! a [`HelloAck`] or a structured rejection inside an `Error` frame —
//! so a peer speaking the wrong protocol, or an old fabric version, is
//! turned away with a *reason*, before any task bytes flow, instead of
//! tripping a checksum failure mid-task.

use std::io::{Read, Write};

use edgetune_runtime::frame::{read_frame, write_frame, Frame, FrameKind};
use serde::{Deserialize, Serialize};

use crate::NetError;

/// The fabric's protocol magic (`"ETN1"` as a little-endian word). A
/// peer presenting anything else is not an EdgeTune shard fabric.
pub const PROTOCOL_MAGIC: u32 = 0x4554_4E31;

/// The fabric's protocol version. Bumped whenever the task vocabulary
/// or the session discipline changes incompatibly.
pub const PROTOCOL_VERSION: u16 = 1;

/// Client → server: the session opening.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Must equal [`PROTOCOL_MAGIC`].
    pub magic: u32,
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u16,
    /// Root seed of the study this session serves — diagnostic context
    /// for the host's logs; never influences execution.
    pub study_seed: u64,
    /// Opaque session metadata (the coordinator ships the serialised
    /// `BackendSpec` here so a host can validate it up front).
    pub meta: String,
}

impl Hello {
    /// A well-formed hello for the current protocol.
    #[must_use]
    pub fn new(study_seed: u64, meta: impl Into<String>) -> Self {
        Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            study_seed,
            meta: meta.into(),
        }
    }
}

/// Server → client: the handshake acceptance, echoing what the server
/// speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloAck {
    /// The server's protocol magic.
    pub magic: u32,
    /// The server's protocol version.
    pub version: u16,
}

/// Server → client: a structured handshake rejection, sent inside an
/// `Error` frame before the server closes the connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandshakeReject {
    /// Why the session was turned away.
    pub reason: String,
}

fn encode<T: Serialize>(message: &T) -> Vec<u8> {
    serde_json::to_string(message)
        .expect("handshake messages are plain data and always serialise")
        .into_bytes()
}

fn decode<T: Deserialize>(payload: &[u8], what: &str) -> Result<T, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| NetError::Protocol(format!("{what} is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| NetError::Protocol(format!("{what} does not decode: {e}")))
}

/// Client side: send `hello`, wait for the server's verdict.
///
/// # Errors
///
/// [`NetError::Rejected`] when the server turned the session away (with
/// its reason), [`NetError::Protocol`] when the server answered with
/// something other than an ack or a rejection, or the underlying
/// I/O and frame errors.
pub fn client_hello<S: Read + Write>(stream: &mut S, hello: &Hello) -> Result<HelloAck, NetError> {
    write_frame(stream, FrameKind::Hello, &encode(hello))?;
    let frame = read_frame(stream)?
        .ok_or_else(|| NetError::Protocol("connection closed during handshake".to_string()))?;
    match frame.kind {
        FrameKind::HelloAck => decode(&frame.payload, "hello ack"),
        FrameKind::Error => {
            let reject: HandshakeReject = decode(&frame.payload, "handshake rejection")?;
            Err(NetError::Rejected(reject.reason))
        }
        other => Err(NetError::Protocol(format!(
            "expected a hello ack, got a {other:?} frame"
        ))),
    }
}

/// Server side: read the peer's [`Hello`], validate its magic and
/// version, and answer.
///
/// On a mismatch the peer receives a [`HandshakeReject`] naming exactly
/// what was wrong, and this function returns [`NetError::Rejected`] so
/// the server can log and drop the session. `before_reject` runs with
/// that reason *before* the rejection is written, so whatever the
/// server records about the reject is in place by the time the peer can
/// observe it.
///
/// # Errors
///
/// [`NetError::Rejected`] for a well-framed peer speaking the wrong
/// protocol, [`NetError::Protocol`] when the first frame is not a
/// hello, or the underlying I/O and frame errors.
pub fn accept_hello<S: Read + Write>(
    stream: &mut S,
    before_reject: impl FnOnce(&str),
) -> Result<Hello, NetError> {
    let frame = read_frame(stream)?
        .ok_or_else(|| NetError::Protocol("connection closed before a hello".to_string()))?;
    match judge_hello(&frame) {
        Ok(hello) => {
            write_frame(
                stream,
                FrameKind::HelloAck,
                &encode(&HelloAck {
                    magic: PROTOCOL_MAGIC,
                    version: PROTOCOL_VERSION,
                }),
            )?;
            Ok(hello)
        }
        Err(reason) => {
            before_reject(&reason);
            // Best-effort: the peer may already be gone.
            let _ = write_frame(
                stream,
                FrameKind::Error,
                &encode(&HandshakeReject {
                    reason: reason.clone(),
                }),
            );
            Err(NetError::Rejected(reason))
        }
    }
}

/// The server's verdict on a peer's first frame: its [`Hello`], or the
/// reason to turn the session away.
fn judge_hello(frame: &Frame) -> Result<Hello, String> {
    if frame.kind != FrameKind::Hello {
        return Err(format!(
            "expected a hello frame, got a {:?} frame",
            frame.kind
        ));
    }
    let hello: Hello = match decode(&frame.payload, "hello") {
        Ok(hello) => hello,
        Err(NetError::Protocol(what)) => return Err(what),
        Err(other) => return Err(other.to_string()),
    };
    if hello.magic != PROTOCOL_MAGIC {
        return Err(format!(
            "protocol magic mismatch: peer sent {:#010x}, this host speaks {:#010x}",
            hello.magic, PROTOCOL_MAGIC
        ));
    }
    if hello.version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: peer speaks v{}, this host speaks v{}",
            hello.version, PROTOCOL_VERSION
        ));
    }
    Ok(hello)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex pipe: what one side writes, the other reads.
    fn run_handshake(hello: &Hello) -> (Result<Hello, NetError>, Result<HelloAck, NetError>) {
        // Client speaks first, so materialise its hello, feed it to the
        // server, then feed the server's answer back.
        let mut client_out = Vec::new();
        write_frame(&mut client_out, FrameKind::Hello, &encode(hello)).unwrap();
        let mut server = Duplex {
            reader: Cursor::new(client_out),
            writer: Vec::new(),
        };
        let server_result = accept_hello(&mut server, |_| {});
        let mut client = Duplex {
            reader: Cursor::new(server.writer),
            writer: Vec::new(),
        };
        // Replay the client with the server's answer already queued; its
        // own hello write goes to a scratch buffer.
        let client_result = client_hello(&mut client, hello);
        (server_result, client_result)
    }

    struct Duplex {
        reader: Cursor<Vec<u8>>,
        writer: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reader.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writer.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn matching_peer_is_accepted() {
        let hello = Hello::new(42, "spec-json");
        let (server, client) = run_handshake(&hello);
        let accepted = server.unwrap();
        assert_eq!(accepted, hello);
        let ack = client.unwrap();
        assert_eq!(ack.magic, PROTOCOL_MAGIC);
        assert_eq!(ack.version, PROTOCOL_VERSION);
    }

    #[test]
    fn wrong_magic_is_rejected_with_a_reason() {
        let mut hello = Hello::new(42, "");
        hello.magic = 0xDEAD_BEEF;
        let (server, client) = run_handshake(&hello);
        let NetError::Rejected(server_reason) = server.unwrap_err() else {
            panic!("server should reject");
        };
        assert!(server_reason.contains("magic"), "{server_reason}");
        let NetError::Rejected(client_reason) = client.unwrap_err() else {
            panic!("client should see the rejection");
        };
        assert!(client_reason.contains("magic"), "{client_reason}");
    }

    #[test]
    fn wrong_version_is_rejected_with_a_reason() {
        let mut hello = Hello::new(42, "");
        hello.version = PROTOCOL_VERSION + 1;
        let (server, client) = run_handshake(&hello);
        assert!(matches!(server.unwrap_err(), NetError::Rejected(r) if r.contains("version")));
        assert!(matches!(client.unwrap_err(), NetError::Rejected(r) if r.contains("version")));
    }

    #[test]
    fn first_frame_must_be_a_hello() {
        let mut input = Vec::new();
        write_frame(&mut input, FrameKind::Task, b"{}").unwrap();
        let mut server = Duplex {
            reader: Cursor::new(input),
            writer: Vec::new(),
        };
        let err = accept_hello(&mut server, |_| {}).unwrap_err();
        assert!(matches!(err, NetError::Rejected(r) if r.contains("hello")));
    }

    #[test]
    fn malformed_hello_is_rejected_not_crashed() {
        let mut input = Vec::new();
        write_frame(&mut input, FrameKind::Hello, b"not json").unwrap();
        let mut server = Duplex {
            reader: Cursor::new(input),
            writer: Vec::new(),
        };
        let mut seen = None;
        let err = accept_hello(&mut server, |reason| seen = Some(reason.to_string())).unwrap_err();
        let NetError::Rejected(reason) = err else {
            panic!("server should reject, got: {err}");
        };
        assert_eq!(
            seen,
            Some(reason),
            "the hook sees the reason the peer is sent"
        );
    }
}
