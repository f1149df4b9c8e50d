//! Wall-clock loopback tests for the fabric's socket transport: real
//! TCP connections on 127.0.0.1, real timeouts, real half-open
//! failures. Everything here is supervision-side plumbing — none of it
//! may ever influence study bytes, so the suite asserts observable
//! connection behaviour only.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use edgetune_net::{
    accept_hello, client_hello, FramedTcp, Hello, NetError, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use edgetune_runtime::frame::{encode_frame, FrameError, FrameKind};

/// Binds a fresh loopback listener, runs `server` against the first
/// accepted connection on a thread, and hands the client stream to the
/// caller.
fn with_server<T: Send + 'static>(
    server: impl FnOnce(TcpStream) -> T + Send + 'static,
) -> (FramedTcp, std::thread::JoinHandle<T>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        server(stream)
    });
    let client =
        FramedTcp::connect(&addr.to_string(), Duration::from_secs(5)).expect("connect loopback");
    (client, handle)
}

#[test]
fn connect_accept_and_handshake_round_trip() {
    let (mut client, server) = with_server(|stream| {
        let mut framed = FramedTcp::from_stream(stream).expect("wrap accepted stream");
        accept_hello(&mut framed, |_| {}).expect("accept hello")
    });
    let ack = client_hello(&mut client, &Hello::new(42, "backend-spec-json")).expect("handshake");
    assert_eq!(ack.magic, PROTOCOL_MAGIC);
    assert_eq!(ack.version, PROTOCOL_VERSION);
    let hello = server.join().expect("server thread");
    assert_eq!(hello.study_seed, 42);
    assert_eq!(hello.meta, "backend-spec-json");
}

#[test]
fn mismatched_version_is_rejected_with_a_reason_not_a_crc_failure() {
    let (mut client, server) = with_server(|stream| {
        let mut framed = FramedTcp::from_stream(stream).expect("wrap accepted stream");
        accept_hello(&mut framed, |_| {})
    });
    let mut hello = Hello::new(7, "");
    hello.version = PROTOCOL_VERSION + 9;
    let err = client_hello(&mut client, &hello).expect_err("must be rejected");
    let NetError::Rejected(reason) = err else {
        panic!("expected a structured rejection, got: {err}");
    };
    assert!(reason.contains("version"), "unclear reason: {reason}");
    assert!(
        matches!(
            server.join().expect("server thread"),
            Err(NetError::Rejected(_))
        ),
        "server must also classify the session as rejected"
    );
}

#[test]
fn mismatched_magic_is_rejected_with_a_reason() {
    let (mut client, server) = with_server(|stream| {
        let mut framed = FramedTcp::from_stream(stream).expect("wrap accepted stream");
        accept_hello(&mut framed, |_| {})
    });
    let mut hello = Hello::new(7, "");
    hello.magic = 0x600D_F00D;
    let err = client_hello(&mut client, &hello).expect_err("must be rejected");
    assert!(
        matches!(&err, NetError::Rejected(reason) if reason.contains("magic")),
        "expected a magic rejection, got: {err}"
    );
    let _ = server.join();
}

#[test]
fn mid_frame_disconnect_surfaces_as_truncated() {
    let (mut client, server) = with_server(|mut stream| {
        // Write half a frame, then slam the connection shut.
        let bytes = encode_frame(FrameKind::Result, b"a result the peer never finishes");
        stream.write_all(&bytes[..bytes.len() / 2]).expect("write");
        drop(stream);
    });
    let err = client.recv().expect_err("torn frame must error");
    assert!(
        matches!(err, NetError::Frame(FrameError::Truncated)),
        "expected Truncated, got: {err}"
    );
    server.join().expect("server thread");
}

#[test]
fn silent_peer_trips_the_receive_deadline() {
    let (mut client, server) = with_server(|stream| {
        // Hold the connection open, say nothing for longer than the
        // client's patience.
        std::thread::sleep(Duration::from_millis(500));
        drop(stream);
    });
    client
        .set_recv_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");
    let start = std::time::Instant::now();
    let err = client.recv().expect_err("silence must time out");
    assert!(err.is_timeout(), "expected a timeout, got: {err}");
    assert!(
        start.elapsed() < Duration::from_millis(400),
        "deadline fired far too late: {:?}",
        start.elapsed()
    );
    server.join().expect("server thread");
}

#[test]
fn clean_close_on_a_frame_boundary_is_none() {
    let (mut client, server) = with_server(|stream| {
        let mut framed = FramedTcp::from_stream(stream).expect("wrap accepted stream");
        framed
            .send(FrameKind::Heartbeat, b"{\"shard\":0,\"completed\":1}")
            .expect("send one frame");
        // Dropping both halves closes the socket on a boundary.
    });
    let frame = client.recv().expect("first frame").expect("not eof yet");
    assert_eq!(frame.kind, FrameKind::Heartbeat);
    assert!(client.recv().expect("clean eof").is_none());
    server.join().expect("server thread");
}

#[test]
fn connecting_to_a_dead_port_fails_fast() {
    // Bind-then-drop guarantees the port is allocatable but unserved.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("bound address").to_string()
    };
    let start = std::time::Instant::now();
    let err = FramedTcp::connect(&addr, Duration::from_millis(500)).expect_err("must fail");
    assert!(matches!(err, NetError::Io(_)), "expected an I/O error");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "connect failure took too long: {:?}",
        start.elapsed()
    );
}

#[test]
fn split_receiver_sees_frames_while_the_send_half_stays_usable() {
    let (mut client, server) = with_server(|stream| {
        let mut framed = FramedTcp::from_stream(stream).expect("wrap accepted stream");
        // Echo one frame back for every frame received, then close.
        while let Ok(Some(frame)) = framed.recv() {
            framed.send(frame.kind, &frame.payload).expect("echo");
            if frame.kind == FrameKind::Result {
                break;
            }
        }
    });
    let mut receiver = client.split_recv().expect("split");
    let reader = std::thread::spawn(move || {
        let mut kinds = Vec::new();
        while let Ok(Some(frame)) = receiver.recv() {
            let done = frame.kind == FrameKind::Result;
            kinds.push(frame.kind);
            if done {
                break;
            }
        }
        kinds
    });
    client.send(FrameKind::Heartbeat, b"one").expect("send");
    client.send(FrameKind::Result, b"two").expect("send");
    let kinds = reader.join().expect("reader thread");
    assert_eq!(kinds, vec![FrameKind::Heartbeat, FrameKind::Result]);
    server.join().expect("server thread");
}
