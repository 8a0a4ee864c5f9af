//! Hostile-client robustness: garbage bytes, half-written frames,
//! oversized length prefixes and queue saturation must never panic the
//! server, leak a worker slot, or wedge later well-behaved clients.

use recloud_server::protocol::{read_frame, write_frame, AssessRequest, Preset, Request, Response};
use recloud_server::{Client, Server, ServerConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<recloud_server::ServeSummary>) {
    let server = Server::bind(("127.0.0.1", 0), config).expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn tiny_request(seed: u64) -> AssessRequest {
    let t = Preset::Tiny.scale().build();
    let hosts = t.hosts()[..3].iter().map(|h| h.index() as u32).collect();
    AssessRequest { preset: Preset::Tiny, rounds: 500, seed, k: 2, n: 3, assignments: vec![hosts] }
}

/// After any abuse, the server must still answer a clean client — the
/// strongest "nothing leaked, nothing wedged" check available from the
/// outside.
fn assert_still_serving(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("server still accepts");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client.ping(99).expect("server still answers"), 99);
    let a = client.assess(tiny_request(123)).expect("worker slot not leaked");
    assert!((0.0..=1.0).contains(&a.score));
}

#[test]
fn garbage_payload_gets_an_error_frame_and_a_dropped_connection() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(addr).unwrap();
    // A well-framed payload of garbage: length prefix says 16, bytes are noise.
    write_frame(&mut stream, &[0xAB; 16]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame before drop");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("magic"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    // The server then closes: the next read is EOF, not a hang.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(read_frame(&mut stream).unwrap(), None, "connection must be dropped");

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.protocol_errors, 1);
}

#[test]
fn half_written_frame_then_disconnect_does_not_leak_a_worker() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Announce an 80-byte frame, send 3 bytes, vanish.
        stream.write_all(&80u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
    } // dropped here — mid-frame disconnect

    // Truncated *inside the length prefix* as well.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[7u8, 0]).unwrap();
        stream.flush().unwrap();
    }

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.protocol_errors, 2, "both half-frames counted");
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(addr).unwrap();
    // 2 GiB claimed; the server must answer Oversized without ever
    // allocating the claimed payload.
    stream.write_all(&0x7FFF_FFFFu32.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("oversized must be answered");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_eq!(read_frame(&mut stream).unwrap(), None, "connection must be dropped");

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 1);
}

#[test]
fn full_queue_answers_busy_and_recovers() {
    // queue_capacity = 0: every dispatchable request is Busy by
    // construction, which pins the admission-control path determinately.
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_capacity: 0, ..ServerConfig::default() });

    let mut client = Client::connect(addr).unwrap();
    match client.call(&Request::AssessPlan(tiny_request(1))).unwrap() {
        Response::Busy { queued, capacity } => {
            assert_eq!(capacity, 0);
            assert_eq!(queued, 0);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // Control frames bypass admission: ping and a metrics dump still
    // answer.
    assert_eq!(client.ping(1).unwrap(), 1);
    let m = client.metrics(0).unwrap().snapshot;
    assert_eq!(m.counter("server.busy_total"), Some(1));

    client.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert_eq!(summary.busy_rejections, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn empty_and_undersized_frames_are_malformed_not_fatal() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    // Zero-length payload: structurally a frame, semantically malformed.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &[]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame");
    assert!(matches!(Response::decode(reply.into()).unwrap(), Response::Error { .. }));

    // A truncated-but-valid-magic frame (header only, body missing).
    let mut stream = TcpStream::connect(addr).unwrap();
    let whole = Request::Ping { token: 1 }.encode();
    write_frame(&mut stream, &whole[..5]).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("error frame");
    match Response::decode(reply.into()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("truncated"), "{message}"),
        other => panic!("expected Error frame, got {other:?}"),
    }

    assert_still_serving(addr);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert_eq!(handle.join().unwrap().protocol_errors, 2);
}
