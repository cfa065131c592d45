//! What the TCP front end owes a client it cannot trust and a process it
//! must not leak into: a connection ends when the protocol says so, its
//! bookkeeping ends with it, and a request line has a maximum length.
//!
//! The tests share one process and one of them counts its open file
//! descriptors, so they run one at a time (`SERIAL`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use xsact::prelude::*;
use xsact::serve::{serve_tcp, TcpServeHandle, END_MARKER};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start() -> TcpServeHandle {
    let corpus = Arc::new(Corpus::synthetic_movies(3, 20, 42).with_shards(2));
    let server = CorpusServer::start(corpus, ServeConfig::default());
    serve_tcp(server, "127.0.0.1:0").expect("binds an ephemeral port")
}

/// A client whose reads give up after two seconds instead of hanging the
/// suite on a server that never closes.
fn connect(handle: &TcpServeHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    stream
}

/// Everything the server sends until it closes the connection.
fn read_to_eof(stream: &mut TcpStream) -> String {
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("the server closes the connection in time");
    rest
}

#[test]
fn quit_is_followed_by_eof() {
    let _serial = serial();
    let handle = start();
    let mut stream = connect(&handle);
    stream.write_all(b"QUIT\n").unwrap();
    assert_eq!(read_to_eof(&mut stream), format!("OK bye\n{END_MARKER}\n"));
    handle.shutdown();
    handle.wait();
}

/// Short connections come and go without the server's descriptor table
/// growing: what a connection held is released when its thread exits, not
/// at shutdown.
#[cfg(target_os = "linux")]
#[test]
fn sequential_short_connections_leave_the_fd_count_flat() {
    let _serial = serial();
    let open_fds = || std::fs::read_dir("/proc/self/fd").expect("procfs").count();
    let handle = start();
    let exchange = || {
        let stream = connect(&handle);
        let mut writer = stream.try_clone().expect("clones");
        let mut responses = BufReader::new(stream).lines();
        writer.write_all(b"QUERY drama family\nQUIT\n").unwrap();
        let lines: Vec<String> = responses.by_ref().map_while(Result::ok).collect();
        assert!(lines[0].starts_with("OK "), "{lines:?}");
        assert_eq!(lines[lines.len() - 2..], ["OK bye", END_MARKER], "{lines:?}");
    };
    exchange();
    let before = open_fds();
    for _ in 0..50 {
        exchange();
    }
    assert_eq!(open_fds(), before, "50 connect → QUIT → close exchanges later");
    handle.shutdown();
    assert_eq!(handle.wait().queries_served, 51);
}

/// A client that never sends a newline is cut off at the line cap with a
/// typed error, not buffered without bound — and only that client.
#[test]
fn a_line_past_the_cap_is_refused_and_only_that_connection_closes() {
    let _serial = serial();
    let handle = start();
    let mut flood = connect(&handle);
    // One byte past the protocol's 64 KiB line cap.
    flood.write_all(&vec![b'x'; 64 * 1024 + 1]).unwrap();
    let reply = read_to_eof(&mut flood);
    assert!(reply.starts_with("ERR BAD_REQUEST "), "{reply:?}");
    assert!(reply.ends_with(&format!("\n{END_MARKER}\n")), "{reply:?}");
    assert_eq!(reply.lines().count(), 2, "one error line and the end marker: {reply:?}");

    let mut garbled = connect(&handle);
    garbled.write_all(&[b'Q', 0xFF, 0xFE, b'\n']).unwrap();
    let reply = read_to_eof(&mut garbled);
    assert!(reply.starts_with("ERR BAD_REQUEST "), "{reply:?}");

    let mut next = connect(&handle);
    next.write_all(b"QUERY drama family\nQUIT\n").unwrap();
    let reply = read_to_eof(&mut next);
    assert!(reply.starts_with("OK "), "the next connection is served normally: {reply:?}");
    handle.shutdown();
    assert_eq!(handle.wait().queries_served, 1);
}
