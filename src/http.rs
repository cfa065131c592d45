//! A minimal plain-HTTP `GET /metrics` endpoint over `std::net`.
//!
//! Just enough HTTP/1.0 for a scraper or `curl`: one accept loop, one
//! request line plus headers read per connection, one response, close.
//! No keep-alive, no TLS, no routing beyond `/metrics` — anything else is
//! a 404. Shutdown follows the same pattern as the TCP query front end:
//! set a stop flag, then self-connect to wake the blocking `accept`.
//!
//! Scrapes are served one at a time, so each connection gets one deadline,
//! a timeout from its accept, that every read and write waits within, and
//! a cap on the request bytes read: a client that stays silent, trickles
//! bytes, or never ends its line holds the endpoint (and a shutdown waiting
//! on it) for one timeout, not forever.

use crate::stats::ServeCounters;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one scrape connection may take, from its accept to its last
/// byte written.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Most request bytes (request line plus headers) read from one connection.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// A running metrics endpoint; dropping it shuts the listener down.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Idempotent via drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("metrics accept loop panicked");
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (port 0 for ephemeral) and serves `counters`' exposition
/// at `GET /metrics`, one short-lived connection at a time — metrics
/// scrapes are rare and tiny, so a second thread would buy nothing.
pub(crate) fn serve_metrics(counters: Arc<ServeCounters>, addr: &str) -> io::Result<MetricsServer> {
    serve_metrics_impl(counters, addr, SCRAPE_TIMEOUT)
}

/// `timeout` is a parameter (not configuration) so the tests can wait out
/// an idle client quickly.
fn serve_metrics_impl(
    counters: Arc<ServeCounters>,
    addr: &str,
    timeout: Duration,
) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new().name("xsact-metrics".to_owned()).spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn = Deadline { stream: &stream, accepted: Instant::now(), timeout };
                let _ = handle_scrape(&counters, conn);
            }
        })?
    };
    Ok(MetricsServer { addr, stop, accept: Some(accept) })
}

/// A scrape connection under its one deadline: each read or write may wait
/// only for what is left of `timeout` since `accepted`.
#[derive(Clone, Copy)]
struct Deadline<'a> {
    stream: &'a TcpStream,
    accepted: Instant,
    timeout: Duration,
}

impl Deadline<'_> {
    /// What is left of the deadline; `TimedOut` once it has passed.
    fn left(&self) -> io::Result<Duration> {
        let left = self.timeout.saturating_sub(self.accepted.elapsed());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Reads one request, writes one response; the caller closes.
fn handle_scrape(counters: &ServeCounters, conn: Deadline<'_>) -> io::Result<()> {
    let mut reader = BufReader::new(conn.take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients are not cut off mid-send.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 0 && header.trim_end() != "" {
        header.clear();
    }
    let mut writer = conn;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && path == "/metrics" {
        let body = counters.exposition();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "only GET /metrics is served\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    writer.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
        conn.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn serves_the_exposition_and_404s_elsewhere() {
        let counters = Arc::new(ServeCounters::new(1));
        counters.record_cache_hit();
        let mut server = serve_metrics(Arc::clone(&counters), "127.0.0.1:0").expect("bind");
        let ok = scrape(server.addr(), "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        assert!(ok.contains("\nxsact_cache_hits 1\n"), "{ok}");
        assert!(ok.contains("\nxsact_shard_0_busy_ns_count 0\n"), "{ok}");
        let missing = scrape(server.addr(), "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn an_idle_client_blocks_neither_scrapes_nor_shutdown() {
        let counters = Arc::new(ServeCounters::new(1));
        counters.record_cache_hit();
        let mut server =
            serve_metrics_impl(counters, "127.0.0.1:0", Duration::from_millis(100)).expect("bind");
        let addr = server.addr();
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            // Connected and silent, ahead of the scrape and of the shutdown.
            let _idle = TcpStream::connect(addr).expect("idle connect");
            let ok = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
            let _idle_again = TcpStream::connect(addr).expect("idle connect");
            server.shutdown();
            done.send(ok).expect("test thread waits");
        });
        let ok = finished.recv_timeout(Duration::from_secs(20)).expect("scrape and shutdown hung");
        assert!(ok.contains("\nxsact_cache_hits 1\n"), "{ok}");
        client.join().expect("client thread panicked");
    }

    #[test]
    fn a_dripping_client_holds_the_endpoint_for_one_timeout() {
        let counters = Arc::new(ServeCounters::new(1));
        counters.record_cache_hit();
        let mut server =
            serve_metrics_impl(counters, "127.0.0.1:0", Duration::from_millis(100)).expect("bind");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let (connected, on_connect) = std::sync::mpsc::channel();
        let dripper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("drip connect");
                connected.send(()).expect("test thread waits");
                // One byte every 50 ms: every read is answered within the
                // timeout, and the line never ends.
                while !stop.load(Ordering::SeqCst) && conn.write_all(b"x").is_ok() {
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        on_connect.recv().expect("dripper connected");
        let (done, finished) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let ok = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
            server.shutdown();
            done.send(ok).expect("test thread waits");
        });
        let ok = finished.recv_timeout(Duration::from_secs(2));
        stop.store(true, Ordering::SeqCst);
        let ok = ok.expect("a dripping client held the scrape or the shutdown");
        assert!(ok.contains("\nxsact_cache_hits 1\n"), "{ok}");
        client.join().expect("client thread panicked");
        dripper.join().expect("dripper panicked");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let counters = Arc::new(ServeCounters::new(1));
        let mut server = serve_metrics(counters, "127.0.0.1:0").expect("bind");
        server.shutdown();
        server.shutdown();
    }
}
