//! A minimal plain-HTTP `GET /metrics` endpoint over `std::net`.
//!
//! Just enough HTTP/1.0 for a scraper or `curl`: one accept loop, one
//! request line plus headers read per connection, one response, close.
//! No keep-alive, no TLS, no routing beyond `/metrics` — anything else is
//! a 404. Shutdown follows the same pattern as the TCP query front end:
//! set a stop flag, then self-connect to wake the blocking `accept`.
//!
//! Scrapes are served one at a time, so each connection gets a read and a
//! write timeout and a cap on the request bytes read: a client that stays
//! silent, or never ends its line, holds the endpoint (and a shutdown
//! waiting on it) for one timeout, not forever.

use crate::registry::MetricsRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one scrape connection may wait on its client, per read or write.
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

/// Binds `addr` (port 0 for ephemeral) and serves `registry`'s exposition
/// at `GET /metrics`, one short-lived connection at a time — metrics
/// scrapes are rare and tiny, so a second thread would buy nothing.
pub(crate) fn serve_metrics(
    registry: Arc<MetricsRegistry>,
    addr: &str,
) -> io::Result<MetricsServer> {
    serve_metrics_impl(registry, addr, SCRAPE_TIMEOUT)
}

/// `timeout` is a parameter (not configuration) so the tests can wait out
/// an idle client quickly.
fn serve_metrics_impl(
    registry: Arc<MetricsRegistry>,
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
                let _ = handle_scrape(&registry, stream, timeout);
            }
        })?
    };
    Ok(MetricsServer { addr, stop, accept: Some(accept) })
}

/// Reads one request, writes one response, closes.
fn handle_scrape(
    registry: &MetricsRegistry,
    stream: TcpStream,
    timeout: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients are not cut off mid-send.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 0 && header.trim_end() != "" {
        header.clear();
    }
    let mut writer = stream;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && path == "/metrics" {
        let body = registry.expose();
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
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("xsact_up").inc();
        let mut server = serve_metrics(Arc::clone(&registry), "127.0.0.1:0").expect("bind");
        let ok = scrape(server.addr(), "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        assert!(ok.contains("xsact_up 1"), "{ok}");
        let missing = scrape(server.addr(), "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn an_idle_client_blocks_neither_scrapes_nor_shutdown() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("xsact_up").inc();
        let mut server =
            serve_metrics_impl(registry, "127.0.0.1:0", Duration::from_millis(100)).expect("bind");
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
        assert!(ok.contains("xsact_up 1"), "{ok}");
        client.join().expect("client thread panicked");
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut server = serve_metrics(registry, "127.0.0.1:0").expect("bind");
        server.shutdown();
        server.shutdown();
    }
}
