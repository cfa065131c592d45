//! The unmodified `xsact serve` binary as a child process, and a
//! line-protocol client for it.
//!
//! Pinned surface: the `serve` flags the workloads pass, the
//! `listening on <addr>` line on stdout, the verbs `TOP`, `QUERY`,
//! `METRICS` and `SHUTDOWN`, and the lone-`.` response terminator.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the benchmark waits for a boot or a reply before it calls the
/// op failed instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `xsact serve` child. Dropping it without
/// [`shutdown`](Self::shutdown) kills it, so a failed run leaves no
/// process behind.
pub struct ServerChild {
    child: Child,
    addr: String,
    /// Drains the child's stdout to EOF so its shutdown summary never
    /// blocks on a full pipe.
    stdout: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns `bin serve <args> --addr 127.0.0.1:0` and waits for its
    /// `listening on` line; returns the child and how long that took.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<(ServerChild, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot run {}: {e}", bin.display())))?;
        let pipe = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_owned());
                }
            }
        });
        // The sender drops when the child closes stdout, so a server that
        // dies during boot ends the wait at once.
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(addr) => {
                let booted = start.elapsed();
                Ok((ServerChild { child, addr, stdout: Some(stdout) }, booted))
            }
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = stdout.join();
                Err(io::Error::other("server never printed its `listening on` line"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.addr)
    }

    /// Sends `SHUTDOWN`, then waits for the process to end; an unclean
    /// exit is an error.
    pub fn shutdown(mut self, client: &mut Client) -> io::Result<()> {
        let reply = client.request("SHUTDOWN")?.to_vec();
        if !reply.starts_with(b"OK") {
            return Err(io::Error::other(format!(
                "SHUTDOWN answered {:?}",
                String::from_utf8_lossy(&reply)
            )));
        }
        let status = self.child.wait()?;
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After a clean shutdown the process is already reaped and both
        // calls are harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
    }
}

/// One connection, strictly request/response.
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client { stream, out: Vec::new(), buf: Vec::with_capacity(1 << 16) })
    }

    /// Sends one request line and returns the response body: everything up
    /// to, not including, the lone `.` line.
    pub fn request(&mut self, line: &str) -> io::Result<&[u8]> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.exchange()
    }

    /// `QUERY <text>`; the body is the ranked page or an `ERR` line.
    pub fn query(&mut self, text: &str) -> io::Result<&[u8]> {
        self.out.clear();
        self.out.extend_from_slice(b"QUERY ");
        self.out.extend_from_slice(text.as_bytes());
        self.exchange()
    }

    /// Writes the request assembled in `out` with one `write`, then reads
    /// until the terminator.
    fn exchange(&mut self) -> io::Result<&[u8]> {
        self.out.push(b'\n');
        self.stream.write_all(&self.out)?;
        self.buf.clear();
        let mut chunk = [0u8; 1 << 14];
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if self.buf == b".\n" {
                return Ok(&[]);
            }
            if self.buf.ends_with(b"\n.\n") {
                return Ok(&self.buf[..self.buf.len() - 2]);
            }
        }
    }

    /// The `METRICS` exposition as `name → value`.
    pub fn metrics(&mut self) -> io::Result<HashMap<String, f64>> {
        let body = self.request("METRICS")?;
        let text = std::str::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "METRICS is not UTF-8"))?;
        let text = text.strip_prefix("OK metrics\n").ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("METRICS answered {text:?}"))
        })?;
        Ok(parse_exposition(text))
    }
}

/// Parses a Prometheus-style text exposition (`name value` per line,
/// `#` comments) — the `METRICS` body and `CorpusServer::metrics()` alike.
pub fn parse_exposition(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lines_parse_and_comments_do_not() {
        let text = "# TYPE xsact_cache_hits counter\nxsact_cache_hits 7\n# TYPE xsact_e2e_ns summary\n\
                    xsact_e2e_ns{quantile=\"0.5\"} 1024\nxsact_e2e_ns_sum 4096\nxsact_e2e_ns_count 4\n";
        let m = parse_exposition(text);
        assert_eq!(m.len(), 4);
        assert_eq!(m["xsact_cache_hits"], 7.0);
        assert_eq!(m["xsact_e2e_ns{quantile=\"0.5\"}"], 1024.0);
        assert_eq!(m["xsact_e2e_ns_sum"] / m["xsact_e2e_ns_count"], 1024.0);
    }
}
