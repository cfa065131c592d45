//! The line protocol the TCP front end speaks.
//!
//! Newline-delimited text in both directions — trivially scriptable with
//! any socket tool, no framing library needed (the container is offline,
//! and a length-prefixed binary protocol would buy nothing at this
//! message size).
//!
//! **Requests** are one line each: a verb, optionally followed by
//! arguments.
//!
//! ```text
//! QUERY drama family      run the query under the session's top-k
//! TOP 3                   set the session's top-k (at most MAX_TOP)
//! STATS                   server counters
//! METRICS                 Prometheus-style metrics exposition
//! QUIT                    close this connection
//! SHUTDOWN                drain the server and stop it
//! ```
//!
//! **Responses** are one or more lines terminated by a lone `.` line
//! ([`END_MARKER`]), SMTP-style, so clients read until the marker without
//! needing a length header:
//!
//! ```text
//! OK 3
//!   [ 1] Movie …  @movies-01  (score 1.234)
//!   …
//! .
//! ```
//!
//! Errors are a single `ERR <CODE> <message>` line (plus the marker);
//! codes are stable identifiers (`OVERLOADED`, `BUDGET_EXCEEDED`,
//! `DEADLINE_EXCEEDED`, `SHARD_FAILED`, `EMPTY_QUERY`, `BAD_REQUEST`,
//! `INTERNAL`), messages are the facade's human-readable `Display` text.
//! `OVERLOADED`, `DEADLINE_EXCEEDED`, and `SHARD_FAILED` are retryable:
//! nothing (durable) was executed on the caller's behalf, and a
//! `SHARD_FAILED` shard keeps serving after the panic it caught.

/// The line ending every response: a lone `.`.
pub const END_MARKER: &str = ".";

/// The largest top-k a session may ask for: `TOP` above it is a
/// `BAD_REQUEST`, and a server configured above it refuses to start. Every
/// served query ranks to depth `k` in every document, so an unbounded `k`
/// would let one request line size the server's work and memory.
pub const MAX_TOP: usize = 1000;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a keyword query.
    Query {
        /// The raw query text (everything after the verb).
        text: String,
    },
    /// Set the session's top-k for subsequent queries.
    Top {
        /// The new bound.
        k: usize,
    },
    /// Report server counters.
    Stats,
    /// Report the full metrics exposition (Prometheus text format).
    Metrics,
    /// Close this connection.
    Quit,
    /// Drain the server and stop it.
    Shutdown,
}

impl Request {
    /// Parses one request line. Blank lines are ignored (`Ok(None)`), so
    /// interactive sessions can hit return without tripping an error;
    /// anything else unrecognised is a `BAD_REQUEST`-worthy message.
    pub fn parse(line: &str) -> Result<Option<Request>, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        match verb {
            "QUERY" => {
                if rest.is_empty() {
                    return Err("QUERY needs query text".to_owned());
                }
                Ok(Some(Request::Query { text: rest.to_owned() }))
            }
            "TOP" => {
                let k = rest
                    .parse::<usize>()
                    .map_err(|_| format!("TOP needs a non-negative integer, got {rest:?}"))?;
                if k > MAX_TOP {
                    return Err(format!("TOP takes at most {MAX_TOP}, got {k}"));
                }
                Ok(Some(Request::Top { k }))
            }
            "STATS" => Request::bare(verb, rest, Request::Stats),
            "METRICS" => Request::bare(verb, rest, Request::Metrics),
            "QUIT" => Request::bare(verb, rest, Request::Quit),
            "SHUTDOWN" => Request::bare(verb, rest, Request::Shutdown),
            other => Err(format!(
                "unknown verb {other:?}; use QUERY | TOP | STATS | METRICS | QUIT | SHUTDOWN"
            )),
        }
    }

    fn bare(verb: &str, rest: &str, req: Request) -> Result<Option<Request>, String> {
        if rest.is_empty() {
            Ok(Some(req))
        } else {
            Err(format!("{verb} takes no arguments"))
        }
    }
}

/// Renders an `ERR` line. Control characters in `message` are flattened to
/// spaces so one logical error can never span (and thereby corrupt) the
/// line framing.
pub fn err_line(code: &str, message: &str) -> String {
    let flat: String = message.chars().map(|c| if c.is_control() { ' ' } else { c }).collect();
    format!("ERR {code} {flat}")
}

/// Incremental line framing over a byte stream — the one framer of the
/// TCP front end (and of anything that replays its requests): push the
/// chunks the kernel delivers, pop complete lines. The line terminator is
/// `\n`, one trailing `\r` is stripped (CRLF clients), lines must be
/// UTF-8, and an unterminated line may not outgrow the cap — so how a
/// client fragments its writes is invisible to the protocol, and a client
/// that never sends a newline cannot grow the server's memory.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes already scanned for `\n` (resume point, so a slow-dripping
    /// client costs one scan per byte, not per chunk).
    scanned: usize,
    max_line: usize,
}

impl LineBuffer {
    /// Default cap on one line's length (a line-protocol request is tens
    /// of bytes; a client that streams megabytes without a newline is
    /// attacking the buffer, not querying).
    const DEFAULT_MAX_LINE: usize = 64 * 1024;

    /// A fresh buffer with the default line cap.
    pub fn new() -> LineBuffer {
        LineBuffer::with_max_line(Self::DEFAULT_MAX_LINE)
    }

    /// A fresh buffer capping lines at `max_line` bytes.
    fn with_max_line(max_line: usize) -> LineBuffer {
        LineBuffer { buf: Vec::new(), scanned: 0, max_line }
    }

    /// Appends one received chunk.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line, `\n` and one trailing `\r` stripped.
    ///
    /// Errors when the line is not UTF-8 or exceeds the cap — both are
    /// protocol violations: the front end answers `ERR BAD_REQUEST` and
    /// closes the connection.
    pub fn next_line(&mut self) -> Result<Option<String>, LineError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) if self.scanned + offset > self.max_line => Err(LineError::TooLong),
            Some(offset) => {
                let end = self.scanned + offset;
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.scanned = 0;
                match String::from_utf8(line) {
                    Ok(line) => Ok(Some(line)),
                    Err(_) => Err(LineError::NotUtf8),
                }
            }
            None if self.buf.len() > self.max_line => Err(LineError::TooLong),
            None => {
                self.scanned = self.buf.len();
                Ok(None)
            }
        }
    }
}

impl Default for LineBuffer {
    fn default() -> Self {
        LineBuffer::new()
    }
}

/// Why [`LineBuffer::next_line`] gave up on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The unterminated line outgrew the cap.
    TooLong,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::NotUtf8 => f.write_str("request line is not valid UTF-8"),
            LineError::TooLong => f.write_str("request line exceeds the length cap"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            Request::parse("QUERY drama family").unwrap(),
            Some(Request::Query { text: "drama family".into() })
        );
        assert_eq!(Request::parse("TOP 5").unwrap(), Some(Request::Top { k: 5 }));
        assert_eq!(Request::parse("STATS").unwrap(), Some(Request::Stats));
        assert_eq!(Request::parse("METRICS").unwrap(), Some(Request::Metrics));
        assert_eq!(Request::parse("QUIT").unwrap(), Some(Request::Quit));
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Some(Request::Shutdown));
    }

    #[test]
    fn blank_lines_are_ignored() {
        assert_eq!(Request::parse("").unwrap(), None);
        assert_eq!(Request::parse("   \t ").unwrap(), None);
    }

    #[test]
    fn query_text_survives_inner_whitespace() {
        assert_eq!(
            Request::parse("QUERY   war  soldier ").unwrap(),
            Some(Request::Query { text: "war  soldier".into() })
        );
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(Request::parse("QUERY").unwrap_err().contains("query text"));
        assert!(Request::parse("TOP").unwrap_err().contains("integer"));
        assert!(Request::parse("TOP many").unwrap_err().contains("integer"));
        assert!(Request::parse("STATS now").unwrap_err().contains("no arguments"));
        assert!(Request::parse("METRICS all").unwrap_err().contains("no arguments"));
        assert!(Request::parse("EXPLODE").unwrap_err().contains("unknown verb"));
        // Verbs are case-sensitive — lowercase is a different (unknown) verb.
        assert!(Request::parse("query x").unwrap_err().contains("unknown verb"));
    }

    #[test]
    fn top_is_bounded_by_max_top() {
        assert_eq!(Request::parse("TOP 0").unwrap(), Some(Request::Top { k: 0 }));
        assert_eq!(Request::parse("TOP 1000").unwrap(), Some(Request::Top { k: MAX_TOP }));
        assert_eq!(Request::parse("TOP 1001").unwrap_err(), "TOP takes at most 1000, got 1001");
        // Past usize the number no longer parses: the integer error still wins.
        assert!(Request::parse("TOP 99999999999999999999999").unwrap_err().contains("integer"));
    }

    #[test]
    fn err_line_never_spans_lines() {
        let line = err_line("INTERNAL", "multi\nline\r\nmessage");
        assert_eq!(line.lines().count(), 1);
        assert!(line.starts_with("ERR INTERNAL "));
    }

    #[test]
    fn lines_assemble_across_partial_pushes() {
        let mut lb = LineBuffer::new();
        lb.push(b"QUERY dra");
        assert_eq!(lb.next_line().unwrap(), None, "no newline yet");
        lb.push(b"ma family\nSTA");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("QUERY drama family"));
        assert_eq!(lb.next_line().unwrap(), None);
        lb.push(b"TS\n\nQUIT\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("STATS"));
        assert_eq!(lb.next_line().unwrap().as_deref(), Some(""), "blank lines frame as empty");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("QUIT"));
        assert_eq!(lb.next_line().unwrap(), None);
        assert_eq!(lb.buf.len(), 0);
    }

    #[test]
    fn crlf_is_stripped() {
        let mut lb = LineBuffer::new();
        lb.push(b"STATS\r\nQUERY a\r\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("STATS"));
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("QUERY a"));
    }

    #[test]
    fn bad_utf8_and_oversized_lines_are_errors() {
        let mut lb = LineBuffer::new();
        lb.push(&[0xFF, 0xFE, b'\n']);
        assert_eq!(lb.next_line(), Err(LineError::NotUtf8));

        let mut lb = LineBuffer::with_max_line(8);
        lb.push(b"0123456789");
        assert_eq!(lb.next_line(), Err(LineError::TooLong));
        // The cap binds a terminated line too, however it was chunked.
        let mut lb = LineBuffer::with_max_line(8);
        lb.push(b"012345678\n");
        assert_eq!(lb.next_line(), Err(LineError::TooLong));
        let mut lb = LineBuffer::with_max_line(8);
        lb.push(b"01234567\n");
        assert_eq!(lb.next_line().unwrap().as_deref(), Some("01234567"));
    }
}
