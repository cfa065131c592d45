//! The line protocol the XSACT server speaks.
//!
//! Newline-delimited requests (`QUERY …`, `TOP k`, `STATS`, `METRICS`,
//! `QUIT`, `SHUTDOWN`) and responses that end with a lone `.` line
//! ([`END_MARKER`]); errors are one `ERR <CODE> <message>` line
//! ([`err_line`]). [`LineBuffer`] is the incremental framer that turns
//! whatever chunks a socket delivers into request lines under a 64 KiB
//! line cap, and [`Request::parse`] reads one line. `TOP` is bounded by
//! [`MAX_TOP`].
//!
//! The crate is dependency-free and knows no engine type: the server
//! (`xsact::serve`) and any client that replays its requests share these
//! bytes through it.

#![forbid(unsafe_code)]

pub mod protocol;

pub use protocol::{err_line, LineBuffer, Request, END_MARKER, MAX_TOP};
