//! The serving runtime: a long-lived corpus server with admission control,
//! session budgets, a result-page cache, and a TCP line-protocol front
//! end.
//!
//! A [`CorpusServer`] owns no thread of its own: the served corpus owns
//! the shard workers (`src/pool.rs`), and a result-page cache miss runs on
//! its session's own thread. The miss passes the admission gate, takes the
//! execution lock (misses execute one at a time, in whatever order the
//! lock grants) and asks the corpus to run its shards
//! (`Corpus::run_shards`), computing the last one itself while the
//! workers compute theirs. The page cache is the one place a repeated
//! query (same canonical query text, same top-k) is answered without
//! executing.
//!
//! ## A page is rendered once per executed miss
//!
//! Right after the merge the miss's session renders its whole wire reply
//! (`OK <shown>`, the ranked listing, the end marker) into one shared
//! [`QueryAnswer::reply`]. Every later result-page cache hit on the key
//! carries those same bytes, so a hit clones two `Arc`s and the TCP front
//! end answers it with one write; no reply path renders again.
//!
//! ## The invariant: serving and caching never change bytes
//!
//! A served miss *is* the bounded query: it runs the corpus's one shard
//! job over the same `ShardPlan` partition and the one global merge
//! (`corpus::merge_runs`) that a [`crate::CorpusQuery`] bounded to the
//! session's top-k runs. Only the fault plan differs, and an unfired site
//! changes nothing. A response from the server is therefore the hits and
//! the executor work of `corpus.query(text).take(k)`, at any shard count
//! and under any interleaving of concurrent clients (pinned by
//! `tests/serve.rs`). What stays here is policy: admission, the execution
//! lock, the deadline checks, the render, the cache insert and the
//! counters — including each shard's busy time, which the job measures
//! from after its fault sites.
//!
//! ## One front end
//!
//! [`serve_tcp`] speaks the line protocol with one thread and one
//! [`ServeSession`] per connection. Request bytes are framed by
//! [`xsact_serve::LineBuffer`], so how a client fragments its writes is
//! invisible, and a line longer than 64 KiB or not UTF-8 is answered
//! `ERR BAD_REQUEST` and the connection closed. A connection's socket and
//! bookkeeping are released when its thread exits; shutdown ends the
//! blocking reads of the ones still alive. At most 1024 connections are
//! live at once; one more is answered `ERR OVERLOADED` and closed.
//!
//! ## Failure modes are typed
//!
//! * `queue_capacity` misses already waiting to execute (or server
//!   shutting down) → [`XsactError::Overloaded`] — nothing was executed;
//!   back off and retry.
//! * Session spent its executor-work budget →
//!   [`XsactError::BudgetExceeded`] — rejected before admission.
//! * Deadline elapsed (wait + execute) →
//!   [`XsactError::DeadlineExceeded`] — checked right before the query's
//!   jobs are submitted (the query never executed) and again after they
//!   return; retry with a fresh deadline.
//! * Shard panicked mid-execution → [`XsactError::ShardFailed`] for
//!   exactly the query whose job it was. The pool catches the panic and
//!   its worker keeps serving, so a retry — and every *other* request,
//!   concurrent or subsequent — is byte-identical to a fault-free run
//!   (pinned by `tests/chaos.rs`).
//!
//! Shutdown closes admission: misses already admitted finish on their own
//! threads, new ones are turned away. Recovery paths are exercised
//! deterministically via [`FaultPlan`] (`XSACT_FAULTS` in the CLI); a
//! disarmed plan costs one branch per site.
//!
//! ```
//! use std::sync::Arc;
//! use xsact::corpus::Corpus;
//! use xsact::serve::{CorpusServer, ServeConfig};
//!
//! # fn main() -> Result<(), xsact::XsactError> {
//! let corpus = Arc::new(Corpus::synthetic_movies(4, 30, 42).with_shards(2));
//! let server = CorpusServer::start(corpus, ServeConfig::default());
//! let mut session = server.session();
//! let answer = session.query("drama family")?;
//! print!("{}", String::from_utf8_lossy(&answer.reply));
//! # Ok(())
//! # }
//! ```

use crate::cache::{Inserted, PageCache};
use crate::corpus::{merge_runs, Corpus, CorpusHit, CorpusRanking, DEFAULT_TOP};
use crate::error::{XsactError, XsactResult};
use crate::http::{self, MetricsServer};
use crate::stats::ServeCounters;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xsact_index::trace::format_nanos;
use xsact_index::{ExecutorStats, Query};
use xsact_serve::{err_line, LineBuffer, Request};

pub use crate::fault::FaultPlan;
pub use crate::stats::ServeSnapshot;
pub use xsact_serve::{END_MARKER, MAX_TOP};

/// Configuration of a [`CorpusServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most cache misses that may wait to execute while another does; a
    /// miss beyond it is rejected with [`XsactError::Overloaded`]. Zero is
    /// valid and rejects every miss (a deterministic "always overloaded"
    /// server, used by the CI smoke test).
    pub queue_capacity: usize,
    /// Top-k a fresh session starts with (changeable per connection via
    /// the `TOP` verb).
    pub default_top: usize,
    /// Per-session executor-work budget in posting entries scanned;
    /// `None` = unlimited. A session whose spend has reached the budget
    /// gets [`XsactError::BudgetExceeded`] before its query is admitted,
    /// so budget `1` admits exactly one matching query — handy for
    /// deterministic tests.
    pub budget: Option<u64>,
    /// End-to-end latency threshold above which a served query is logged
    /// to stderr (one line per offending query, with its stage timings);
    /// `None` disables the log. Purely observational — answers are
    /// byte-identical either way.
    pub slow_query: Option<Duration>,
    /// Per-query deadline covering the wait to execute plus execute, timed
    /// from the session's call; `None` = unlimited. Checked under the
    /// execution lock right before the query's jobs are submitted (an
    /// expired query is answered [`XsactError::DeadlineExceeded`] without
    /// executing) and again after they return (a late answer is discarded
    /// — the caller already stopped caring).
    pub deadline: Option<Duration>,
    /// Entry bound of the result-page cache keyed on `(canonical query,
    /// k)`; 0 disables caching entirely. A hit skips admission *and*
    /// execution and returns the stored answer byte-identical to fresh
    /// execution (the corpus is immutable and the executor deterministic —
    /// pinned by `tests/serve.rs`).
    pub cache_entries: usize,
    /// Approximate byte bound of the result-page cache (0 = entry bound
    /// only). Least-recently-used pages are evicted to stay inside both
    /// bounds.
    pub cache_bytes: usize,
    /// Armed fault-injection sites (chaos testing only); the default is
    /// disarmed, which costs one branch per site. Binaries arm it from
    /// `XSACT_FAULTS` at startup.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            default_top: DEFAULT_TOP,
            budget: None,
            slow_query: None,
            deadline: None,
            cache_entries: 1024,
            cache_bytes: 4 << 20,
            faults: FaultPlan::disarmed(),
        }
    }
}

/// What a served query returns: the shared ranking, its rendered wire
/// reply, and the cost of the execution that produced it.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The merged ranking — shared (`Arc`) with every cache hit on the
    /// key, byte-identical to sequential execution.
    pub ranking: Arc<CorpusRanking>,
    /// The protocol reply for this page at the key's top-k, end marker
    /// included: `OK <shown>\n`, the ranking's listing, `.\n`. Rendered
    /// once by the session that executed the miss and shared by every
    /// cache hit on the key.
    pub reply: Arc<[u8]>,
    /// Executor work of the execution (a cache hit is charged the same
    /// cost against its session budget).
    pub stats: ExecutorStats,
    /// How long this query waited, once admitted, for the execution lock
    /// (zero on a cache hit).
    pub queue_wait: Duration,
    /// How long the shards took to execute this query (zero on a cache
    /// hit).
    pub execute: Duration,
}

/// Admission control: the misses admitted but not yet holding the
/// execution lock, and whether shutdown has closed the door.
#[derive(Default)]
struct Gate {
    waiting: usize,
    closed: bool,
}

/// State shared by the server handle and its sessions.
struct ServerInner {
    corpus: Arc<Corpus>,
    /// Held for one execution at a time: misses execute one by one, each
    /// on its own session's thread.
    executing: Mutex<()>,
    gate: Mutex<Gate>,
    /// Shared with the `/metrics` endpoint.
    counters: Arc<ServeCounters>,
    config: ServeConfig,
    /// The result-page cache (`None` when `cache_entries` is 0). Sessions
    /// check it before admission and insert their successful answers,
    /// reply bytes included, so a hit returns the bytes rendered at the
    /// miss. A lookup is a linear scan over up to `cache_entries` keys
    /// (about 200 ns at 256 keys, roughly 1 % of a hit).
    cache: Option<Mutex<PageCache<QueryAnswer>>>,
}

/// A running corpus server; see the module docs. Dropping it shuts down:
/// admission closes. The shard workers belong to the corpus and are joined
/// when the last holder of it lets go.
pub struct CorpusServer {
    inner: Arc<ServerInner>,
}

impl CorpusServer {
    /// Serves `corpus` on its own shard workers, with one busy histogram
    /// per [`Corpus::effective_shards`]; starts no thread.
    pub fn start(corpus: Arc<Corpus>, config: ServeConfig) -> CorpusServer {
        let counters = Arc::new(ServeCounters::new(corpus.effective_shards()));
        let cache = (config.cache_entries > 0)
            .then(|| Mutex::new(PageCache::new(config.cache_entries, config.cache_bytes)));
        let inner = Arc::new(ServerInner {
            corpus,
            executing: Mutex::new(()),
            gate: Mutex::default(),
            counters,
            config,
            cache,
        });
        CorpusServer { inner }
    }

    /// Opens a session: its own top-k and its own budget meter, safe to
    /// use from any thread (the TCP front end opens one per connection).
    pub fn session(&self) -> ServeSession {
        ServeSession {
            inner: Arc::clone(&self.inner),
            top: self.inner.config.default_top,
            spent: 0,
        }
    }

    /// A point-in-time copy of the server-level counters (the `STATS`
    /// verb's body).
    pub fn stats(&self) -> ServeSnapshot {
        self.inner.counters.snapshot()
    }

    /// The full metrics exposition, Prometheus text format (the `METRICS`
    /// verb's body and the `/metrics` HTTP response).
    pub fn metrics(&self) -> String {
        self.inner.counters.exposition()
    }

    /// Binds `addr` (port 0 for ephemeral) and serves [`metrics`] at
    /// `GET /metrics` over plain HTTP, live, until the returned endpoint
    /// is shut down or dropped.
    ///
    /// [`metrics`]: CorpusServer::metrics
    pub fn serve_metrics(&self, addr: &str) -> io::Result<MetricsServer> {
        http::serve_metrics(Arc::clone(&self.inner.counters), addr)
    }

    /// Begins shutdown: admission closes (new misses rejected), misses
    /// already admitted finish on their own threads. Idempotent; does not
    /// block, and never panics (`Drop` calls it): every update of the gate
    /// leaves it valid, so a poisoned lock is still safe to close.
    pub fn shutdown(&self) {
        self.inner.gate.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
    }
}

impl Drop for CorpusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerInner {
    /// Executes one page-cache miss on the calling thread: admission, the
    /// wait for the execution lock, the corpus's shard runs and their
    /// merge, the reply's one render, and the cache insert. `submitted` is
    /// when the session's call began (the deadline is timed from there).
    fn execute_miss(
        &self,
        canonical: &str,
        query: Query,
        k: usize,
        submitted: Instant,
    ) -> XsactResult<QueryAnswer> {
        {
            let mut gate = self.gate.lock().expect("gate lock poisoned");
            let capacity = self.config.queue_capacity;
            if gate.closed || gate.waiting >= capacity {
                self.counters.record_overload_rejection();
                return Err(XsactError::Overloaded { depth: gate.waiting, capacity });
            }
            gate.waiting += 1;
        }
        let admitted = Instant::now();
        let executing = self.executing.lock().unwrap_or_else(PoisonError::into_inner);
        self.gate.lock().expect("gate lock poisoned").waiting -= 1;
        let queue_wait = admitted.elapsed();
        // A query whose deadline already elapsed never executes — its
        // answer could only arrive late.
        self.check_deadline(submitted)?;
        let execute_start = Instant::now();
        let outcomes = self.corpus.run_shards(query, Some(k), &self.config.faults);
        let execute = execute_start.elapsed();
        drop(executing);
        for (shard, outcome) in outcomes.iter().enumerate() {
            if let Ok(run) = outcome {
                self.counters.record_shard_busy(shard, run.busy);
            }
        }
        let restarts = outcomes.iter().filter(|outcome| outcome.is_err()).count();
        // The first panicked shard (in shard order) fails the query. Every
        // failed shard's worker caught its panic and keeps serving, so the
        // next miss runs on a healthy pool.
        let runs = outcomes.into_iter().collect::<Result<Vec<_>, _>>().map_err(|panic| {
            self.counters.record_shard_failure(restarts as u64);
            XsactError::ShardFailed { shard: panic.shard, detail: panic.detail }
        })?;
        let (ranking, stats) = merge_runs(runs, k);
        // An answer that arrived after the deadline is discarded, not
        // delivered late.
        self.check_deadline(submitted)?;
        // The miss's one render of its whole wire reply: every later cache
        // hit shares these bytes.
        let shown = ranking.hits.len().min(k);
        let reply = framed(format!("OK {shown}\n{}", ranking.render(k)));
        // Latency histograms record answered queries only — the exposition
        // contract pins each count to queries_served, and a rejected query
        // is counted in its rejection counter instead.
        self.counters.record_queue_wait(queue_wait);
        self.counters.record_execute(execute);
        self.counters.record_batch(
            stats.postings_scanned,
            stats.gallop_probes,
            stats.candidates_pruned,
        );
        let answer = QueryAnswer { ranking: Arc::new(ranking), reply, stats, queue_wait, execute };
        // Only delivered answers are cached — a `ShardFailed`, a deadline
        // rejection, or any other error can never be replayed from the
        // cache.
        if let Some(cache) = &self.cache {
            let bytes = answer_bytes(canonical, &answer);
            let mut cache = cache.lock().expect("cache lock poisoned");
            let inserted = cache.insert(canonical, k, answer.clone(), bytes);
            if let Inserted::Stored { evicted: evicted @ 1.. } = inserted {
                self.counters.record_cache_evictions(evicted);
            }
        }
        Ok(answer)
    }

    /// A typed [`XsactError::DeadlineExceeded`] if the deadline of a query
    /// submitted at `submitted` has elapsed. With no configured deadline
    /// this is a single branch.
    fn check_deadline(&self, submitted: Instant) -> XsactResult<()> {
        let Some(deadline) = self.config.deadline else { return Ok(()) };
        let elapsed = submitted.elapsed();
        if elapsed < deadline {
            return Ok(());
        }
        self.counters.record_deadline_rejection();
        Err(XsactError::DeadlineExceeded {
            elapsed_ms: elapsed.as_millis().try_into().unwrap_or(u64::MAX),
            deadline_ms: deadline.as_millis().try_into().unwrap_or(u64::MAX),
        })
    }
}

/// Approximate heap footprint of one cached answer, for the cache's byte
/// bound: the key, the fixed-size answer, each hit's owned strings, and
/// the rendered reply. Deterministic — the same answer always weighs the
/// same.
fn answer_bytes(key: &str, answer: &QueryAnswer) -> usize {
    let hits: usize = answer
        .ranking
        .hits
        .iter()
        .map(|hit| std::mem::size_of::<CorpusHit>() + hit.result.label.len() + hit.doc_name.len())
        .sum();
    key.len() + std::mem::size_of::<QueryAnswer>() + hits + answer.reply.len()
}

/// One caller's view of a [`CorpusServer`]: a top-k setting and a budget
/// meter. Sessions are independent; drop one and nothing happens to the
/// server.
pub struct ServeSession {
    inner: Arc<ServerInner>,
    top: usize,
    spent: u64,
}

impl ServeSession {
    /// Sets the session's top-k for subsequent queries (the `TOP` verb).
    pub(crate) fn set_top(&mut self, k: usize) {
        self.top = k;
    }

    /// Answers one query: from the page cache, or by executing the miss on
    /// this thread once no other miss executes.
    ///
    /// Typed failure modes, in checking order: [`XsactError::EmptyQuery`]
    /// (no indexable terms), [`XsactError::BudgetExceeded`] (the session's
    /// spend reached its budget; nothing admitted),
    /// [`XsactError::Overloaded`] (`queue_capacity` misses already wait to
    /// execute, or the server is shutting down; nothing executed), then
    /// [`XsactError::DeadlineExceeded`] and [`XsactError::ShardFailed`]
    /// (both retryable; a failed shard keeps serving the next request). A
    /// failure charges no budget and records no end-to-end sample.
    pub fn query(&mut self, text: &str) -> XsactResult<QueryAnswer> {
        let start = Instant::now();
        let query = Query::parse(text);
        if query.is_empty() {
            return Err(XsactError::EmptyQuery);
        }
        if let Some(budget) = self.inner.config.budget {
            if self.spent >= budget {
                self.inner.counters.record_budget_rejection();
                return Err(XsactError::BudgetExceeded { spent: self.spent, budget });
            }
        }
        let canonical = query.to_string();
        let answer = 'answer: {
            if let Some(cache) = &self.inner.cache {
                let mut cache = cache.lock().expect("cache lock poisoned");
                if let Some(answer) = cache.lookup(&canonical, self.top) {
                    // A hit skips admission and execution entirely; the
                    // bytes are identical because the cached answer *is* the
                    // executor's answer, reply bytes included (the lookup
                    // cloned two `Arc`s; nothing is rendered). The histogram
                    // contract (`_count == queries_served`) still holds: the hit
                    // records zero queue wait and zero execute, and the real
                    // end-to-end latency is recorded below.
                    self.inner.counters.record_cache_hit();
                    break 'answer QueryAnswer {
                        queue_wait: Duration::ZERO,
                        execute: Duration::ZERO,
                        ..answer
                    };
                }
                self.inner.counters.record_cache_miss();
            }
            self.inner.execute_miss(&canonical, query, self.top, start)?
        };
        self.spent = self.spent.saturating_add(answer.stats.postings_scanned);
        let e2e = start.elapsed();
        self.inner.counters.record_e2e(e2e);
        if let Some(threshold) = self.inner.config.slow_query {
            if e2e >= threshold {
                eprintln!(
                    "xsact-serve: slow query {text:?} k={}: e2e={} queue_wait={} execute={} ({})",
                    self.top,
                    format_nanos(e2e.as_nanos().try_into().unwrap_or(u64::MAX)),
                    format_nanos(answer.queue_wait.as_nanos().try_into().unwrap_or(u64::MAX)),
                    format_nanos(answer.execute.as_nanos().try_into().unwrap_or(u64::MAX)),
                    answer.stats,
                );
            }
        }
        Ok(answer)
    }
}

/// The protocol error code of a facade error (`ERR <code> <message>`).
/// Codes are stable identifiers; messages may evolve.
fn error_code(error: &XsactError) -> &'static str {
    match error {
        XsactError::Overloaded { .. } => "OVERLOADED",
        XsactError::BudgetExceeded { .. } => "BUDGET_EXCEEDED",
        XsactError::DeadlineExceeded { .. } => "DEADLINE_EXCEEDED",
        XsactError::ShardFailed { .. } => "SHARD_FAILED",
        XsactError::EmptyQuery => "EMPTY_QUERY",
        _ => "INTERNAL",
    }
}

/// State shared by the accept loop, the connection threads, and the
/// shutdown trigger.
struct TcpShared {
    server: CorpusServer,
    stop: AtomicBool,
    addr: SocketAddr,
    /// The live connections by accept number, so shutdown can end their
    /// blocking reads (read half only — in-flight responses still go out).
    /// A connection's thread takes its own entry out when it exits: the
    /// socket closes there and then, and the map holds live sockets only.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
}

impl TcpShared {
    /// Starts TCP teardown exactly once: close admission, wake the accept loop with a self-connect, and end every
    /// connection's read half so its thread can finish and exit. `stop` is
    /// set before the map is drained and the accept loop registers under
    /// the map's lock, so a connection is either drained here or never
    /// served.
    fn trigger_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.server.shutdown();
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.conns.lock().expect("conns lock poisoned").drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
}

/// A running TCP front end; see [`serve_tcp`].
pub struct TcpServeHandle {
    shared: Arc<TcpShared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl TcpServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts shutdown from outside (equivalent to a client's `SHUTDOWN`
    /// verb). Idempotent; does not block — follow with
    /// [`wait`](Self::wait).
    pub fn shutdown(&self) {
        self.shared.trigger_stop();
    }

    /// Blocks until the server has stopped (via the `SHUTDOWN` verb or
    /// [`shutdown`](Self::shutdown)): joins the accept loop and every
    /// connection thread — each executes its own misses, so every admitted
    /// query has been answered — then returns the final counters.
    pub fn wait(mut self) -> ServeSnapshot {
        if let Some(accept) = self.accept.take() {
            for conn in accept.join().expect("accept loop panicked") {
                let _ = conn.join();
            }
        }
        self.shared.server.stats()
    }
}

/// Most connections [`serve_tcp`] serves at once — each holds a thread.
const MAX_CONNECTIONS: usize = 1024;

/// Read/write timeout of every TCP connection, so a stalled or
/// slow-dripping client (slowloris) releases its thread instead of
/// occupying it forever. A timed-out connection is closed; its session
/// dies with it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Binds `addr` (e.g. `127.0.0.1:4141`, port 0 for an ephemeral port) and
/// serves `server` over the line protocol: one thread per connection, one
/// [`ServeSession`] per connection, request lines framed by
/// [`LineBuffer`] (at most 64 KiB each), every response terminated by a
/// lone `.` line. Returns once the listener is bound and accepting.
///
/// At most 1024 connections are live at once: one more is answered
/// `ERR OVERLOADED too many connections`, counted in `rejected_overload`,
/// and closed.
pub fn serve_tcp(server: CorpusServer, addr: &str) -> XsactResult<TcpServeHandle> {
    serve_tcp_impl(server, addr, MAX_CONNECTIONS)
}

/// `max_conns` is a parameter (not configuration) so the tests can pin the
/// cap at a size they can reach.
fn serve_tcp_impl(
    server: CorpusServer,
    addr: &str,
    max_conns: usize,
) -> XsactResult<TcpServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(TcpShared {
        server,
        stop: AtomicBool::new(false),
        addr,
        conns: Mutex::new(HashMap::new()),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("xsact-accept".to_owned())
            .spawn(move || {
                let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    let mut conns = shared.conns.lock().expect("conns lock poisoned");
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    if conns.len() >= max_conns {
                        drop(conns);
                        shared.server.inner.counters.record_overload_rejection();
                        let _ =
                            stream.write_all(&error_reply("OVERLOADED", "too many connections"));
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let stream = Arc::new(stream);
                    conns.insert(id, Arc::clone(&stream));
                    drop(conns);
                    // Threads that already ran to their end need no join;
                    // `wait` gets the ones still alive at shutdown.
                    conn_threads.retain(|thread| !thread.is_finished());
                    let shared = Arc::clone(&shared);
                    conn_threads.push(std::thread::spawn(move || {
                        serve_connection(&shared, &stream);
                        shared.conns.lock().expect("conns lock poisoned").remove(&id);
                    }));
                }
                conn_threads
            })
            .expect("failed to spawn accept loop")
    };
    Ok(TcpServeHandle { shared, accept: Some(accept) })
}

/// Frames a newline-terminated response `body` by appending the end
/// marker.
fn framed(mut body: String) -> Arc<[u8]> {
    body.push_str(END_MARKER);
    body.push('\n');
    body.into_bytes().into()
}

/// A framed `ERR <code> <message>` response.
fn error_reply(code: &str, message: &str) -> Arc<[u8]> {
    framed(err_line(code, message) + "\n")
}

/// One connection's request loop. Every complete line already buffered is
/// answered, in order, before the next read, so a client may pipeline.
/// Exits on `QUIT`, `SHUTDOWN`, EOF, a broken stream, an I/O timeout (a
/// slowloris client that stops mid-line loses its thread after
/// [`IO_TIMEOUT`], not never), or a line the framer refuses (longer than
/// the cap, or not UTF-8), which is answered `ERR BAD_REQUEST` first.
fn serve_connection(shared: &TcpShared, mut stream: &TcpStream) {
    let config = &shared.server.inner.config;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut session = shared.server.session();
    let mut lines = LineBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        let (reply, done) = match lines.next_line() {
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    lines.push(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            },
            Ok(Some(line)) => match Request::parse(&line) {
                Ok(None) => continue,
                Ok(Some(request)) => respond(shared, &mut session, request),
                Err(message) => (error_reply("BAD_REQUEST", &message), false),
            },
            // The stream cannot be framed any further: answer and close.
            Err(refused) => (error_reply("BAD_REQUEST", &refused.to_string()), true),
        };
        if config.faults.should_fire("drop_connection", 0).is_some() {
            // Chaos site: vanish without a reply — the client sees EOF
            // mid-exchange, exactly like a crashed peer.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let write_start = Instant::now();
        let written = stream.write_all(&reply);
        shared.server.inner.counters.record_reply_write(write_start.elapsed());
        if written.is_err() || done {
            return;
        }
    }
}

/// Builds one framed response and whether the connection should close
/// afterwards. A served page is the reply rendered at its miss, as is.
fn respond(shared: &TcpShared, session: &mut ServeSession, request: Request) -> (Arc<[u8]>, bool) {
    match request {
        Request::Query { text } => match session.query(&text) {
            Ok(answer) => (answer.reply, false),
            Err(e) => (error_reply(error_code(&e), &e.to_string()), false),
        },
        Request::Top { k } => {
            session.set_top(k);
            (framed(format!("OK top={k}\n")), false)
        }
        Request::Stats => (framed(format!("OK stats\n{}\n", shared.server.stats())), false),
        // The exposition already ends with a newline; no extra framing.
        Request::Metrics => (framed(format!("OK metrics\n{}", shared.server.metrics())), false),
        Request::Quit => (framed("OK bye\n".to_owned()), true),
        Request::Shutdown => {
            // Answer first, then tear down — the trigger ends this
            // connection's read half, which is fine: we are done reading.
            shared.trigger_stop();
            (framed("OK shutting down\n".to_owned()), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_corpus(shards: usize) -> Arc<Corpus> {
        Arc::new(Corpus::synthetic_movies(5, 24, 11).with_shards(shards))
    }

    #[test]
    fn served_answer_matches_sequential_bytes() {
        let corpus = test_corpus(2);
        let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
        let mut session = server.session();
        let answer = session.query("drama family").unwrap();
        let sequential = corpus.query("drama family").unwrap().ranking().render(session.top);
        assert_eq!(answer.ranking.render(session.top), sequential);
        assert!(!sequential.is_empty());
    }

    #[test]
    fn budget_admits_then_rejects() {
        let server = CorpusServer::start(
            test_corpus(1),
            ServeConfig { budget: Some(1), ..ServeConfig::default() },
        );
        let mut session = server.session();
        session.query("drama").unwrap();
        assert!(session.spent >= 1, "a matching query scans postings");
        let err = session.query("drama").unwrap_err();
        assert!(matches!(err, XsactError::BudgetExceeded { budget: 1, .. }), "{err}");
        // Budgets are per session, not per server.
        server.session().query("drama").unwrap();
        assert_eq!(server.stats().rejected_budget, 1);
    }

    #[test]
    fn zero_capacity_queue_is_always_overloaded() {
        let server = CorpusServer::start(
            test_corpus(1),
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
        );
        let err = server.session().query("drama").unwrap_err();
        assert!(matches!(err, XsactError::Overloaded { capacity: 0, .. }), "{err}");
        assert_eq!(server.stats().rejected_overload, 1);
        assert_eq!(server.stats().queries_served, 0);
    }

    #[test]
    fn shutdown_rejects_new_work_as_overloaded() {
        let server = CorpusServer::start(test_corpus(1), ServeConfig::default());
        server.shutdown();
        let err = server.session().query("drama").unwrap_err();
        assert!(matches!(err, XsactError::Overloaded { .. }), "{err}");
    }

    #[test]
    fn empty_query_is_rejected_before_queueing() {
        let server = CorpusServer::start(test_corpus(1), ServeConfig::default());
        let err = server.session().query("???").unwrap_err();
        assert!(matches!(err, XsactError::EmptyQuery));
        assert_eq!(server.stats().queries_served, 0);
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(error_code(&XsactError::Overloaded { depth: 1, capacity: 1 }), "OVERLOADED");
        assert_eq!(
            error_code(&XsactError::BudgetExceeded { spent: 2, budget: 1 }),
            "BUDGET_EXCEEDED"
        );
        assert_eq!(
            error_code(&XsactError::DeadlineExceeded { elapsed_ms: 2, deadline_ms: 1 }),
            "DEADLINE_EXCEEDED"
        );
        assert_eq!(
            error_code(&XsactError::ShardFailed { shard: 0, detail: "boom".into() }),
            "SHARD_FAILED"
        );
        assert_eq!(error_code(&XsactError::EmptyQuery), "EMPTY_QUERY");
        assert_eq!(error_code(&XsactError::EmptyCorpus), "INTERNAL");
    }

    #[test]
    fn zero_deadline_rejects_at_dispatch_without_executing() {
        let server = CorpusServer::start(
            test_corpus(2),
            ServeConfig { deadline: Some(Duration::ZERO), ..ServeConfig::default() },
        );
        let err = server.session().query("drama").unwrap_err();
        assert!(matches!(err, XsactError::DeadlineExceeded { .. }), "{err}");
        let stats = server.stats();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.queries_served, 0, "an expired query never executes");
        assert_eq!(stats.queue_wait_ns.count, 0, "histograms record answered queries only");
    }

    #[test]
    fn a_query_one_and_a_half_deadlines_old_is_rejected() {
        let deadline = Duration::from_millis(100);
        let server = CorpusServer::start(
            test_corpus(1),
            ServeConfig { deadline: Some(deadline), ..ServeConfig::default() },
        );
        let submitted = Instant::now()
            .checked_sub(deadline * 3 / 2)
            .expect("the monotonic clock reaches 150 ms back");
        let err = server.inner.check_deadline(submitted).unwrap_err();
        assert!(matches!(err, XsactError::DeadlineExceeded { deadline_ms: 100, .. }), "{err}");
        assert_eq!(server.stats().rejected_deadline, 1);
    }

    #[test]
    fn shard_panic_is_typed_and_recovery_is_byte_identical() {
        let corpus = test_corpus(2);
        let server = CorpusServer::start(
            Arc::clone(&corpus),
            ServeConfig {
                faults: FaultPlan::parse("shard_panic@1").unwrap(),
                ..ServeConfig::default()
            },
        );
        let mut session = server.session();
        let err = session.query("drama family").unwrap_err();
        assert!(matches!(err, XsactError::ShardFailed { .. }), "{err}");
        assert!(err.to_string().contains("injected shard_panic fault"), "{err}");
        // The same session retries on the recovered shard and the answer
        // is byte-identical to sequential execution.
        let answer = session.query("drama family").unwrap();
        let sequential = corpus.query("drama family").unwrap().ranking().render(session.top);
        assert_eq!(answer.ranking.render(session.top), sequential);
        let stats = server.stats();
        assert_eq!(stats.shard_failed, 1);
        assert_eq!(stats.shard_restarts, 1);
        assert_eq!(stats.queries_served, 1, "only the recovered query counts as served");
        assert_eq!(stats.execute_ns.count, stats.queries_served);
    }

    #[test]
    fn latency_histogram_counts_equal_queries_served() {
        let server = CorpusServer::start(test_corpus(2), ServeConfig::default());
        let mut session = server.session();
        session.query("drama").unwrap();
        session.query("family").unwrap();
        session.query("drama").unwrap();
        let stats = server.stats();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.queue_wait_ns.count, stats.queries_served);
        assert_eq!(stats.execute_ns.count, stats.queries_served);
        assert_eq!(stats.e2e_ns.count, stats.queries_served);
        let metrics = server.metrics();
        assert!(metrics.contains("xsact_queries_served 3"), "{metrics}");
        assert!(metrics.contains("xsact_e2e_ns_count 3"), "{metrics}");
        assert!(metrics.contains("# TYPE xsact_shard_0_busy_ns summary"), "{metrics}");
    }

    /// `ci/serve_smoke.sh`'s normalisation: every sample of a metric whose
    /// name holds `_ns` varies run to run and reads `<ns>`.
    fn normalize_ns(exposition: &str) -> String {
        exposition
            .lines()
            .map(|line| match line.rsplit_once(' ') {
                Some((name, _)) if !line.starts_with('#') && name.contains("_ns") => {
                    format!("{name} <ns>\n")
                }
                _ => format!("{line}\n"),
            })
            .collect()
    }

    #[test]
    fn exposition_matches_the_serve_smoke_golden() {
        // The smoke's fresh server (`serve --docs 6 --movies 40 --seed 42
        // --shards 2`) and its two queries, through the library: every
        // name, type line, order and count of the golden's METRICS body.
        let corpus = Arc::new(Corpus::synthetic_movies(6, 40, 42).with_shards(2));
        let server = CorpusServer::start(corpus, ServeConfig::default());
        let mut session = server.session();
        session.query("drama family").unwrap();
        session.set_top(2);
        session.query("drama family").unwrap();
        let golden = include_str!("../ci/serve_smoke.golden");
        let (_, body) = golden.split_once("OK metrics\n").expect("the golden scrapes METRICS");
        let body = &body[..body.find("\nERR ").expect("an error line follows") + 1];
        assert_eq!(normalize_ns(&server.metrics()), body);
    }

    #[test]
    fn exposition_sorts_metric_names_as_strings() {
        let corpus = Arc::new(Corpus::synthetic_movies(12, 3, 5).with_shards(12));
        assert_eq!(corpus.effective_shards(), 12);
        let metrics = CorpusServer::start(corpus, ServeConfig::default()).metrics();
        let names: Vec<&str> = metrics
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .map(|typed| typed.split(' ').next().unwrap())
            .collect();
        assert_eq!(names.len(), 18 + 12, "the fixed set plus one busy histogram per shard");
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted and unique: {names:?}");
        let shard_lines: Vec<&str> =
            names.iter().copied().filter(|n| n.starts_with("xsact_shard_")).collect();
        let mut expected: Vec<String> = [0, 10, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9]
            .iter()
            .map(|shard| format!("xsact_shard_{shard}_busy_ns"))
            .collect();
        expected.extend(["xsact_shard_failed".into(), "xsact_shard_restarts".into()]);
        assert_eq!(shard_lines, expected);
    }

    #[test]
    fn a_connection_over_the_cap_is_refused_until_one_closes() {
        let server = CorpusServer::start(test_corpus(1), ServeConfig::default());
        let handle = serve_tcp_impl(server, "127.0.0.1:0", 2).unwrap();
        let connect = || TcpStream::connect(handle.addr()).unwrap();
        // Everything the server says after `request`, up to its close.
        let last_words = |mut stream: TcpStream, request: &str| {
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.write_all(request.as_bytes()).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        };
        // Accepted in connect order: the first two take both places.
        let (first, _second) = (connect(), connect());
        let refused = last_words(connect(), "");
        assert_eq!(refused, format!("ERR OVERLOADED too many connections\n{END_MARKER}\n"));
        // A connection leaves the count before its socket closes, so once
        // its client reads EOF there is room again.
        let bye = format!("OK bye\n{END_MARKER}\n");
        assert_eq!(last_words(first, "QUIT\n"), bye);
        assert_eq!(last_words(connect(), "QUIT\n"), bye, "a new connection is served");
        handle.shutdown();
        assert_eq!(handle.wait().rejected_overload, 1);
    }

    #[test]
    fn a_cached_answer_weighs_its_reply_bytes() {
        let server = CorpusServer::start(test_corpus(2), ServeConfig::default());
        let answer = server.session().query("drama family").unwrap();
        assert!(answer.reply.starts_with(b"OK "), "{:?}", answer.reply);
        let replyless = QueryAnswer { reply: Arc::from(&b""[..]), ..answer.clone() };
        assert_eq!(
            answer_bytes("drama family", &answer),
            answer_bytes("drama family", &replyless) + answer.reply.len()
        );
    }

    #[test]
    fn stats_count_batches_and_queries() {
        let server = CorpusServer::start(test_corpus(2), ServeConfig::default());
        let mut session = server.session();
        session.query("drama").unwrap();
        session.query("family").unwrap();
        let stats = server.stats();
        assert_eq!(stats.queries_served, 2);
        assert_eq!(stats.batches, 2, "one execution per distinct miss");
        assert!(stats.postings_scanned > 0);
    }
}
