//! Chaos suite: deterministic fault injection driven end-to-end.
//!
//! Every test arms a [`FaultPlan`] against a serving runtime (or puts a
//! real IO failure in the persistence layer's way) and pins the *recovery
//! contract*, not just the failure: the affected request gets a typed,
//! retryable error, and everything after it is byte-identical to a
//! fault-free run. The plans are count-based — no clocks, no RNG — so a
//! failure here reproduces exactly on any machine.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use xsact::prelude::*;
use xsact::serve::{serve_tcp, FaultPlan, END_MARKER};
use xsact_data::movies::{qm_queries, MovieGenConfig, MoviesGen};

/// Eight documents so shard 1 is non-empty at every shard count under
/// test (2 and 8).
fn chaos_corpus(shards: usize) -> Arc<Corpus> {
    Arc::new(Corpus::synthetic_movies(8, 40, 42).with_shards(shards))
}

/// A query outcome normalised to bytes: the rendered ranking on success,
/// the error's display form otherwise. Byte-identity between a chaos run
/// and a fault-free oracle is asserted on this form.
fn rendered(session: &mut ServeSession, text: &str) -> String {
    match session.query(text) {
        Ok(answer) => answer.ranking.render(session.top()),
        Err(err) => format!("ERR {err}"),
    }
}

// ---------------------------------------------------------- shard panics

/// The acceptance pin: with a plan panicking shard 1 on its 3rd
/// batch, the server returns a typed `ShardFailed` for exactly that
/// batch, the shard keeps serving, and the server answers QM1–QM8 byte-identical to
/// a fault-free run — at both ends of the shard-count range.
#[test]
fn shard_panic_on_third_batch_recovers_byte_identical() {
    for shards in [2usize, 8] {
        let corpus = chaos_corpus(shards);
        let oracle = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
        let chaos = CorpusServer::start(
            Arc::clone(&corpus),
            ServeConfig {
                faults: FaultPlan::parse("shard_panic:1@3").unwrap(),
                ..ServeConfig::default()
            },
        );
        let mut oracle_session = oracle.session();
        let mut chaos_session = chaos.session();

        // Two warm-up batches advance shard 1's hit counter without firing.
        for warmup in ["drama family", "comedy wedding"] {
            assert_eq!(
                rendered(&mut chaos_session, warmup),
                rendered(&mut oracle_session, warmup),
                "warm-up {warmup:?} must not be affected (shards={shards})"
            );
        }

        // The 3rd batch lands on the armed hit: exactly this request fails,
        // with the typed error naming the shard and promising a restart.
        let err = chaos_session.query("action hero").unwrap_err();
        assert!(matches!(err, XsactError::ShardFailed { shard: 1, .. }), "{err}");
        assert!(err.to_string().contains("injected shard_panic fault"), "{err}");

        // Recovery: the full Figure-4 workload is byte-identical to the
        // fault-free oracle on the recovered pool.
        for (label, query) in qm_queries() {
            assert_eq!(
                rendered(&mut chaos_session, &query),
                rendered(&mut oracle_session, &query),
                "{label} diverged after recovery (shards={shards})"
            );
        }

        let stats = chaos.stats();
        assert_eq!(stats.shard_failed, 1, "exactly one batch failed (shards={shards})");
        assert_eq!(stats.shard_restarts, 1, "exactly one recovery (shards={shards})");
        assert_eq!(stats.queries_served, 10, "2 warm-ups + 8 QM answers (shards={shards})");
        assert_eq!(stats.execute_ns.count, stats.queries_served);
        let metrics = chaos.metrics();
        assert!(metrics.contains("xsact_shard_restarts 1"), "{metrics}");
        assert!(oracle.stats().shard_restarts == 0 && oracle.stats().shard_failed == 0);
    }
}

/// A shard panic fails only the query whose broadcast panicked. Query A
/// stalls shard 0 for 400 ms; meanwhile two other sessions submit distinct
/// queries B and C, which therefore wait for the execution lock behind it.
/// Shard 1's second call (the run of whichever of B and C takes the lock
/// first) panics: that query gets `ShardFailed`, the other runs on the recovered
/// pool and is byte-identical to sequential execution.
#[test]
fn a_shard_panic_fails_only_the_key_whose_broadcast_panicked() {
    let corpus = chaos_corpus(2);
    let server = CorpusServer::start(
        Arc::clone(&corpus),
        ServeConfig {
            faults: FaultPlan::parse("slow_execute:0@1x400,shard_panic:1@2").unwrap(),
            ..ServeConfig::default()
        },
    );
    let sequential = |text: &str| corpus.query(text).unwrap().ranking().render(4);
    let (a, b, c) = ("drama family", "comedy wedding", "action hero");
    let [first, second, third] = std::thread::scope(|scope| {
        let query = |text: &'static str| {
            let server = &server;
            scope.spawn(move || server.session().query(text).map(|answer| answer.ranking.render(4)))
        };
        let first = query(a);
        // The pause only lets A take the pool first; the 400 ms stall on
        // shard 0 then keeps B and C waiting behind it. Whatever the
        // timing, exactly one of B and C meets the panic: each is its own
        // broadcast, so a panic reaches no query but the one it hit.
        std::thread::sleep(Duration::from_millis(100));
        [first, query(b), query(c)].map(|handle| handle.join().unwrap())
    });
    assert_eq!(first.unwrap(), sequential(a), "the stalled query is answered");
    let (failed, answered): (Vec<_>, Vec<_>) =
        [(b, second), (c, third)].into_iter().partition(|(_, outcome)| outcome.is_err());
    assert_eq!((failed.len(), answered.len()), (1, 1), "{failed:?} {answered:?}");
    let err = failed[0].1.as_ref().unwrap_err();
    assert!(matches!(err, XsactError::ShardFailed { shard: 1, .. }), "{err}");
    let (text, outcome) = &answered[0];
    assert_eq!(outcome.as_ref().unwrap(), &sequential(text), "{text:?} ran on the recovered pool");
    let stats = server.stats();
    assert_eq!(stats.shard_failed, 1, "only the panicked key's member failed");
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(stats.queries_served, 2);
}

/// Admission at a non-zero capacity: with `queue_capacity: 1` one miss may
/// wait for the execution lock while another executes. Miss A stalls
/// shard 0 for 400 ms; B arrives 100 ms later and waits; C arrives 100 ms
/// after B and is turned away `Overloaded { depth: 1, capacity: 1 }`
/// without executing. The stall is not shard 0's busy time.
#[test]
fn a_miss_beyond_the_admission_capacity_is_overloaded() {
    let corpus = chaos_corpus(2);
    let server = CorpusServer::start(
        Arc::clone(&corpus),
        ServeConfig {
            queue_capacity: 1,
            faults: FaultPlan::parse("slow_execute:0@1x400").unwrap(),
            ..ServeConfig::default()
        },
    );
    let sequential = |text: &str| corpus.query(text).unwrap().ranking().render(4);
    let (a, b, c) = ("drama family", "comedy wedding", "action hero");
    let [first, second, third] = std::thread::scope(|scope| {
        let query = |text: &'static str| {
            let server = &server;
            scope.spawn(move || server.session().query(text).map(|answer| answer.ranking.render(4)))
        };
        let first = query(a);
        std::thread::sleep(Duration::from_millis(100));
        let second = query(b);
        std::thread::sleep(Duration::from_millis(100));
        [first, second, query(c)].map(|handle| handle.join().unwrap())
    });
    assert_eq!(first.unwrap(), sequential(a), "the executing miss is answered");
    assert_eq!(second.unwrap(), sequential(b), "the waiting miss is answered");
    let err = third.unwrap_err();
    assert!(matches!(err, XsactError::Overloaded { depth: 1, capacity: 1 }), "{err}");
    let stats = server.stats();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.queries_served, 2);
    // A shard's busy time is its search alone: the injected stall comes
    // before the clock starts.
    let metrics = server.metrics();
    let busy_max: u64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("xsact_shard_0_busy_ns_max "))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no shard 0 busy max in:\n{metrics}"));
    assert!(busy_max < 400_000_000, "the 400 ms stall was timed as busy: {busy_max} ns");
}

// ------------------------------------------------------ deadlines under load

/// `slow_execute` stalls a worker past the deadline: the answer is
/// computed but *discarded* at the post-execute check, the client gets a
/// typed `DeadlineExceeded`, and the next request is unaffected.
#[test]
fn slow_shard_trips_the_deadline_after_execution() {
    let corpus = chaos_corpus(2);
    let server = CorpusServer::start(
        Arc::clone(&corpus),
        ServeConfig {
            deadline: Some(Duration::from_millis(100)),
            faults: FaultPlan::parse("slow_execute@1x400").unwrap(),
            ..ServeConfig::default()
        },
    );
    let mut session = server.session();
    let err = session.query("drama family").unwrap_err();
    match err {
        XsactError::DeadlineExceeded { elapsed_ms, deadline_ms } => {
            assert_eq!(deadline_ms, 100);
            assert!(elapsed_ms >= 400, "the injected stall dominates: {elapsed_ms}ms");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    let stats = server.stats();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.queries_served, 0, "a late answer must be discarded, not served");
    assert_eq!(stats.e2e_ns.count, 0, "histograms record answered queries only");

    // The site fired once; the retry comes back well under the deadline
    // and byte-identical to sequential execution.
    let answer = session.query("drama family").unwrap();
    let sequential = corpus.query("drama family").unwrap().ranking().render(session.top());
    assert_eq!(answer.ranking.render(session.top()), sequential);
    assert_eq!(server.stats().queries_served, 1);
}

// -------------------------------------------------- crash-safe persistence

/// Scratch directory removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("xsact-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A save whose final rename fails — the target path is an existing,
/// non-empty directory — fails after the temp file is written and fsynced,
/// exactly where a crash would land. The error must be a typed `Io`, no
/// `*.tmp*` dropping may be left, and the obstacle is untouched; once it
/// is gone, the retry commits an index that loads.
#[test]
fn injected_save_error_never_leaves_a_torn_or_temporary_file() {
    let tmp = TempDir::new("io-error");
    let path = tmp.0.join("movies.xidx");
    std::fs::create_dir(&path).unwrap();
    std::fs::write(path.join("keep"), b"occupied").unwrap();
    let doc = || MoviesGen::new(MovieGenConfig { seed: 7, movies: 12, ..Default::default() });
    let wb = Workbench::from_document(doc().generate());

    let err = xsact::save_index_atomic(&wb, &path).expect_err("the rename must fail");
    assert!(matches!(err, XsactError::Io(_)), "{err}");
    assert_eq!(temp_files(&tmp.0), Vec::<PathBuf>::new(), "temp files leaked");
    assert!(path.is_dir(), "a failed save must not replace what sits at the target");
    assert_eq!(std::fs::read(path.join("keep")).unwrap(), b"occupied");

    std::fs::remove_dir_all(&path).unwrap();
    xsact::save_index_atomic(&wb, &path).expect("the retry commits");
    let mut f = std::fs::File::open(&path).unwrap();
    Workbench::from_persisted_index(doc().generate(), &mut f).expect("retried save loads cleanly");
}

/// Two servers booting on one `--index-dir` save the same paths at the
/// same time. Each save owns its temp file (pid + counter in the name), so
/// none truncates or renames away another's: every save succeeds, the
/// committed file is whole, and no temp file is left.
#[test]
fn concurrent_saves_of_one_path_never_collide() {
    let tmp = TempDir::new("concurrent-save");
    let path = tmp.0.join("movies.xidx");
    let doc =
        || MoviesGen::new(MovieGenConfig { seed: 7, movies: 40, ..Default::default() }).generate();
    let wb = Workbench::from_document(doc());
    let mut expected = Vec::new();
    wb.save_index(&mut expected).unwrap();

    let savers = 4;
    let start = std::sync::Barrier::new(savers);
    std::thread::scope(|scope| {
        for _ in 0..savers {
            scope.spawn(|| {
                start.wait();
                for round in 0..25 {
                    xsact::save_index_atomic(&wb, &path)
                        .unwrap_or_else(|e| panic!("save {round} collided: {e}"));
                }
            });
        }
    });
    assert_eq!(std::fs::read(&path).unwrap(), expected);
    assert_eq!(temp_files(&tmp.0), Vec::<PathBuf>::new(), "temp files leaked");
}

/// Every `*.tmp*` entry of `dir`.
fn temp_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().contains(".tmp")))
        .collect()
}

// --------------------------------------------------- connection resilience

/// One line-protocol exchange: send a request, read up to the terminator.
fn tcp_exchange(
    writer: &mut TcpStream,
    responses: &mut impl Iterator<Item = std::io::Result<String>>,
    request: &str,
) -> Vec<String> {
    writer.write_all(format!("{request}\n").as_bytes()).expect("request sent");
    let mut lines = Vec::new();
    loop {
        match responses.next() {
            Some(Ok(line)) if line == END_MARKER => return lines,
            Some(Ok(line)) => lines.push(line),
            other => panic!("connection ended mid-response: {other:?}"),
        }
    }
}

/// `drop_connection` severs the socket after the answer is computed but
/// before it is written — the victim sees EOF mid-exchange, like a
/// crashed peer, while the listener and every other client carry on.
#[test]
fn dropped_connection_is_isolated_to_one_client() {
    let server = CorpusServer::start(
        chaos_corpus(2),
        ServeConfig {
            faults: FaultPlan::parse("drop_connection@1").unwrap(),
            ..ServeConfig::default()
        },
    );
    let handle = serve_tcp(server, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();

    // A bystander connects first and stays idle while the victim burns
    // the armed site.
    let mut bystander = TcpStream::connect(addr).expect("bystander connects");

    let mut victim = TcpStream::connect(addr).expect("victim connects");
    victim.write_all(b"QUERY drama family\n").expect("victim request");
    let mut victim_lines = BufReader::new(victim.try_clone().unwrap()).lines();
    let mut saw_terminator = false;
    for line in victim_lines.by_ref() {
        let Ok(line) = line else { break };
        if line == END_MARKER {
            saw_terminator = true;
            break;
        }
    }
    assert!(!saw_terminator, "the injected drop must end the stream before the terminator");

    // The bystander and a fresh client on the same listener are unaffected.
    let mut responses = BufReader::new(bystander.try_clone().unwrap()).lines();
    let resp = tcp_exchange(&mut bystander, &mut responses, "QUERY comedy wedding");
    assert!(resp.first().is_some_and(|l| l.starts_with("OK ")), "{resp:?}");
    let mut ok = TcpStream::connect(addr).expect("second client connects");
    let mut responses = BufReader::new(ok.try_clone().unwrap()).lines();
    let resp = tcp_exchange(&mut ok, &mut responses, "QUERY drama family");
    assert!(resp.first().is_some_and(|l| l.starts_with("OK ")), "{resp:?}");
    drop((bystander, ok));

    handle.shutdown();
    handle.wait();
}

// ----------------------------------------------------- result-page cache

/// A `ShardFailed` answer must never be cached: after the panic and recovery,
/// the same query re-executes (a cache miss) and succeeds — an error can
/// never be replayed out of the cache.
#[test]
fn shard_failure_is_never_cached() {
    let corpus = chaos_corpus(2);
    let server = CorpusServer::start(
        Arc::clone(&corpus),
        ServeConfig {
            faults: FaultPlan::parse("shard_panic:1@1").unwrap(),
            ..ServeConfig::default()
        },
    );
    let mut session = server.session();
    let err = session.query("drama family").unwrap_err();
    assert!(matches!(err, XsactError::ShardFailed { shard: 1, .. }), "{err}");
    // The retry misses (nothing was cached for the failed round) and is
    // byte-identical to sequential execution on the recovered pool.
    let answer = session.query("drama family").unwrap();
    let sequential = corpus.query("drama family").unwrap().ranking().render(session.top());
    assert_eq!(answer.ranking.render(session.top()), sequential);
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 0, "the failed round must not produce a hit");
    assert_eq!(stats.cache_misses, 2, "both submissions were fresh lookups");
    assert_eq!(stats.queries_served, 1, "only the successful retry counts as served");
}
