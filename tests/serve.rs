//! Integration tests of the serving runtime: the determinism invariant
//! (pooling and caching never change bytes), one execution per served
//! miss, drain-on-shutdown, and the TCP line protocol end to end on a
//! loopback socket.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use xsact::data::movies::qm_queries;
use xsact::prelude::*;
use xsact::serve::{serve_tcp, END_MARKER};

/// The synthetic fleet every test serves: six distinct movie documents.
fn fleet(shards: usize) -> Arc<Corpus> {
    Arc::new(Corpus::synthetic_movies(6, 40, 42).with_shards(shards))
}

/// The QM1–QM8 query texts of the paper's movie workload.
fn qm_mix() -> Vec<String> {
    qm_queries().into_iter().map(|(_, text)| text).collect()
}

// ------------------------------------------------ execution determinism

/// The tentpole invariant, pinned: N concurrent client threads submitting a
/// shuffled mix of QM1–QM8 receive responses byte-identical to sequential
/// one-query-at-a-time execution — at 1, 2, and 8 shards, under whatever
/// interleaving the pool lock happens to grant.
#[test]
fn concurrent_responses_match_sequential_bytes() {
    const CLIENTS: u64 = 6;
    const PASSES: usize = 3;
    let k = 4; // ServeConfig::default().default_top
    for shards in [1usize, 2, 8] {
        let corpus = fleet(shards);
        // Sequential oracle: the in-process query, one query at a time.
        let expected: Vec<(String, String)> = qm_mix()
            .into_iter()
            .map(|text| {
                let rendered = corpus.query(&text).unwrap().ranking().render(k);
                (text, rendered)
            })
            .collect();
        let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let server = &server;
                let expected = &expected;
                scope.spawn(move || {
                    let mut session = server.session();
                    // Each client shuffles its own submission order, so the
                    // pool runs interleavings the oracle never ran.
                    let mut rng = StdRng::seed_from_u64(client);
                    let mut order: Vec<usize> = (0..expected.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.random_range(0..=i));
                    }
                    for _ in 0..PASSES {
                        for &i in &order {
                            let (text, want) = &expected[i];
                            let answer = session.query(text).unwrap();
                            assert_eq!(
                                &answer.ranking.render(k),
                                want,
                                "shards {shards}, client {client}, query {text:?}"
                            );
                        }
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(
            stats.queries_served,
            CLIENTS * PASSES as u64 * expected.len() as u64,
            "every submission answered exactly once at {shards} shards"
        );
        assert!(stats.batches >= 1 && stats.batches <= stats.queries_served);
    }
}

/// A served miss is one execution: the bounded query's. At 1, 2 and 8
/// shards, a miss at top-k 1, 4 and 10 answers the hits of
/// `corpus.query(text).take(k).selection()` at that query's executor
/// cost, which is the sum of its documents' bounded searches. Then eight sessions each send ten queries — one text all of them
/// share, interleaved with QM texts — with the page cache on and off.
/// Every answer is the sequential render, and the counters balance
/// exactly: each cache miss (each query, with the cache off) is one
/// execution that answers one query, and every other query is a cache
/// hit.
#[test]
fn each_served_miss_is_one_execution() {
    const SESSIONS: usize = 8;
    const PER_SESSION: usize = 10;
    let k = 4; // ServeConfig::default().default_top
    let shared = "drama family";
    let mix = qm_mix();
    let script = |session: usize| -> Vec<&str> {
        (0..PER_SESSION)
            .map(|i| if i % 2 == 0 { shared } else { &mix[(session + i / 2) % mix.len()] })
            .collect()
    };
    for shards in [1usize, 2, 8] {
        let corpus = fleet(shards);
        for top in [1, 4, 10] {
            let uncached =
                ServeConfig { cache_entries: 0, default_top: top, ..ServeConfig::default() };
            let server = CorpusServer::start(Arc::clone(&corpus), uncached);
            let mut session = server.session();
            for text in &mix {
                let answer = session.query(text).unwrap();
                let query = corpus.query(text).unwrap().take(top);
                let context = format!("shards {shards}, top {top}, query {text:?}");
                assert_eq!(answer.ranking.hits, query.selection().unwrap(), "{context}");
                assert_eq!(answer.stats, query.executor_stats(), "{context}");
                // Both cost exactly their documents' bounded searches.
                let parsed = Query::parse(text);
                let searched = (0..corpus.len() as u32)
                    .map(|d| corpus.workbench(DocId(d)).engine().search_top_k(&parsed, top, None).1)
                    .fold(ExecutorStats::default(), |sum, stats| sum + stats);
                assert_eq!(answer.stats, searched, "{context}");
            }
        }
        let sequential = |text: &str| corpus.query(text).unwrap().ranking().render(k);
        for cache_entries in [0usize, 1024] {
            let server = CorpusServer::start(
                Arc::clone(&corpus),
                ServeConfig { cache_entries, ..ServeConfig::default() },
            );
            std::thread::scope(|scope| {
                for session in 0..SESSIONS {
                    let (server, script, sequential) = (&server, &script, &sequential);
                    scope.spawn(move || {
                        let mut client = server.session();
                        for text in script(session) {
                            let answer = client.query(text).unwrap();
                            assert_eq!(
                                answer.ranking.render(k),
                                sequential(text),
                                "shards {shards}, cache {cache_entries}, query {text:?}"
                            );
                        }
                    });
                }
            });
            let stats = server.stats();
            let context = format!("shards {shards}, cache {cache_entries}: {stats:?}");
            assert_eq!(stats.queries_served, (SESSIONS * PER_SESSION) as u64, "{context}");
            assert_eq!(
                (stats.shard_failed, stats.rejected_overload, stats.rejected_deadline),
                (0, 0, 0),
                "{context}"
            );
            let executions =
                if cache_entries > 0 { stats.cache_misses } else { stats.queries_served };
            assert_eq!(stats.batches, executions, "one execution per miss: {context}");
            assert_eq!(stats.batch_size.max, 1, "{context}");
            assert_eq!(stats.batch_size.sum + stats.cache_hits, stats.queries_served, "{context}");
        }
    }
}

// --------------------------------------------------------- shutdown drains

/// Shutdown under load: every submission either completes with correct
/// bytes or is rejected with the typed overload error — nothing hangs,
/// nothing is silently dropped, and the counters account for every query.
#[test]
fn shutdown_drains_admitted_work_and_rejects_the_rest() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20;
    let corpus = fleet(2);
    let expected = corpus.query("drama family").unwrap().ranking().render(4);
    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let server = &server;
            let expected = &expected;
            scope.spawn(move || {
                let mut session = server.session();
                for _ in 0..PER_CLIENT {
                    match session.query("drama family") {
                        Ok(answer) => assert_eq!(&answer.ranking.render(4), expected),
                        Err(XsactError::Overloaded { .. }) => {}
                        Err(other) => panic!("unexpected rejection: {other}"),
                    }
                }
            });
        }
        // Shut down mid-storm; admitted work must still be answered.
        server.shutdown();
    });
    let stats = server.stats();
    assert_eq!(
        stats.queries_served + stats.rejected_overload,
        (CLIENTS * PER_CLIENT) as u64,
        "every submission either served or typed-rejected"
    );
}

// ------------------------------------------------------------ TCP protocol

/// A line-protocol client for the tests: send one request, collect the
/// response lines up to (excluding) the `.` terminator.
fn roundtrip(
    writer: &mut TcpStream,
    responses: &mut impl Iterator<Item = std::io::Result<String>>,
    request: &str,
) -> Vec<String> {
    writer.write_all(format!("{request}\n").as_bytes()).expect("request sent");
    read_response(responses)
}

/// Collects one response up to (excluding) the `.` terminator.
fn read_response(responses: &mut impl Iterator<Item = std::io::Result<String>>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        match responses.next() {
            Some(Ok(line)) if line == END_MARKER => return lines,
            Some(Ok(line)) => lines.push(line),
            other => panic!("connection ended mid-response: {other:?}"),
        }
    }
}

#[test]
fn tcp_line_protocol_end_to_end() {
    let corpus = fleet(2);
    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds an ephemeral port");

    let stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut responses = BufReader::new(stream).lines();

    // QUERY: bytes identical to the sequential engine, prefixed OK <n>.
    let expected = corpus.query("drama family").unwrap().ranking().render(4);
    let resp = roundtrip(&mut writer, &mut responses, "QUERY drama family");
    assert_eq!(resp[0], format!("OK {}", expected.lines().count()));
    assert_eq!(resp[1..].join("\n") + "\n", expected);

    // TOP changes the session's k; the listing shrinks accordingly.
    assert_eq!(roundtrip(&mut writer, &mut responses, "TOP 2"), vec!["OK top=2"]);
    let bounded = roundtrip(&mut writer, &mut responses, "QUERY drama family");
    assert_eq!(bounded[0], "OK 2");
    assert_eq!(bounded.len(), 3, "header plus exactly two hits");
    assert_eq!(bounded[1..], resp[1..=2], "top-2 is a prefix of the full listing");

    // STATS reports the server counters.
    let stats = roundtrip(&mut writer, &mut responses, "STATS");
    assert_eq!(stats[0], "OK stats");
    assert!(stats.iter().any(|l| l == "queries_served 2"), "{stats:?}");
    assert!(stats.iter().any(|l| l.starts_with("batch_size_hist ")), "{stats:?}");
    assert!(stats.iter().any(|l| l.starts_with("e2e_us count:2 ")), "{stats:?}");

    // METRICS exposes the same counters in Prometheus text format.
    let metrics = roundtrip(&mut writer, &mut responses, "METRICS");
    assert_eq!(metrics[0], "OK metrics");
    assert!(metrics.iter().any(|l| l == "xsact_queries_served 2"), "{metrics:?}");
    assert!(metrics.iter().any(|l| l == "xsact_e2e_ns_count 2"), "{metrics:?}");

    // Typed protocol errors: unknown verbs and unindexable queries.
    let bad = roundtrip(&mut writer, &mut responses, "EXPLODE now");
    assert!(bad[0].starts_with("ERR BAD_REQUEST "), "{bad:?}");
    let empty = roundtrip(&mut writer, &mut responses, "QUERY ???");
    assert!(empty[0].starts_with("ERR EMPTY_QUERY "), "{empty:?}");
    let top_bad = roundtrip(&mut writer, &mut responses, "TOP many");
    assert!(top_bad[0].starts_with("ERR BAD_REQUEST "), "{top_bad:?}");
    let top_huge = roundtrip(&mut writer, &mut responses, "TOP 1001");
    assert_eq!(top_huge, vec!["ERR BAD_REQUEST TOP takes at most 1000, got 1001"]);

    // SHUTDOWN answers, then the whole front end winds down.
    let bye = roundtrip(&mut writer, &mut responses, "SHUTDOWN");
    assert_eq!(bye, vec!["OK shutting down"]);
    let final_stats = handle.wait();
    assert_eq!(final_stats.queries_served, 2);
}

#[test]
fn tcp_sessions_are_per_connection() {
    let server = CorpusServer::start(fleet(1), ServeConfig::default());
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");

    // Connection A narrows its top-k; connection B must be unaffected.
    let a = TcpStream::connect(handle.addr()).unwrap();
    let mut a_writer = a.try_clone().unwrap();
    let mut a_resp = BufReader::new(a).lines();
    roundtrip(&mut a_writer, &mut a_resp, "TOP 1");
    let narrowed = roundtrip(&mut a_writer, &mut a_resp, "QUERY drama family");
    assert_eq!(narrowed[0], "OK 1");

    let b = TcpStream::connect(handle.addr()).unwrap();
    let mut b_writer = b.try_clone().unwrap();
    let mut b_resp = BufReader::new(b).lines();
    let full = roundtrip(&mut b_writer, &mut b_resp, "QUERY drama family");
    assert_eq!(full[0], "OK 4", "connection B keeps the default top-k");

    assert_eq!(roundtrip(&mut a_writer, &mut a_resp, "QUIT"), vec!["OK bye"]);
    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.queries_served, 2);
}

#[test]
fn tcp_handle_shutdown_stops_an_idle_server() {
    let server = CorpusServer::start(fleet(1), ServeConfig::default());
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    // A connected-but-idle client must not block the wind-down.
    let _idle = TcpStream::connect(handle.addr()).expect("connects");
    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.queries_served, 0);
}

// ----------------------------------------------------- result-page cache

/// The cache half of the tentpole invariant, pinned: a cached answer is
/// byte-identical to a fresh one, at every shard count, whether the cache
/// is off, tiny (evicting constantly), or large — under concurrent
/// shuffled clients replaying the mix, so hits, misses, evictions, and
/// concurrent misses on one key all interleave.
#[test]
fn cache_matrix_never_changes_bytes() {
    const CLIENTS: u64 = 4;
    const PASSES: usize = 3;
    let k = 4; // ServeConfig::default().default_top
    for shards in [1usize, 2, 8] {
        // (entries, bytes): disabled, tiny (2 pages for 8 keys — every
        // pass evicts), effectively unbounded.
        for (entries, bytes) in [(0usize, 0usize), (2, 0), (1024, 0)] {
            let corpus = fleet(shards);
            let expected: Vec<(String, String)> = qm_mix()
                .into_iter()
                .map(|text| {
                    let rendered = corpus.query(&text).unwrap().ranking().render(k);
                    (text, rendered)
                })
                .collect();
            let server = CorpusServer::start(
                Arc::clone(&corpus),
                ServeConfig {
                    cache_entries: entries,
                    cache_bytes: bytes,
                    ..ServeConfig::default()
                },
            );
            std::thread::scope(|scope| {
                for client in 0..CLIENTS {
                    let server = &server;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut session = server.session();
                        let mut rng = StdRng::seed_from_u64(client * 31 + entries as u64);
                        let mut order: Vec<usize> = (0..expected.len()).collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.random_range(0..=i));
                        }
                        for _ in 0..PASSES {
                            for &i in &order {
                                let (text, want) = &expected[i];
                                let answer = session.query(text).unwrap();
                                assert_eq!(
                                    &answer.ranking.render(k),
                                    want,
                                    "shards {shards}, cache {entries}, query {text:?}"
                                );
                            }
                        }
                    });
                }
            });
            let stats = server.stats();
            let total = CLIENTS * PASSES as u64 * expected.len() as u64;
            assert_eq!(stats.queries_served, total, "shards {shards}, cache {entries}");
            if entries == 0 {
                assert_eq!(
                    (stats.cache_hits, stats.cache_misses, stats.cache_evictions),
                    (0, 0, 0),
                    "a disabled cache counts nothing"
                );
            } else {
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    total,
                    "every query hit or missed (shards {shards}, cache {entries})"
                );
            }
            if entries == 2 {
                assert!(
                    stats.cache_evictions > 0,
                    "two pages for eight keys must evict (shards {shards})"
                );
            }
            if entries == 1024 {
                // A miss inserts its page before it answers, so once a
                // client has an answer the page is cached: only each
                // client's first pass can miss a key.
                assert!(
                    stats.cache_misses <= CLIENTS * expected.len() as u64,
                    "misses {} exceed first-pass worst case (shards {shards})",
                    stats.cache_misses
                );
                assert_eq!(stats.cache_evictions, 0, "an unbounded cache never evicts");
            }
        }
    }
}

/// A cache hit must skip the shard pool entirely: executor work does not
/// grow, yet the query is served and charged to the session budget.
#[test]
fn cache_hits_skip_the_shard_pool() {
    let corpus = fleet(2);
    let query = corpus.query("drama family").unwrap();
    query.selection().unwrap();
    let cost = query.executor_stats().postings_scanned;
    // A budget one entry above the miss's cost admits the hit after it,
    // and the hit's charge then exhausts it.
    let config = ServeConfig { budget: Some(cost + 1), ..ServeConfig::default() };
    let server = CorpusServer::start(corpus, config);
    let mut session = server.session();
    session.query("drama family").unwrap();
    let after_miss = server.stats();
    session.query("drama family").unwrap();
    let after_hit = server.stats();
    assert_eq!(after_hit.postings_scanned, after_miss.postings_scanned, "a hit executes nothing");
    assert_eq!(after_hit.batches, after_miss.batches, "a hit forms no batch");
    assert_eq!(after_hit.queries_served, after_miss.queries_served + 1);
    match session.query("drama family") {
        Err(XsactError::BudgetExceeded { spent, .. }) => {
            assert_eq!(spent, cost * 2, "the cached answer still charges the session budget")
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

/// A page is rendered once per executed key, never per reply: a miss
/// carries the full wire reply for its top-k, the next identical query is
/// a cache hit returning that very allocation, and with the cache off
/// every answer still carries the right bytes.
#[test]
fn reply_bytes_are_rendered_once_per_key() {
    for shards in [1usize, 2, 8] {
        let corpus = fleet(shards);
        for cache_entries in [1024usize, 0] {
            for k in [1usize, 4, 10] {
                let server = CorpusServer::start(
                    Arc::clone(&corpus),
                    ServeConfig { cache_entries, default_top: k, ..ServeConfig::default() },
                );
                let mut session = server.session();
                let miss = session.query("drama family").unwrap();
                let shown = miss.ranking.hits.len().min(k);
                let want = format!("OK {shown}\n{}.\n", miss.ranking.render(k));
                assert_eq!(*miss.reply, *want.as_bytes(), "shards {shards}, k {k}");
                let hits_before = server.stats().cache_hits;
                let again = session.query("drama family").unwrap();
                assert_eq!(*again.reply, *want.as_bytes(), "shards {shards}, k {k}");
                if cache_entries > 0 {
                    assert_eq!(server.stats().cache_hits, hits_before + 1, "the replay hit");
                    assert!(
                        Arc::ptr_eq(&miss.reply, &again.reply),
                        "a hit returns the miss's bytes (shards {shards}, k {k})"
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------ line framing

/// How a client fragments its writes is invisible to the protocol: 16
/// concurrent connections, half of them dribbling every request one byte
/// per write (CRLF line endings, a pause mid-line) and half sending whole
/// lines, all get the bytes the sequential oracle produced — the framer
/// reassembles each partial line, and a dribbling neighbour delays nobody.
#[test]
fn fragmented_requests_are_framed_like_whole_lines() {
    const CONNS: usize = 16;
    let corpus = fleet(2);
    let mix = qm_mix();
    let expected: Vec<String> =
        mix.iter().map(|text| corpus.query(text).unwrap().ranking().render(4)).collect();
    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let handle = &handle;
            let mix = &mix;
            let expected = &expected;
            scope.spawn(move || {
                let stream = TcpStream::connect(handle.addr()).expect("connects");
                // One segment per write, so the server really sees fragments.
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clones");
                let mut responses = BufReader::new(stream).lines();
                for pass in 0..2 {
                    let i = (conn + pass) % mix.len();
                    let request = format!("QUERY {}\r\n", mix[i]);
                    if conn % 2 == 0 {
                        let pause_at = request.len() / 2 + conn % 3;
                        for (at, byte) in request.bytes().enumerate() {
                            if at == pause_at {
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            writer.write_all(&[byte]).unwrap();
                        }
                    } else {
                        writer.write_all(request.as_bytes()).unwrap();
                    }
                    let body = read_response(&mut responses);
                    let want = &expected[i];
                    assert_eq!(body[0], format!("OK {}", want.lines().count()));
                    assert_eq!(body[1..].join("\n") + "\n", *want, "connection {conn}");
                }
                writer.write_all(b"QUIT\n").unwrap();
            });
        }
    });
    handle.shutdown();
    let stats = handle.wait();
    assert_eq!(stats.queries_served, (CONNS * 2) as u64);
}

/// Reads one raw response, end-marker line included.
fn read_reply(reader: &mut impl BufRead) -> Vec<u8> {
    let mut reply = Vec::new();
    loop {
        let start = reply.len();
        let read = reader.read_until(b'\n', &mut reply).expect("response read");
        assert!(read > 0, "connection ended mid-response: {:?}", String::from_utf8_lossy(&reply));
        if reply[start..] == *format!("{END_MARKER}\n").as_bytes() {
            return reply;
        }
    }
}

/// Pipelining: lines that arrive in one write are answered in order, each
/// with the bytes it gets when sent one round trip at a time (a miss, its
/// hit, a verb, a miss at the new top-k, a protocol error, a typed error).
#[test]
fn pipelined_requests_are_answered_in_order_like_round_trips() {
    const LINES: [&str; 6] = [
        "QUERY drama family",
        "QUERY drama family",
        "TOP 2",
        "QUERY drama family",
        "BOGUS verb",
        "QUERY ???",
    ];
    // One fresh server per run, so both see the same cache misses and hits.
    let run = |pipelined: bool| {
        let server = CorpusServer::start(fleet(2), ServeConfig::default());
        let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
        let stream = TcpStream::connect(handle.addr()).expect("connects");
        // A server that waited for more input before answering a buffered
        // line would stall here: fail instead of hanging.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let replies: Vec<Vec<u8>> = if pipelined {
            let batch: String = LINES.iter().map(|line| format!("{line}\n")).collect();
            writer.write_all(batch.as_bytes()).unwrap();
            LINES.iter().map(|_| read_reply(&mut reader)).collect()
        } else {
            LINES
                .iter()
                .map(|line| {
                    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
                    read_reply(&mut reader)
                })
                .collect()
        };
        writer.write_all(b"QUIT\n").unwrap();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, format!("OK bye\n{END_MARKER}\n").as_bytes(), "nothing else was sent");
        handle.shutdown();
        let stats = handle.wait();
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 1), "pipelined: {pipelined}");
        replies
    };
    let pipelined = run(true);
    let round_trips = run(false);
    let text: Vec<_> = pipelined.iter().map(|r| String::from_utf8_lossy(r)).collect();
    assert!(text[0].starts_with("OK 4\n") && text[0] == text[1], "{text:?}");
    assert_eq!(text[2], format!("OK top=2\n{END_MARKER}\n"));
    assert!(text[3].starts_with("OK 2\n"), "{text:?}");
    assert!(text[4].starts_with("ERR BAD_REQUEST "), "{text:?}");
    assert!(text[5].starts_with("ERR EMPTY_QUERY "), "{text:?}");
    assert_eq!(pipelined, round_trips);
}
