//! Integration tests of the observability layer: tracing never changes
//! ranked bytes (single-document pipeline and corpus fan-out at several
//! shard counts), the serving metrics exposition over both the `METRICS`
//! verb and the plain-HTTP `/metrics` endpoint, and exact conservation of
//! the server's counter totals under concurrent sessions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use xsact::data::movies::qm_queries;
use xsact::prelude::*;
use xsact::serve::{CorpusServer, ServeConfig};

// -------------------------------------------------- tracing is observational

#[test]
fn tracing_never_changes_workbench_bytes() {
    let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
    let sink = TraceSink::new();
    let traced = wb
        .query_traced("TomTom GPS", &sink)
        .unwrap()
        .take(4)
        .size_bound(7)
        .compare(Algorithm::MultiSwap)
        .unwrap()
        .table();
    let plain = wb
        .query("TomTom GPS")
        .unwrap()
        .take(4)
        .size_bound(7)
        .compare(Algorithm::MultiSwap)
        .unwrap()
        .table();
    assert_eq!(traced, plain, "tracing must never change the comparison table");

    let trace = sink.take();
    let labels: Vec<&str> = trace.spans.iter().map(|s| s.label.as_str()).collect();
    for stage in ["parse", "plan", "slca-stream"] {
        assert!(labels.contains(&stage), "missing {stage:?} span in {labels:?}");
    }
    assert!(trace.spans.iter().any(|s| s.nanos > 0), "spans carry monotonic timings");
}

#[test]
fn tracing_never_changes_ranked_top_k_bytes() {
    let wb = Workbench::from_document(xsact::data::fixtures::figure1_document());
    let sink = TraceSink::new();
    let listing = |query: CorpusQuery<'_>| -> Vec<String> {
        let hits = query.ranked(true).take(2).selection().unwrap();
        hits.iter()
            .map(|hit| format!("{} {:.6}", hit.result.label, hit.score.as_ref().unwrap().score))
            .collect()
    };
    let traced = listing(wb.query_traced("TomTom GPS", &sink).unwrap());
    let plain = listing(wb.query("TomTom GPS").unwrap());
    assert_eq!(traced, plain, "tracing must never change the ranked listing");
    let labels: Vec<String> = sink.take().spans.into_iter().map(|s| s.label).collect();
    assert!(labels.iter().any(|l| l == "rank"), "bounded path records a rank span: {labels:?}");
}

#[test]
fn tracing_never_changes_corpus_bytes_at_any_shard_count() {
    let mut corpus = Corpus::synthetic_movies(8, 60, 42);
    for shards in [1usize, 2, 8] {
        corpus.set_shards(shards);
        let sink = TraceSink::new();
        let traced_query = corpus.query_traced("drama family", &sink).unwrap().take(4);
        let traced = (
            traced_query.ranking().render(usize::MAX),
            traced_query.compare(Algorithm::MultiSwap).unwrap().table(),
        );
        let plain_query = corpus.query("drama family").unwrap().take(4);
        let plain = (
            plain_query.ranking().render(usize::MAX),
            plain_query.compare(Algorithm::MultiSwap).unwrap().table(),
        );
        assert_eq!(traced, plain, "tracing changed corpus bytes at {shards} shards");

        // The shards' spans come back with their hits and are recorded in
        // shard order, whichever shard finished first.
        let labels: Vec<String> = sink.take().spans.into_iter().map(|s| s.label).collect();
        let mut want = vec!["parse".to_owned()];
        want.extend((0..shards).map(|shard| format!("shard {shard}")));
        want.push("merge".to_owned());
        assert_eq!(labels, want, "at {shards} shards");
    }
}

// ------------------------------------------------------- metrics exposition

#[test]
fn metrics_verb_and_http_endpoint_expose_the_same_live_registry() {
    let corpus = Arc::new(Corpus::synthetic_movies(4, 30, 42).with_shards(2));
    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    let mut endpoint = server.serve_metrics("127.0.0.1:0").expect("binds an ephemeral port");

    let mut session = server.session();
    session.query("drama family").unwrap();
    session.query("drama").unwrap();

    // The verb-side exposition (what `METRICS` serves).
    let exposition = server.metrics();
    assert!(exposition.contains("xsact_queries_served 2"), "{exposition}");

    // The HTTP side scrapes the same counters, so the same live values.
    let scrape = |path: &str| {
        let mut stream = TcpStream::connect(endpoint.addr()).expect("connects");
        stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };
    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("has a body");
    assert!(body.contains("xsact_queries_served 2"), "{body}");
    // The acceptance contract: latency histogram counts equal queries served.
    for metric in
        ["xsact_queue_wait_ns_count 2", "xsact_execute_ns_count 2", "xsact_e2e_ns_count 2"]
    {
        assert!(body.contains(metric), "missing {metric:?} in:\n{body}");
    }
    assert!(scrape("/else").starts_with("HTTP/1.0 404 "), "unknown paths are 404");

    endpoint.shutdown();
}

// ------------------------------------------------- conservation under load

/// Property: after every concurrent session joins, the counters' totals
/// are exactly conserved — nothing lost to races, nothing double-counted.
#[test]
fn concurrent_sessions_conserve_registry_totals_exactly() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 10;
    let corpus = Arc::new(Corpus::synthetic_movies(6, 40, 42).with_shards(2));
    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    let mix: Vec<String> = qm_queries().into_iter().map(|(_, text)| text).collect();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            let mix = &mix;
            scope.spawn(move || {
                let mut session = server.session();
                for i in 0..PER_CLIENT {
                    session.query(&mix[(i + c) % mix.len()]).unwrap();
                }
            });
        }
    });
    let total = (CLIENTS * PER_CLIENT) as u64;
    let stats = server.stats();
    assert_eq!(stats.queries_served, total);
    assert_eq!(stats.queue_wait_ns.count, total, "one queue-wait observation per query");
    assert_eq!(stats.execute_ns.count, total, "one execute observation per query");
    assert_eq!(stats.e2e_ns.count, total, "one e2e observation per query");
    assert_eq!(stats.batch_size.count, stats.batches, "one batch-size observation per batch");
    // Every served query was answered exactly one way: by its own
    // execution (a cache miss) or straight from the result-page cache.
    assert_eq!(
        stats.batch_size.sum + stats.cache_hits,
        total,
        "batch sizes plus cache hits sum to the queries served"
    );
    assert_eq!(stats.cache_hits + stats.cache_misses, total, "every query hit or missed");
    assert!(stats.cache_hits > 0, "a repeated mix must hit the cache");
    assert_eq!(stats.rejected_overload, 0, "blocking clients never overflow the queue");
}
