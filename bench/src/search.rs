//! The three wire workloads: ranked pages over loopback TCP from the
//! unmodified `xsact serve` binary, one closed-loop connection.
//!
//! They share one fixture (16 synthetic movie documents of 1000 movies,
//! seed 42, two shards, `TOP 10`) and differ only in what the page cache is
//! allowed to do, so a change shows on the workload that exercises its
//! mechanism and must not show on the one that bypasses it.

use crate::report::Report;
use crate::stream::{search_pool, OpStream, POOL_SEED};
use crate::trace::Tracer;
use crate::window::{Calibrator, Cpu, Window};
use crate::wire::{parse_exposition, Client, ServerChild};
use crate::{procfs, stats, Ctx};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use xsact::corpus::DocId;
use xsact::index::Query;
use xsact::{Corpus, CorpusServer, ServeConfig};
use xsact_serve::{LineBuffer, Request};

const SHARDS: usize = 2;
const TOP: usize = 10;
const ZIPF_S: f64 = 1.1;

struct Spec {
    /// `--cache-entries` of the server (0 turns the page cache off).
    cache_entries: usize,
    /// Size of the query pool the stream draws from.
    keys: usize,
    zipf: bool,
    /// One untimed pass over every key first, so the timed ops all hit.
    warm: bool,
    /// Ops the traced run replays (fixed, so its counters repeat exactly).
    traced_ops: usize,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "search_uncached" => {
            Spec { cache_entries: 0, keys: 512, zipf: false, warm: false, traced_ops: 500 }
        }
        "search_cached" => {
            Spec { cache_entries: 1024, keys: 256, zipf: true, warm: true, traced_ops: 5000 }
        }
        "search_churn" => {
            Spec { cache_entries: 128, keys: 512, zipf: false, warm: false, traced_ops: 1200 }
        }
        other => unreachable!("{other} is not a search workload"),
    }
}

/// `(documents, movies per document)` of the fixture.
fn fixture(ctx: &Ctx) -> (usize, usize) {
    if ctx.quick {
        (4, 60)
    } else {
        (16, 1000)
    }
}

fn server_args(ctx: &Ctx, spec: &Spec) -> Vec<String> {
    let (docs, movies) = fixture(ctx);
    let mut args: Vec<String> = [
        ("--docs", docs),
        ("--movies", movies),
        ("--seed", POOL_SEED as usize),
        ("--shards", SHARDS),
        ("--cache-entries", spec.cache_entries),
    ]
    .iter()
    .flat_map(|(flag, value)| [(*flag).to_owned(), value.to_string()])
    .collect();
    if ctx.mux {
        args.push("--mux".to_owned());
    }
    args
}

fn corpus(ctx: &Ctx) -> Corpus {
    let (docs, movies) = fixture(ctx);
    Corpus::synthetic_movies(docs, movies, POOL_SEED).with_shards(SHARDS)
}

fn stream(ctx: &Ctx, spec: &Spec) -> OpStream {
    if spec.zipf {
        OpStream::zipf(ctx.seed, spec.keys, ZIPF_S)
    } else {
        OpStream::uniform(ctx.seed, spec.keys)
    }
}

/// The page the server must answer `query` with under `TOP 10`, computed
/// here from the same fixture by the full (unbounded, scoped fan-out)
/// ranking — an independent path from the pooled top-k one the server runs.
fn expected_page(corpus: &Corpus, query: &str) -> Vec<u8> {
    let pipeline = corpus.query(query).expect("pool queries are never empty");
    let ranking = pipeline.ranking();
    let shown = ranking.hits.len().min(TOP);
    format!("OK {shown}\n{}", ranking.render(TOP)).into_bytes()
}

fn check_page(got: io::Result<&[u8]>, want: &[u8], query: &str) -> Option<String> {
    match got {
        Ok(body) if body == want => None,
        Ok(body) => Some(format!(
            "QUERY {query:?} answered {:?}, expected {:?}",
            String::from_utf8_lossy(body),
            String::from_utf8_lossy(want)
        )),
        Err(e) => Some(format!("QUERY {query:?} failed: {e}")),
    }
}

fn set_top(client: &mut Client) -> io::Result<()> {
    let reply = client.request(&format!("TOP {TOP}"))?;
    if reply == format!("OK top={TOP}\n").as_bytes() {
        Ok(())
    } else {
        Err(io::Error::other(format!("TOP answered {:?}", String::from_utf8_lossy(reply))))
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let spec = spec(&ctx.workload);
    if ctx.traced {
        run_traced(ctx, &spec, report)
    } else {
        run_untraced(ctx, &spec, report)
    }
}

/// Server-side counters that must agree with what the client did.
fn check_conservation(
    report: &mut Report,
    metrics: &HashMap<String, f64>,
    spec: &Spec,
    ops: u64,
    timed_ops: u64,
) {
    let get = |name: &str| metrics.get(name).copied().unwrap_or(-1.0);
    let mut law = |what: &str, holds: bool| {
        if !holds {
            report.violation(what.to_owned());
        }
    };
    let served = get("xsact_queries_served");
    law(&format!("queries_served {served} != {ops} ops sent"), served == ops as f64);
    let (hits, misses) = (get("xsact_cache_hits"), get("xsact_cache_misses"));
    let lookups = if spec.cache_entries > 0 { ops as f64 } else { 0.0 };
    law(
        &format!("cache_hits {hits} + cache_misses {misses} != {lookups}"),
        hits + misses == lookups,
    );
    if spec.warm {
        law(
            &format!("warmed cache gave {hits} hits for {timed_ops} timed ops"),
            hits == timed_ops as f64,
        );
    }
    for name in ["overload", "budget", "deadline"] {
        let rejected = get(&format!("xsact_rejected_{name}"));
        law(&format!("rejected_{name} {rejected}"), rejected == 0.0);
    }
    law("a shard failed", get("xsact_shard_failed") == 0.0 && get("xsact_shard_restarts") == 0.0);
}

fn run_untraced(ctx: &Ctx, spec: &Spec, report: &mut Report) -> io::Result<()> {
    let pool = search_pool(spec.keys);
    let oracle = corpus(ctx);
    let mut expected: Vec<Vec<u8>> = pool.iter().map(|q| expected_page(&oracle, q)).collect();
    drop(oracle);
    if ctx.inject_wrong_expectation {
        expected[0][0] ^= 1;
    }

    // Set-up: boot the server (corpus generation, index build, listen)
    // several times; the last boot is the one the ops run against.
    let args = server_args(ctx, spec);
    let mut calibrator = Calibrator::default();
    let mut setup_s = Vec::new();
    let mut live: Option<(ServerChild, Client)> = None;
    for _ in 0..ctx.setup_rounds() {
        if let Some((server, mut client)) = live.take() {
            server.shutdown(&mut client)?;
        }
        let (spawned, seconds) = calibrator.time(|| ServerChild::spawn(&ctx.xsact_bin, &args));
        setup_s.push(seconds);
        let (server, _) = spawned?;
        let client = server.connect()?;
        live = Some((server, client));
    }
    let (server, mut client) = live.expect("at least one set-up round");
    set_top(&mut client)?;

    let mut warm_ops = 0u64;
    if spec.warm {
        for (query, want) in pool.iter().zip(&expected) {
            report.check(check_page(client.query(query), want, query));
            warm_ops += 1;
        }
    }

    let mut stream = stream(ctx, spec);
    report.note(format!("stream hash {:016x} over the first 4096 keys", stream.hash(4096)));
    let mut failed = 0u64;
    let mut window = Window::open(ctx.window(), Cpu::Process(server.pid()), calibrator);
    while window.running() {
        let key = stream.next_key();
        let sent = Instant::now();
        let got = client.query(&pool[key]);
        window.record(sent.elapsed().as_secs_f64() * 1e3, 0.0);
        let problem = check_page(got, &expected[key], &pool[key]);
        failed += u64::from(problem.is_some());
        let broken = problem.as_ref().is_some_and(|p| p.contains("failed:"));
        report.check(problem);
        if broken {
            break; // the connection is gone; every further op would fail the same way
        }
    }
    let timed_ops = window.ops() as u64;

    let metrics = client.metrics()?;
    check_conservation(report, &metrics, spec, warm_ops + timed_ops, timed_ops);
    let counter = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    report.note(format!(
        "server: served {} hits {} misses {} evictions {} postings_scanned {}",
        counter("xsact_queries_served"),
        counter("xsact_cache_hits"),
        counter("xsact_cache_misses"),
        counter("xsact_cache_evictions"),
        counter("xsact_postings_scanned"),
    ));
    let peak_rss_mb = procfs::peak_rss_mb(server.pid())?;
    server.shutdown(&mut client)?;
    window.summarize(report, &setup_s, failed, peak_rss_mb);
    Ok(())
}

/// One op of the in-process replay: frame the request line as the server's
/// front ends do, run it through a session, render the page.
fn frame(lines: &mut LineBuffer, query: &str) -> String {
    lines.push(b"QUERY ");
    lines.push(query.as_bytes());
    lines.push(b"\n");
    let line = lines.next_line().expect("ASCII line").expect("one complete line");
    match Request::parse(&line) {
        Ok(Some(Request::Query { text })) => text,
        other => panic!("QUERY line parsed as {other:?}"),
    }
}

fn render(answer: &xsact::QueryAnswer) -> String {
    let shown = answer.ranking.hits.len().min(TOP);
    format!("OK {shown}\n{}", answer.ranking.render(TOP))
}

fn start_server(corpus: &Arc<Corpus>, spec: &Spec) -> CorpusServer {
    CorpusServer::start(
        Arc::clone(corpus),
        ServeConfig {
            cache_entries: spec.cache_entries,
            default_top: TOP,
            ..ServeConfig::default()
        },
    )
}

fn run_traced(ctx: &Ctx, spec: &Spec, report: &mut Report) -> io::Result<()> {
    let pool = search_pool(spec.keys);
    let ops = ctx.traced_ops(spec.traced_ops);
    let keys: Vec<usize> = {
        let mut stream = stream(ctx, spec);
        (0..ops).map(|_| stream.next_key()).collect()
    };
    let n = ops as f64;
    let warm_keys: &[String] = if spec.warm { &pool } else { &[] };

    // 1. The op stream over the wire: client-side op time, the server's own
    //    counters and histograms, and the bytes every later pass must match.
    let (server, _) = ServerChild::spawn(&ctx.xsact_bin, &server_args(ctx, spec))?;
    let mut client = server.connect()?;
    set_top(&mut client)?;
    for query in warm_keys {
        client.query(query)?;
    }
    let before = client.metrics()?;
    let mut wire_pages: Vec<Option<Vec<u8>>> = vec![None; pool.len()];
    let mut wire_ms = Vec::with_capacity(ops);
    let mut response_bytes = 0usize;
    for &key in &keys {
        let sent = Instant::now();
        let body = client.query(&pool[key])?;
        wire_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        response_bytes += body.len() + 2;
        match &wire_pages[key] {
            Some(first) => report
                .check((first != body).then(|| {
                    format!("QUERY {:?} answered differently the second time", pool[key])
                })),
            None => wire_pages[key] = Some(body.to_vec()),
        }
    }
    let wire = client.metrics()?;
    check_conservation(report, &wire, spec, (warm_keys.len() + ops) as u64, ops as u64);
    server.shutdown(&mut client)?;
    let wire_us = stats::mean(&wire_ms) * 1e3;
    // What the server counted over the timed ops alone (the warming pass
    // is all misses by construction and would swamp the means).
    let sum = |name: &str| {
        wire.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };

    // 2. The same stream in-process without spans, once to fault the fresh
    //    corpus in (discarded) and again after the traced pass: the
    //    difference between that and the traced pass is what tracing costs.
    let corpus = Arc::new(corpus(ctx));
    let untraced_pass = || -> io::Result<f64> {
        let server = start_server(&corpus, spec);
        let mut session = server.session();
        let mut lines = LineBuffer::new();
        for query in warm_keys {
            session.query(query).map_err(io::Error::other)?;
        }
        let start = Instant::now();
        for &key in &keys {
            let text = frame(&mut lines, &pool[key]);
            let answer = session.query(&text).map_err(io::Error::other)?;
            std::hint::black_box(render(&answer));
        }
        Ok(start.elapsed().as_secs_f64() * 1e6 / n)
    };
    untraced_pass()?;

    // 3. The same stream in-process with spans around each serve stage.
    let mut tracer = Tracer::default();
    let mut missed: Vec<(u32, usize)> = Vec::new();
    {
        let server = start_server(&corpus, spec);
        let mut session = server.session();
        let mut lines = LineBuffer::new();
        for query in warm_keys {
            session.query(query).map_err(io::Error::other)?;
        }
        for (op, &key) in keys.iter().enumerate() {
            let op = op as u32;
            let root = tracer.begin("op", op, None);
            let text =
                tracer.leaf("serve.frame_parse", op, Some(root), || frame(&mut lines, &pool[key]));
            let session_span = tracer.begin("serve.session", op, Some(root));
            let answer = session.query(&text);
            tracer.end(session_span);
            let answer = answer.map_err(io::Error::other)?;
            tracer.reported_child(
                "serve.queue_wait",
                session_span,
                answer.queue_wait,
                answer.queue_wait,
            );
            tracer.reported_child(
                "corpus.execute",
                session_span,
                answer.queue_wait,
                answer.execute,
            );
            let page = tracer.leaf("serve.render", op, Some(root), || render(&answer));
            tracer.end(root);
            if !answer.execute.is_zero() {
                missed.push((op, key));
            }
            let wire_page =
                wire_pages[key].as_deref().expect("every traced key went over the wire");
            report.check(
                (page.as_bytes() != wire_page)
                    .then(|| format!("QUERY {:?}: wire and in-process pages differ", pool[key])),
            );
        }
        // The product's own view of the in-process run, for shard balance
        // (when every op hit the page cache, only the warming pass ran the
        // shards, and that is not this workload).
        let inproc = parse_exposition(&server.metrics());
        let busy: f64 = (0..SHARDS)
            .map(|s| inproc.get(&format!("xsact_shard_{s}_busy_ns_sum")).copied().unwrap_or(0.0))
            .sum();
        let execute = inproc.get("xsact_execute_ns_sum").copied().unwrap_or(0.0);
        if !missed.is_empty() {
            report.set("corpus.shard_busy_share", busy / (SHARDS as f64 * execute));
        }
    }

    let untraced_us = untraced_pass()?;

    // 4. The executor's share, document by document, for the ops that
    //    reached it (a page-cache hit never does).
    for (op, &key) in keys.iter().enumerate() {
        let op = op as u32;
        let query = tracer.leaf("index.query_parse", op, None, || Query::parse(&pool[key]));
        std::hint::black_box(&query);
    }
    let mut empty = 0usize;
    for &(op, key) in &missed {
        let query = Query::parse(&pool[key]);
        let mut hits = 0usize;
        for doc in 0..corpus.len() {
            let workbench = corpus.workbench(DocId(doc as u32));
            hits += tracer
                .leaf("index.search_top_k", op, None, || workbench.search_top_k(&query, TOP).len());
        }
        empty += usize::from(hits == 0);
    }

    let totals = tracer.totals();
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / n);
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3 / n);
    let allocs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_allocs as f64 / n);
    // Server-side stage times come from the wire run's own histograms (exact
    // sums over the same ops the client timed), so they subtract cleanly
    // from the client's op time; the in-process replay only adds the two
    // stages the server has no histogram for, framing and rendering.
    let hist_us = |name: &str| {
        sum(&format!("xsact_{name}_ns_sum")) / sum(&format!("xsact_{name}_ns_count")).max(1.0) / 1e3
    };
    let (session_us, queue_us, execute_us) =
        (hist_us("e2e"), hist_us("queue_wait"), hist_us("execute"));
    let reply_write_us = hist_us("reply_write");
    let attributed =
        self_us("serve.frame_parse") + session_us + self_us("serve.render") + reply_write_us;
    let wire_overhead_us = wire_us - attributed;

    report.set("trace.ops", n);
    report.set("trace.op_us", wire_us);
    report.set("trace.unattributed_share", wire_overhead_us / wire_us);
    report.set("trace.overhead_share", (total_us("op") - untraced_us) / untraced_us);
    report.set("serve.frame_parse_us", self_us("serve.frame_parse"));
    report.set("serve.session_overhead_us", session_us - queue_us - execute_us);
    report.set("serve.queue_wait_us", queue_us);
    report.set("corpus.execute_us", execute_us);
    report.set("serve.render_us", self_us("serve.render"));
    report.set("serve.reply_write_us", reply_write_us);
    report.set("serve.wire_overhead_us", wire_overhead_us);
    report.set("serve.response_bytes_per_op", response_bytes as f64 / n);
    report.set(
        "serve.allocs_per_op",
        allocs("serve.frame_parse") + allocs("serve.session") + allocs("serve.render"),
    );
    report.set("index.query_parse_us", self_us("index.query_parse"));
    report.set("index.search_top_k_us", self_us("index.search_top_k"));
    report.set("index.allocs_per_op", allocs("index.search_top_k"));
    report.set("index.empty_result_share", empty as f64 / missed.len().max(1) as f64);
    report.set("index.postings_scanned_per_op", sum("xsact_postings_scanned") / n);
    report.set("index.gallop_probes_per_op", sum("xsact_gallop_probes") / n);
    report.set("index.candidates_pruned_per_op", sum("xsact_candidates_pruned") / n);
    report.set("serve.cache_hit_share", sum("xsact_cache_hits") / n);
    report.set("serve.cache_evictions_per_op", sum("xsact_cache_evictions") / n);
    report.set(
        "serve.batch_size_mean",
        sum("xsact_batch_size_sum") / sum("xsact_batch_size_count").max(1.0),
    );
    report.set(
        "serve.rejected",
        sum("xsact_rejected_overload")
            + sum("xsact_rejected_budget")
            + sum("xsact_rejected_deadline"),
    );
    report.set("corpus.shard_restarts", sum("xsact_shard_restarts"));
    crate::kernel_metrics(report);

    report.note(format!(
        "op {wire_us:.1} us over the wire = frame {:.1} + session {session_us:.1} (queue {queue_us:.1}, execute \
         {execute_us:.1}) + render {:.1} + reply write {reply_write_us:.1} + unattributed wire \
         {wire_overhead_us:.1}; in-process op {:.1} us traced, {untraced_us:.1} us untraced; {} of {ops} ops \
         reached the executor",
        self_us("serve.frame_parse"),
        self_us("serve.render"),
        total_us("op"),
        missed.len()
    ));
    crate::write_trace(ctx, &tracer)
}
